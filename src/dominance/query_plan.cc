#include "dominance/query_plan.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "dominance/dominance_index.h"
#include "sfc/extremal_decomposition.h"
#include "sfcarray/tiered_sfc_array.h"
#include "util/check.h"
#include "util/radix_sort.h"
#include "util/simd_kernels.h"
#include "util/timer.h"

namespace subcover {

namespace {

// Stack-allocated receiver for one batched level sweep: records each probed
// range's answer under its replay rank and stops the sweep as soon as no
// remaining range can outrank the best hit found so far.
template <class K>
struct sweep_sink final : basic_sfc_array<K>::frontier_sink {
  using entry = typename basic_sfc_array<K>::entry;

  const std::uint32_t* rank;        // sweep position -> replay rank
  const std::uint32_t* suffix_min;  // min rank among sweep positions i..end
  std::size_t n;                    // sweep length
  std::uint8_t* found;              // rank-indexed answers
  std::uint64_t* ids;
  std::uint32_t best_rank;          // smallest rank that hit; "none" = cap
  std::uint64_t visited = 0;

  bool on_probe(std::size_t i, const entry* hit) override {
    ++visited;
    const std::uint32_t rk = rank[i];
    if (hit != nullptr) {
      found[rk] = 1;
      ids[rk] = hit->id;
      if (rk < best_rank) best_rank = rk;
    }
    // Continue while some unprobed range still ranks above (earlier in the
    // replay than) the best hit; once none does, the replay can never reach
    // an unprobed range.
    return i + 1 < n && suffix_min[i + 1] < best_rank;
  }
};

// --- plain-loop frontier primitives -----------------------------------------
// The implementation at the wide key widths (the vector kernels are
// u64-lane). Each mirrors the semantics of the same-named kernel in
// util/simd_kernels.h exactly.

// Coalesces sorted, distinct, cube-aligned lows (cube span `cube_cells`)
// into maximal runs; equal-size aligned cubes chain exactly when
// lo[i] - lo[i-1] == cube_cells. Byte-identical to merge_ranges_inplace on
// the same cubes. Requires n > 0.
template <class K>
std::size_t coalesce_cubes_plain(const K* lo, std::size_t n, const K& cube_cells, K* run_lo,
                                 K* run_hi) {
  const K ext = cube_cells - key_traits<K>::one();
  std::size_t out = 0;
  run_lo[0] = lo[0];
  run_hi[0] = lo[0] | ext;
  for (std::size_t i = 1; i < n; ++i) {
    if (lo[i] - lo[i - 1] == cube_cells) {
      run_hi[out] = lo[i] | ext;
    } else {
      ++out;
      run_lo[out] = lo[i];
      run_hi[out] = lo[i] | ext;
    }
  }
  return out + 1;
}

// Argbest in probe order over the extent/lo columns: largest extent, ties
// by smallest lo, further ties by first index. Requires n > 0.
template <class K>
std::size_t head_scan_plain(const K* ext, const K* lo, std::size_t n) {
  std::size_t best = 0;
  for (std::size_t p = 1; p < n; ++p) {
    const bool wins = ext[p] != ext[best] ? ext[best] < ext[p] : lo[p] < lo[best];
    if (wins) best = p;
  }
  return best;
}

// Galloping threshold of merge_pair: a run whose next kGallop elements all
// precede the other run's head is copied in one block.
constexpr std::ptrdiff_t kGallop = 8;

// First position in [p, e) not below `key`, given p[kGallop] < key:
// doubling steps, then a binary search inside the last one.
template <class K>
const K* gallop_to(const K* p, const K* e, const K& key) {
  const K* lo = p + kGallop;  // below key
  std::ptrdiff_t step = kGallop;
  while (e - lo > step && lo[step] < key) {
    lo += step;
    step *= 2;
  }
  return std::lower_bound(lo + 1, e - lo > step ? lo + step : e, key);
}

// Merges two adjacent ascending runs [a, mid) and [mid, end) into `out`. A
// pair already in order is one copy. Segments interleave in long blocks
// (sub-rectangles of key space), so the merge gallops across a block once
// it sees one; between blocks it steps branch-free. The lows of a level
// are distinct, so ties never arise.
template <class K>
void merge_pair(const K* a, const K* mid, const K* end, K* out) {
  const K* b = mid;
  if (b == end || *(b - 1) < *b) {
    std::copy(a, end, out);
    return;
  }
  while (a != mid && b != end) {
    if (mid - a > kGallop && a[kGallop] < *b) {
      const K* to = gallop_to(a, mid, *b);
      out = std::copy(a, to, out);
      a = to;
    } else if (end - b > kGallop && b[kGallop] < *a) {
      const K* to = gallop_to(b, end, *a);
      out = std::copy(b, to, out);
      b = to;
    } else {
      const bool take_b = *b < *a;
      *out++ = take_b ? *b : *a;
      a += static_cast<std::size_t>(!take_b);
      b += static_cast<std::size_t>(take_b);
    }
  }
  std::copy(b, end, std::copy(a, mid, out));
}

// Merges the key-ascending segments of `col` (segment s starts at
// starts[s]; the last one runs to the end) into one ascending column:
// neighbours already in order are concatenated, then pairwise merge passes
// ping-pong between `col` and `tmp`. Returns whichever holds the result.
// Clobbers `starts`.
template <class K>
const K* merge_segments(std::vector<K>& col, std::vector<K>& tmp,
                        std::vector<std::size_t>& starts) {
  const std::size_t n = col.size();
  std::size_t runs = 0;
  for (const std::size_t s : starts)
    if (runs == 0 || col[s] < col[s - 1]) starts[runs++] = s;
  starts.resize(runs);
  starts.push_back(n);  // run r spans [starts[r], starts[r + 1])
  K* src = col.data();
  if (runs > 1) tmp.resize(n);
  K* dst = tmp.data();
  while (runs > 1) {
    std::size_t out = 0;
    for (std::size_t r = 0; r < runs; r += 2) {
      const std::size_t first = starts[r];
      const std::size_t mid = starts[r + 1];
      const std::size_t end = r + 2 <= runs ? starts[r + 2] : mid;
      merge_pair(src + first, src + mid, src + end, dst + first);
      starts[out++] = first;
    }
    starts[out] = n;
    runs = out;
    std::swap(src, dst);
  }
  SUBCOVER_DCHECK(std::adjacent_find(src, src + n,
                                     [](const K& a, const K& b) { return !(a < b); }) == src + n,
                  "query_plan: merged lows not strictly ascending");
  return src;
}

}  // namespace

query_plan::query_plan(const dominance_index& index) : index_(&index) {
  // Bind the width-typed scratch to the index's engine.
  std::visit(
      [this](const auto& e) {
        using K = typename std::decay_t<decltype(*e.curve)>::key_type;
        typed_state<K> ts;
        ts.curve = e.curve.get();
        ts.array = e.array.get();
        // Tiered engines (tier_hot_capacity > 0) additionally expose the
        // tiering API; a plain backend leaves `tiered` null and the plan
        // skips all tier bookkeeping.
        ts.tiered = dynamic_cast<basic_tiered_sfc_array<K>*>(e.array.get());
        state_.emplace<typed_state<K>>(std::move(ts));
      },
      index.engine_);
}

std::optional<std::uint64_t> query_plan::run(const point& x, double epsilon,
                                             query_stats* stats) {
  return std::visit([&](auto& ts) { return run_impl(ts, x, epsilon, stats); }, state_);
}

template <class K>
std::optional<std::uint64_t> query_plan::run_impl(typed_state<K>& ts, const point& x,
                                                  double epsilon, query_stats* stats) {
  const dominance_index& idx = *index_;
  const universe& u = idx.space();
  const dominance_options& opts = idx.options();
  if (epsilon < 0 || epsilon >= 1)
    throw std::invalid_argument("dominance_index::query: epsilon must be in [0, 1)");
  if (!x.inside(u))
    throw std::invalid_argument("dominance_index::query: point outside universe");
  const stopwatch timer;

  const extremal_rect full = extremal_rect::query_region(u, x);
  const long double vol_full = full.volume_ld();
  const int m = idx.truncation_m(epsilon);
  const extremal_rect target = epsilon > 0 ? full.truncated(u, m) : full;

  query_stats local;
  query_stats& st = stats != nullptr ? *stats : local;
  st = query_stats{};
  st.truncation_m = m;
  st.volume_fraction_planned = target.volume_ld() / vol_full;

  // Tiered engine: the array's tier counters are cumulative; snapshot them
  // here and report this query's delta at the end. The maintenance ledger
  // (tombstones/compactions, any backend) is snapshotted the same way — the
  // end-of-query maintain() pass below is what moves it during a query.
  tier_counters tier_before;
  if (ts.tiered != nullptr) tier_before = ts.tiered->counters();
  const maintenance_counters maint_before = ts.array->maintenance();

  // The Section 5 search: probe standard cubes of the (truncated) region in
  // descending volume order, tracking the searched-volume ratio, and stop on
  // a hit or once the ratio reaches 1 - epsilon.
  //
  // The exact per-level cube counts N_i (Lemma 3.5, closed form — no
  // enumeration) tell us in advance how many levels the search can possibly
  // need: levels are consumed largest-first, so the search never descends
  // past the first level at which the cumulative volume reaches the
  // coverage target. Cubes below that cutoff are never enumerated, which is
  // what makes typical queries cheap even when the full decomposition is
  // astronomical (regions with extreme aspect ratios, Theorem 4.1).
  extremal_level_counts_into(u, target, level_counts_);
  const long double coverage_target =
      epsilon > 0 ? (1.0L - static_cast<long double>(epsilon)) * vol_full
                  : target.volume_ld();

  std::uint64_t budget = opts.max_cubes;
  long double searched = 0;
  long double planned_cum = 0;  // volume of levels enumerated so far
  std::optional<std::uint64_t> result;
  bool done = false;
  // One lo-column sink for the whole query: the emitter's per-level prefix /
  // state caches are reusable across levels (each fresh walk forces a full
  // recomputation via its watermark), so its construction cost is paid once
  // per query rather than once per occupied level. Only the cube's low key
  // is stored — every cube of level i spans the same extent, derived in
  // bulk after enumeration.
  // The XOR-linear curves (Z, Gray) emit each rectangle as key-ascending
  // segments, whose starts land in segment_starts_, so ordering the level
  // is a merge rather than a sort.
  std::uint64_t needed = 0;
  std::uint64_t taken = 0;
  auto sink = [&](const K& lo) {
    ts.lo_col.push_back(lo);
    return ++taken < needed;
  };
  detail::lo_emitter<K, decltype(sink)> ranges(*ts.curve, 0, sink, segment_starts_);
  for (int i = u.bits(); i >= 0 && !done; --i) {
    const u512& count = level_counts_[static_cast<std::size_t>(i)];
    if (count.is_zero()) continue;
    const long double cube_volume = std::ldexp(1.0L, i * u.dims());
    const long double level_volume = count.to_long_double() * cube_volume;
    // Cubes needed from this level: all of it, unless the coverage target
    // falls inside this level (only possible for epsilon > 0; exhaustive
    // queries always take whole levels so no floating-point boundary math
    // can drop cubes).
    if (epsilon > 0 && planned_cum + level_volume >= coverage_target) {
      needed = static_cast<std::uint64_t>(
                   std::ceil((coverage_target - planned_cum) / cube_volume)) +
               1;  // +1 absorbs long-double rounding at the boundary
      done = true;  // no level below this one can be required
    } else if (count.bit_width() > 63) {
      needed = ~std::uint64_t{0};
    } else {
      needed = count.low64();
    }
    if (needed > budget) {
      if (!opts.settle_on_budget)
        throw std::length_error("dominance_index::query: cube budget exceeded");
      st.budget_exhausted = true;
      needed = budget;
      done = true;
    }
    if (needed == 0) break;

    // Stream exactly `needed` cube lows of the level into the frontier
    // column (all cubes of a level have equal volume, so any subset of the
    // right size reaches the same coverage). The corner-free enumerator
    // emits each cube directly as its Equation-1 low key at the plan's
    // width — no standard_cube, no coordinate arrays, no wide cube_prefix
    // math. The sink's bool return stops enumeration cleanly — no exception
    // control flow, no over-enumeration. count > 0 already implies the
    // level is occupied, so the walk runs unconditionally.
    ts.lo_col.clear();
    segment_starts_.clear();
    taken = 0;
    ranges.set_level(i);
    detail::level_walk<decltype(ranges)>(u, target, i, ranges, needed).run();
    const std::size_t cube_count = ts.lo_col.size();
    st.cubes_enumerated += cube_count;
    budget -= cube_count;
    planned_cum += level_volume;
    if (cube_count == 0) continue;
    const K level_mask = ranges.level_mask();  // hi == lo | level_mask at this level

    // Coalesce on the key column: order the lows, then chain cubes that sit
    // exactly one cube span apart — byte-identical to merge_ranges_inplace
    // on the materialized ranges (equal-size aligned cubes can never overlap
    // or be closer than one span). Segmented levels merge their sorted
    // segments; Hilbert's lows come in counting order and are sorted (radix
    // at u64). The lows of a level are distinct, so either order is
    // std::sort's.
    const K* sorted = ts.lo_col.data();
    if (ranges.segmented()) {
      sorted = merge_segments(ts.lo_col, ts.lo_merge, segment_starts_);
    } else if constexpr (std::is_same_v<K, std::uint64_t>) {
      radix::sort_u64(ts.lo_col.data(), cube_count, ts.lo_merge);
    } else {
      std::sort(ts.lo_col.begin(), ts.lo_col.end());
    }
    ts.run_lo.resize(cube_count);
    ts.run_hi.resize(cube_count);
    std::size_t run_count;
    if (cube_count == 1) {
      // Also the only case where the cube span could wrap the key width
      // (the whole-universe cube at d*k bits).
      ts.run_lo[0] = sorted[0];
      ts.run_hi[0] = sorted[0] | level_mask;
      run_count = 1;
    } else if constexpr (std::is_same_v<K, std::uint64_t>) {
      run_count = simd::coalesce_cubes_u64(sorted, cube_count, level_mask + 1, ts.run_lo.data(),
                                           ts.run_hi.data());
    } else {
      run_count = coalesce_cubes_plain<K>(sorted, cube_count, level_mask + key_traits<K>::one(),
                                          ts.run_lo.data(), ts.run_hi.data());
    }
    st.runs_in_plan += run_count;

    // Volume of one run, exactly range.cell_count_ld().
    const auto run_cells_ld = [&ts](std::size_t p) {
      return key_traits<K>::to_long_double(ts.run_ext[p]) + 1.0L;
    };
    const auto run_at = [&ts](std::size_t p) {
      basic_key_range<K> r;
      r.lo = ts.run_lo[p];
      r.hi = ts.run_hi[p];
      return r;
    };
    // Extent lanes: the volume key of every ordering and accumulation below.
    ts.run_ext.resize(run_count);
    if constexpr (std::is_same_v<K, std::uint64_t>) {
      simd::sub_u64(ts.run_hi.data(), ts.run_lo.data(), ts.run_ext.data(), run_count);
    } else {
      for (std::size_t p = 0; p < run_count; ++p) ts.run_ext[p] = ts.run_hi[p] - ts.run_lo[p];
    }

    // --- head probe (see query_plan.h) -----------------------------------
    // Rank 0 — the largest run, ties by ascending key — usually decides the
    // level on hit-dense workloads: one O(run_count) scan finds it, it is
    // probed alone, and only a miss orders the frontier at all.
    std::size_t head;
    if constexpr (std::is_same_v<K, std::uint64_t>) {
      head = simd::head_rank_scan_u64(ts.run_ext.data(), ts.run_lo.data(), run_count);
    } else {
      head = head_scan_plain<K>(ts.run_ext.data(), ts.run_lo.data(), run_count);
    }
    ++st.runs_probed;
    ++st.probes_restarted;
    const auto head_hit = ts.array->first_in(run_at(head), &ts.hint);
    searched += run_cells_ld(head);
    if (head_hit.has_value()) {
      result = head_hit->id;
      st.found = true;
      break;
    }
    if (epsilon > 0 && searched >= coverage_target) break;
    if (run_count == 1) continue;

    // --- batched frontier sweep over ranks 1.. ----------------------------
    // The probe order (largest run first, ties by ascending lo) as a rank
    // -> position map over the merged frontier. The lo tie-break is
    // well-defined: merged ranges have distinct lows. The run columns are
    // key-ascending, so at u64 a stable descending radix argsort on the
    // extents alone yields exactly the (extent desc, lo asc) order.
    if constexpr (std::is_same_v<K, std::uint64_t>) {
      radix::argsort_u64(ts.run_ext.data(), run_count, radix::direction::descending,
                         replay_order_, order_scratch_);
    } else {
      replay_order_.resize(run_count);
      std::iota(replay_order_.begin(), replay_order_.end(), 0U);
      std::sort(replay_order_.begin(), replay_order_.end(),
                [&ext = ts.run_ext, &lo = ts.run_lo](std::uint32_t a, std::uint32_t b) {
                  if (ext[a] != ext[b]) return ext[b] < ext[a];
                  return lo[a] < lo[b];
                });
    }
    // With epsilon > 0 the coverage stop point depends only on run volumes:
    // rerun the accumulation (same long-double order the replay uses,
    // continuing after the head's contribution) to find how many ranks the
    // replay can possibly visit, and never probe past them.
    std::size_t probe_count = run_count;
    if (epsilon > 0) {
      long double cum = searched;
      for (std::size_t j = 1; j < run_count; ++j) {
        cum += run_cells_ld(replay_order_[j]);
        if (cum >= coverage_target) {
          probe_count = j + 1;
          break;
        }
      }
    }
    // Sweep list: the rank < probe_count subset in key-ascending order, each
    // element carrying its rank. With no coverage cut (the common case, and
    // always for epsilon == 0) that is the whole frontier — materialized
    // straight off the run columns (re-answering the already-probed head is
    // harmless and cheaper than compacting it away); only a genuine cut
    // compacts, dropping the head with the rest.
    pos_rank_.resize(run_count);
    for (std::size_t j = 0; j < run_count; ++j)
      pos_rank_[replay_order_[j]] = static_cast<std::uint32_t>(j);
    const std::uint32_t* sweep_rank = pos_rank_.data();
    std::size_t pn = run_count;
    if (probe_count < run_count) {
      ts.probe_ranges.clear();
      probe_rank_.clear();
      for (std::size_t pos = 0; pos < run_count; ++pos) {
        if (pos_rank_[pos] >= 1 && pos_rank_[pos] < probe_count) {
          ts.probe_ranges.push_back(run_at(pos));
          probe_rank_.push_back(pos_rank_[pos]);
        }
      }
      sweep_rank = probe_rank_.data();
      pn = ts.probe_ranges.size();
    } else {
      ts.probe_ranges.resize(run_count);
      for (std::size_t pos = 0; pos < run_count; ++pos) ts.probe_ranges[pos] = run_at(pos);
    }
    // Suffix-min-rank table: the sink's oracle for stopping the sweep once
    // no unprobed range can outrank the best hit. The head is already
    // answered (it missed), so it must not hold the sweep open; the
    // kernel's floor of 1 masks it to the weakest rank.
    suffix_min_rank_.resize(pn);
    simd::suffix_min_masked_u32(sweep_rank, pn, 1, suffix_min_rank_.data());
    hit_found_.assign(probe_count, 0);
    hit_id_.resize(probe_count);

    sweep_sink<K> sweep;
    sweep.rank = sweep_rank;
    sweep.suffix_min = suffix_min_rank_.data();
    sweep.n = pn;
    sweep.found = hit_found_.data();
    sweep.ids = hit_id_.data();
    sweep.best_rank = static_cast<std::uint32_t>(probe_count);
    ts.array->probe_frontier(std::span<const basic_key_range<K>>(ts.probe_ranges.data(), pn),
                             sweep);
    ++st.frontier_batches;
    if (sweep.visited > 0) {
      ++st.probes_restarted;
      st.probes_resumed += sweep.visited - 1;
    }

    // Volume-order replay of the recorded answers, continuing after the
    // head: every rank below the first hit was swept (the early stop only
    // fires once no unprobed range outranks the best hit) and recorded as a
    // miss, so the result, stop point and logical stats are those of
    // probing the runs one by one in rank order.
    for (std::size_t j = 1; j < probe_count; ++j) {
      ++st.runs_probed;
      searched += run_cells_ld(replay_order_[j]);
      if (hit_found_[j] != 0) {
        result = hit_id_[j];
        st.found = true;
        done = true;
        break;
      }
      if (epsilon > 0 && searched >= coverage_target) {
        done = true;
        break;
      }
    }
  }
  st.volume_fraction_searched = searched / vol_full;
  if (ts.tiered != nullptr) {
    const tier_counters& now = ts.tiered->counters();
    st.tier_cold_probes = now.cold_probes - tier_before.cold_probes;
    st.tier_summary_answers = now.summary_answers - tier_before.summary_answers;
    st.tier_blocks_decoded = now.blocks_decoded - tier_before.blocks_decoded;
    st.tier_cold_hits = now.cold_hits - tier_before.cold_hits;
    // End-of-query maintenance: promote the cold entries this query hit
    // (and flush the hot tier if an insert burst overfilled it), so the
    // recently-hit working set is resident for the next query.
    ts.tiered->maintain();
  }
  {
    const maintenance_counters maint_now = ts.array->maintenance();
    st.maint_tombstones_added = maint_now.tombstones_added - maint_before.tombstones_added;
    st.maint_tombstones_purged = maint_now.tombstones_purged - maint_before.tombstones_purged;
    st.maint_compactions = maint_now.compactions - maint_before.compactions;
  }
  st.elapsed_ns = timer.elapsed_ns();
  return result;
}

}  // namespace subcover
