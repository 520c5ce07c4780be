#include "dominance/query_plan.h"

#include <algorithm>
#include <cmath>
#include <limits>
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

// Stack-allocated receiver for one batched level sweep: keeps the best hit —
// the smallest class key, ties to the first swept — and stops the sweep as
// soon as no remaining range can outrank it.
template <class K>
struct sweep_sink final : basic_sfc_array<K>::frontier_sink {
  using entry = typename basic_sfc_array<K>::entry;
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  const std::uint32_t* key;         // sweep position -> class key
  const std::uint32_t* suffix_min;  // min key among sweep positions i..end
  std::size_t n;                    // sweep length
  std::uint32_t best_key = kNone;
  std::size_t best_pos = 0;
  std::uint64_t best_id = 0;
  std::uint64_t visited = 0;

  bool on_probe(std::size_t i, const entry* hit) override {
    ++visited;
    if (hit != nullptr && key[i] < best_key) {
      best_key = key[i];
      best_pos = i;
      best_id = hit->id;
    }
    // Continue while some unprobed range still ranks above the best hit: a
    // longer chain (smaller key), since an equal one swept later ranks
    // after it. Once none does, the search can never reach an unprobed
    // range.
    return i + 1 < n && suffix_min[i + 1] < best_key;
  }
};

// Searched-volume accumulation. Every partial sum of run volumes is an
// integer no larger than the query region, at most 2^(d*k). At u64 that
// is <= 2^64, which a long double with a 64-bit significand holds exactly,
// so r adds of one class volume equal one multiply-add bit for bit. Wider
// keys, or a narrower long double, add one run at a time.
template <class K>
constexpr bool kExactVolumeSums =
    std::is_same_v<K, std::uint64_t> && std::numeric_limits<long double>::digits >= 64;

constexpr long double kNoTarget = std::numeric_limits<long double>::infinity();

// Adds up to r runs of `cells` volume each to cum, in rank order, stopping
// after the first add that reaches `target`; returns the number of adds.
template <class K>
std::uint64_t add_runs(long double& cum, long double cells, std::uint64_t r, long double target) {
  if constexpr (kExactVolumeSums<K>) {
    const auto after = [&](std::uint64_t t) { return cum + static_cast<long double>(t) * cells; };
    if (r == 0 || after(r) < target) {
      cum = after(r);
      return r;
    }
    std::uint64_t lo = 1;  // the first add reaching target is in [lo, r]
    std::uint64_t hi = r;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (after(mid) >= target) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    cum = after(lo);
    return lo;
  } else {
    for (std::uint64_t t = 1; t <= r; ++t) {
      cum += cells;
      if (cum >= target) return t;
    }
    return r;
  }
}

// Plan scratch only grows: returns v's storage for n elements, resizing only
// when it is too short, so a warm plan neither allocates nor re-initialises
// (every use passes its length explicitly).
template <class T>
T* scratch(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

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
    K* const run_lo = scratch(ts.run_lo, cube_count);
    K* const run_hi = scratch(ts.run_hi, cube_count);
    std::size_t run_count;
    if (cube_count == 1) {
      // Also the only case where the cube span could wrap the key width
      // (the whole-universe cube at d*k bits).
      run_lo[0] = sorted[0];
      run_hi[0] = sorted[0] | level_mask;
      run_count = 1;
    } else if constexpr (std::is_same_v<K, std::uint64_t>) {
      run_count = simd::coalesce_cubes_u64(sorted, cube_count, level_mask + 1, run_lo, run_hi);
    } else {
      run_count = coalesce_cubes_plain<K>(sorted, cube_count, level_mask + key_traits<K>::one(),
                                          run_lo, run_hi);
    }
    st.runs_in_plan += run_count;

    const auto run_at = [run_lo, run_hi](std::size_t p) {
      basic_key_range<K> r;
      r.lo = run_lo[p];
      r.hi = run_hi[p];
      return r;
    };
    // Extent lanes: what the head scan and the chain lengths read.
    K* const run_ext = scratch(ts.run_ext, run_count);
    if constexpr (std::is_same_v<K, std::uint64_t>) {
      simd::sub_u64(run_hi, run_lo, run_ext, run_count);
    } else {
      for (std::size_t p = 0; p < run_count; ++p) run_ext[p] = run_hi[p] - run_lo[p];
    }

    // --- head probe (see query_plan.h) -----------------------------------
    // Rank 0 — the largest run, ties by ascending key — usually decides the
    // level on hit-dense workloads: one O(run_count) scan finds it, it is
    // probed alone, and only a miss orders the frontier at all.
    std::size_t head;
    if constexpr (std::is_same_v<K, std::uint64_t>) {
      head = simd::head_rank_scan_u64(run_ext, run_lo, run_count);
    } else {
      head = head_scan_plain<K>(run_ext, run_lo, run_count);
    }
    ++st.runs_probed;
    ++st.probes_restarted;
    const auto head_hit = ts.array->first_in(run_at(head), &ts.hint);
    searched += key_traits<K>::to_long_double(run_ext[head]) + 1.0L;  // cell_count_ld()
    if (head_hit.has_value()) {
      result = head_hit->id;
      st.found = true;
      break;
    }
    if (epsilon > 0 && searched >= coverage_target) break;
    if (run_count == 1) continue;

    // --- batched frontier sweep over ranks 1.. ----------------------------
    // Probe order by counting: every cube of level i spans 2^(d*i) cells,
    // so a run's volume is its chain length c times one cube, and the order
    // (volume desc, lo asc) is a counting order over the level's few
    // distinct chain lengths. One pass over the extents builds the class
    // histogram; the head, the longest run, bounds it. Four interleaved
    // counters per length keep consecutive runs of one length (the common
    // case) from serialising on one counter. run_count >= 2, so no run
    // spans the whole key width and the shift stays below it.
    const int cube_bits = i * u.dims();
    const auto chain_len = [cube_bits](const K& ext) {
      return static_cast<std::uint32_t>(key_traits<K>::low64(ext >> cube_bits) + 1);
    };
    const std::uint32_t top = chain_len(run_ext[head]);
    const std::size_t stride = std::size_t{top} + 1;
    class_count_.assign(4 * stride, 0);
    std::uint32_t* const hist = class_count_.data();
    std::uint32_t* const run_len = scratch(run_len_, run_count);
    for (std::size_t p = 0; p < run_count; ++p) {
      const std::uint32_t c = chain_len(run_ext[p]);
      run_len[p] = c;
      ++hist[(p & 3) * stride + c];
    }
    // Classes in descending length (probe order): count, first rank, and
    // the volume of one run (exactly range.cell_count_ld()).
    classes_.clear();
    std::uint32_t first_rank = 0;
    for (std::uint32_t c = top; c > 0; --c) {
      const std::uint32_t n =
          hist[c] + hist[stride + c] + hist[2 * stride + c] + hist[3 * stride + c];
      if (n == 0) continue;
      const K ext = (K(std::uint64_t{c} - 1) << cube_bits) | level_mask;
      classes_.push_back({c, n, first_rank, key_traits<K>::to_long_double(ext) + 1.0L});
      first_rank += n;
    }
    // Ranks of class k that follow the head (rank 0, the first run of the
    // top class).
    const auto ranks_after_head = [this](std::size_t k) {
      return std::uint64_t{classes_[k].count} - (k == 0 ? 1 : 0);
    };
    // With epsilon > 0 the coverage stop point depends only on run volumes:
    // accumulate them class by class after the head's contribution (the
    // sums the replay makes) to find how many ranks the search can possibly
    // visit, and never probe past them.
    std::size_t probe_count = run_count;
    std::size_t cut_class = classes_.size();
    if (epsilon > 0) {
      long double cum = searched;
      std::size_t ranked = 1;
      for (std::size_t k = 0; k < classes_.size(); ++k) {
        ranked += add_runs<K>(cum, classes_[k].cells, ranks_after_head(k), coverage_target);
        if (cum >= coverage_target) {
          probe_count = ranked;
          cut_class = k;
          break;
        }
      }
    }
    // Sweep list in key order, keyed by class (top + 1 - c: longer chains
    // first). With no coverage cut (the common case, and always for
    // epsilon == 0) that is the whole frontier, the already-probed head
    // included under key 0, which the suffix table's floor masks
    // (re-answering it is harmless and cheaper than compacting it away). A
    // genuine cut keeps ranks 1 .. probe_count - 1 only: every run of the
    // classes above the cut class but the head, and the first runs of the
    // cut class in key order — the ascending-lo tie-break.
    const std::size_t pn = probe_count == run_count ? run_count : probe_count - 1;
    basic_key_range<K>* const sweep_list = scratch(ts.probe_ranges, pn);
    std::uint32_t* const sweep_key = scratch(probe_key_, pn);
    if (probe_count == run_count) {
      for (std::size_t p = 0; p < run_count; ++p) {
        sweep_list[p] = run_at(p);
        sweep_key[p] = top + 1 - run_len[p];
      }
      sweep_key[head] = 0;
    } else {
      const std::uint32_t cut_len = classes_[cut_class].len;
      std::size_t take = probe_count - classes_[cut_class].first;  // cut-class ranks kept
      std::size_t kept = 0;
      for (std::size_t p = 0; p < run_count; ++p) {
        const std::uint32_t c = run_len[p];
        if (c < cut_len) continue;
        if (c == cut_len) {
          if (take == 0) continue;
          --take;
        }
        if (p == head) continue;  // rank 0, counted in its class's take
        sweep_list[kept] = run_at(p);
        sweep_key[kept] = top + 1 - c;
        ++kept;
      }
      SUBCOVER_DCHECK(kept == pn, "query_plan: cut sweep list has the wrong length");
    }
    // Suffix-min-key table: the sink's oracle for stopping the sweep once
    // no unprobed range can outrank the best hit.
    std::uint32_t* const suffix_min = scratch(suffix_min_key_, pn);
    simd::suffix_min_masked_u32(sweep_key, pn, 1, suffix_min);

    sweep_sink<K> sweep;
    sweep.key = sweep_key;
    sweep.suffix_min = suffix_min;
    sweep.n = pn;
    ts.array->probe_frontier(std::span<const basic_key_range<K>>(sweep_list, pn), sweep);
    ++st.frontier_batches;
    if (sweep.visited > 0) {
      ++st.probes_restarted;
      st.probes_resumed += sweep.visited - 1;
    }

    // The best hit's rank: its class's first rank plus the class members
    // swept before it, plus the head where it leads the class (keyed apart,
    // or left out of a cut list).
    std::size_t best_rank = probe_count;
    if (sweep.best_key != sweep_sink<K>::kNone) {
      const std::uint32_t c = top + 1 - sweep.best_key;
      std::size_t before = c == top ? 1 : 0;
      for (std::size_t j = 0; j < sweep.best_pos; ++j) before += sweep_key[j] == sweep.best_key;
      std::size_t k = 0;
      while (classes_[k].len != c) ++k;
      best_rank = classes_[k].first + before;
    }
    // Replay in volume order, continuing after the head: every rank below
    // the best hit was swept (the early stop only fires once no unprobed
    // range outranks it) and missed, so probing the runs one by one in rank
    // order would stop at the best hit or, short of one, at the last rank
    // the cut admits. The volume of ranks 1 .. that stop is summed class by
    // class, exactly as those probes would add it.
    const std::size_t replayed = std::min(best_rank, probe_count - 1);
    st.runs_probed += replayed;
    for (std::size_t k = 0, left = replayed; left > 0; ++k) {
      const std::uint64_t r = std::min<std::uint64_t>(ranks_after_head(k), left);
      add_runs<K>(searched, classes_[k].cells, r, kNoTarget);
      left -= r;
    }
    if (best_rank < probe_count) {
      result = sweep.best_id;
      st.found = true;
      done = true;
    } else if (epsilon > 0 && searched >= coverage_target) {
      done = true;
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
