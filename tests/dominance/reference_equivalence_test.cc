// Production query plan vs the single-range reference search.
//
// dominance_index::query runs one probe path: per level, a head probe of
// the largest run, then one batched probe_frontier sweep over the remaining
// ranks with a volume-order replay. reference_query.h runs the same search
// the plain way — sorted runs, one independent first_in each, at u512
// through the index's facade. The two must agree on the result and on every
// logical query_stats field for every curve, key width, array backend
// (tiered included) and epsilon, and under a settling cube budget. Only the
// physical probe split may differ, and batching must save fresh descents.
//
// The u64 kernels of util/simd_kernels.h run here at whatever tier the
// process dispatches to; CI reruns the suite under SUBCOVER_FORCE_SCALAR=1
// for the scalar backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dominance/dominance_index.h"
#include "reference_query.h"
#include "util/random.h"

namespace subcover {
namespace {

using oracle::reference_query;

point random_point(rng& gen, const universe& u) {
  point p(u.dims());
  for (int i = 0; i < u.dims(); ++i)
    p[i] = static_cast<std::uint32_t>(gen.uniform(0, u.coord_max()));
  return p;
}

// Logical fields only — what every probe strategy must agree on.
void expect_same_logical_stats(const query_stats& a, const query_stats& b,
                               const std::string& what) {
  EXPECT_EQ(a.cubes_enumerated, b.cubes_enumerated) << what;
  EXPECT_EQ(a.runs_in_plan, b.runs_in_plan) << what;
  EXPECT_EQ(a.runs_probed, b.runs_probed) << what;
  EXPECT_EQ(a.truncation_m, b.truncation_m) << what;
  EXPECT_EQ(a.volume_fraction_planned, b.volume_fraction_planned) << what;
  EXPECT_EQ(a.volume_fraction_searched, b.volume_fraction_searched) << what;
  EXPECT_EQ(a.found, b.found) << what;
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted) << what;
}

struct stats_pair {
  query_stats got;  // production
  query_stats ref;  // oracle
};

// Compares one query against the oracle; returns both sides' stats.
stats_pair expect_matches_oracle(const dominance_index& idx, const point& x, double eps,
                                 const std::string& what) {
  stats_pair st;
  const auto got = idx.query(x, eps, &st.got);
  const auto ref = reference_query(idx, x, eps, &st.ref);
  EXPECT_EQ(got, ref) << what;
  expect_same_logical_stats(st.got, st.ref, what);
  // One fresh descent per level head plus one per sweep, at most.
  EXPECT_LE(st.got.probes_restarted, st.got.runs_probed + st.got.frontier_batches) << what;
  return st;
}

struct backend {
  const char* name;
  sfc_array_kind array;
  std::size_t tier_hot_capacity;
};

constexpr backend kBackends[] = {
    {"skiplist", sfc_array_kind::skiplist, 0},
    {"sorted_vector", sfc_array_kind::sorted_vector, 0},
    {"tiered", sfc_array_kind::skiplist, 32},  // cold-tier traffic on every query
};

TEST(ReferenceEquivalence, MatchesOracleAcrossCurvesWidthsAndBackends) {
  // 24 key bits: representable at all three widths, so the same universe
  // runs the u64 kernels and the u128/u512 plain loops on identical data.
  const universe u(3, 8);
  rng gen(2024);
  std::vector<point> stored;
  for (int i = 0; i < 140; ++i) stored.push_back(random_point(gen, u));
  std::vector<point> queries;
  for (int q = 0; q < 24; ++q) queries.push_back(random_point(gen, u));

  for (const auto curve : {curve_kind::z_order, curve_kind::hilbert, curve_kind::gray_code}) {
    for (const key_width w : {key_width::w64, key_width::w128, key_width::w512}) {
      for (const backend& b : kBackends) {
        dominance_options o;
        o.curve = curve;
        o.width = w;
        o.array = b.array;
        o.tier_hot_capacity = b.tier_hot_capacity;
        o.tier_block_entries = 8;
        dominance_index idx(u, o);
        for (std::size_t i = 0; i < stored.size(); ++i) idx.insert(stored[i], i);
        for (const double eps : {0.0, 0.05, 0.35}) {
          for (const auto& x : queries) {
            std::string what(curve_kind_name(curve));
            what += " w=" + std::to_string(static_cast<int>(w));
            what += " array=";
            what += b.name;
            what += " eps=" + std::to_string(eps) + " x=" + x.to_string();
            (void)expect_matches_oracle(idx, x, eps, what);
          }
        }
      }
    }
  }
}

TEST(ReferenceEquivalence, SettlingBudgetOnMx1RegionsMatchesOracle) {
  // One coordinate at the maximum gives an extremal region with a unit
  // side — the paper's M x 1 case, per-cell runs — so a budget of 64 cubes
  // cuts levels mid-rectangle and the partial plan must still agree.
  const universe u(3, 8);
  rng gen(27);
  std::vector<point> stored;
  for (int i = 0; i < 150; ++i) stored.push_back(random_point(gen, u));
  for (const auto curve : {curve_kind::z_order, curve_kind::hilbert, curve_kind::gray_code}) {
    for (const key_width w : {key_width::w64, key_width::w128, key_width::w512}) {
      dominance_options o;
      o.curve = curve;
      o.width = w;
      o.array = sfc_array_kind::sorted_vector;
      o.max_cubes = 64;
      o.settle_on_budget = true;
      dominance_index idx(u, o);
      for (std::size_t i = 0; i < stored.size(); ++i) idx.insert(stored[i], i);
      int exhausted = 0;
      for (const double eps : {0.0, 0.05, 0.35}) {
        for (std::uint32_t a = 0; a < 256; a += 37) {
          for (std::uint32_t c = 0; c < 256; c += 51) {
            const point x{a, u.coord_max(), c};
            std::string what(curve_kind_name(curve));
            what += " w=" + std::to_string(static_cast<int>(w));
            what += " eps=" + std::to_string(eps) + " x=" + x.to_string();
            if (expect_matches_oracle(idx, x, eps, what).got.budget_exhausted) ++exhausted;
          }
        }
      }
      EXPECT_GT(exhausted, 0) << "the budget must actually cut some plans";
    }
  }
}

TEST(ReferenceEquivalence, BatchedSweepMatchesOracleAndRestartsLess) {
  // The sweep + replay must reproduce the one-run-at-a-time search exactly
  // while starting strictly fewer fresh descents across a multi-probe
  // workload (the oracle restarts once per probed run).
  rng gen(4242);
  for (const auto curve : {curve_kind::z_order, curve_kind::hilbert, curve_kind::gray_code}) {
    for (const auto array : {sfc_array_kind::skiplist, sfc_array_kind::sorted_vector}) {
      const universe u(2, 6);
      dominance_options o;
      o.curve = curve;
      o.array = array;
      dominance_index idx(u, o);
      for (std::uint64_t i = 0; i < 200; ++i) idx.insert(random_point(gen, u), i);

      std::uint64_t restarts = 0;
      std::uint64_t reference_restarts = 0;
      for (const double eps : {0.0, 0.02, 0.2, 0.6}) {
        for (int q = 0; q < 60; ++q) {
          const point x = random_point(gen, u);
          const std::string what = "curve=" + std::to_string(static_cast<int>(curve)) +
                                   " array=" + std::to_string(static_cast<int>(array)) +
                                   " eps=" + std::to_string(eps) + " x=" + x.to_string();
          const stats_pair st = expect_matches_oracle(idx, x, eps, what);
          EXPECT_EQ(st.ref.frontier_batches, 0u) << what;
          EXPECT_EQ(st.ref.probes_resumed, 0u) << what;
          EXPECT_EQ(st.ref.probes_restarted, st.ref.runs_probed) << what;
          restarts += st.got.probes_restarted;
          reference_restarts += st.ref.probes_restarted;
        }
      }
      EXPECT_LT(restarts, reference_restarts) << "batching should strictly reduce fresh descents";
    }
  }
}

TEST(ReferenceEquivalence, HeadProbeDecidesLevelAlone) {
  // Each level's largest run is probed alone before any sweep: when the
  // oracle's first probe hits, production must have answered the query with
  // that single fresh descent and no frontier sweep; and a query that never
  // swept restarted exactly once per probed level head.
  rng gen(7117);
  const universe u(2, 6);
  dominance_index idx(u);
  for (std::uint64_t i = 0; i < 150; ++i) idx.insert(random_point(gen, u), i);
  int decided_by_head = 0;
  for (const double eps : {0.0, 0.1, 0.5}) {
    for (int q = 0; q < 120; ++q) {
      const point x = random_point(gen, u);
      const std::string what = "eps=" + std::to_string(eps) + " x=" + x.to_string();
      const query_stats st = expect_matches_oracle(idx, x, eps, what).got;
      if (st.found && st.runs_probed == 1) {
        ++decided_by_head;
        EXPECT_EQ(st.frontier_batches, 0u) << what;
        EXPECT_EQ(st.probes_restarted, 1u) << what;
        EXPECT_EQ(st.probes_resumed, 0u) << what;
      }
      if (st.frontier_batches == 0) {
        EXPECT_EQ(st.probes_restarted, st.runs_probed) << what;
      }
    }
  }
  EXPECT_GT(decided_by_head, 0);
}

// Where the 1 - epsilon target stops a search that finds nothing: the level
// it stops in (its run volumes in probe order), the volume searched before
// that level, and the rank whose volume first reaches the target. This is
// reference_query's volume walk without the probes.
struct cut_point {
  std::vector<key_range> runs;  // probe order
  std::vector<long double> cells;
  long double before = 0;
  long double target = 0;
  std::size_t stop = 0;
  bool reached = false;
};

cut_point locate_cut(const dominance_index& idx, const point& x, double eps) {
  const universe& u = idx.space();
  const extremal_rect full = extremal_rect::query_region(u, x);
  const extremal_rect region = full.truncated(u, idx.truncation_m(eps));
  cut_point cp;
  cp.target = (1.0L - static_cast<long double>(eps)) * full.volume_ld();
  const std::vector<u512> counts = extremal_level_counts(u, region);
  long double planned = 0;
  long double searched = 0;
  for (int i = u.bits(); i >= 0; --i) {
    const u512& count = counts[static_cast<std::size_t>(i)];
    if (count.is_zero()) continue;
    const long double cube_volume = std::ldexp(1.0L, i * u.dims());
    const long double level_volume = count.to_long_double() * cube_volume;
    std::uint64_t needed = count.low64();
    if (planned + level_volume >= cp.target)
      needed = static_cast<std::uint64_t>(std::ceil((cp.target - planned) / cube_volume)) + 1;
    planned += level_volume;
    std::vector<key_range> runs;
    enumerate_level_ranges(
        idx.sfc(), region, i,
        [&](const key_range& r) {
          runs.push_back(r);
          return runs.size() < needed;
        },
        needed);
    merge_ranges_inplace(runs);
    std::sort(runs.begin(), runs.end(), oracle::probes_before);
    cp.before = searched;
    cp.runs = runs;
    cp.cells.clear();
    for (const key_range& r : runs) cp.cells.push_back(r.cell_count_ld());
    for (std::size_t j = 0; j < cp.cells.size(); ++j) {
      searched += cp.cells[j];
      if (searched >= cp.target) {
        cp.stop = j;
        cp.reached = true;
        return cp;
      }
    }
  }
  return cp;
}

// Where the target falls among the stop level's chain-length classes (runs
// of equal volume, consecutive in probe order).
enum class cut_kind { head, inside_class, class_end, exact_class_end, other };

cut_kind classify(const cut_point& cp) {
  if (!cp.reached) return cut_kind::other;
  const std::size_t j = cp.stop;
  if (j == 0) return cut_kind::head;
  if (cp.cells[j - 1] != cp.cells[j]) return cut_kind::other;  // a class of one
  if (j + 1 < cp.cells.size() && cp.cells[j + 1] == cp.cells[j]) return cut_kind::inside_class;
  long double end = cp.before;
  for (std::size_t r = 0; r <= j; ++r) end += cp.cells[r];
  return end == cp.target ? cut_kind::exact_class_end : cut_kind::class_end;
}

TEST(ReferenceEquivalence, CoverageCutInsideAndAtClassBoundaries) {
  // The plan ranks a level's runs by chain-length class and settles the
  // coverage cut and the replay per class. Regions with a short side hold
  // levels of many equal-length runs; epsilon is then chosen so that the
  // 1 - epsilon target falls on the head alone, inside a class, or on the
  // last rank of a class — exactly on its cumulative volume where epsilon
  // can express it. Stored points hit runs on both sides of many cuts, so
  // the probe order within a class and the cut's rank count both decide
  // the answer.
  const universe u(3, 4);
  rng gen(1607);
  std::vector<point> stored;
  for (int i = 0; i < 60; ++i) stored.push_back(random_point(gen, u));
  std::vector<point> queries;
  for (std::uint32_t a = 0; a < 16; a += 3)
    for (std::uint32_t b = 0; b < 16; b += 2)
      for (const std::uint32_t c : {8U, 12U, 14U, 15U}) queries.push_back(point{a, b, c});

  for (const auto curve : {curve_kind::z_order, curve_kind::hilbert, curve_kind::gray_code}) {
    for (const key_width w : {key_width::w64, key_width::w512}) {
      dominance_options o;
      o.curve = curve;
      o.width = w;
      o.array = sfc_array_kind::sorted_vector;
      dominance_index idx(u, o);
      for (std::size_t i = 0; i < stored.size(); ++i) idx.insert(stored[i], i);
      int seen[5] = {};
      for (const point& x : queries) {
        const long double vol = extremal_rect::query_region(u, x).volume_ld();
        for (const double base_eps : {0.05, 0.3, 0.7}) {
          const cut_point cp = locate_cut(idx, x, base_eps);
          if (!cp.reached) continue;
          // Candidate targets in the base stop level: the head's end, the
          // middle of the last few runs inside a class (the level's end is
          // where a re-planned level still cuts inside a class), and a
          // class's end (one that epsilon expresses exactly, if any).
          std::vector<long double> targets;
          std::vector<long double> inside;
          long double end = cp.before;
          bool class_end = false;
          for (std::size_t j = 0; j < cp.cells.size(); ++j) {
            end += cp.cells[j];
            const bool same_prev = j > 0 && cp.cells[j - 1] == cp.cells[j];
            const bool last = j + 1 == cp.cells.size() || cp.cells[j + 1] != cp.cells[j];
            if (j == 0) targets.push_back(end);
            if (same_prev && !last) inside.push_back(end - cp.cells[j] / 2);
            if (same_prev && last && end < vol) {
              const double e = static_cast<double>(1.0L - end / vol);
              const bool exact = (1.0L - static_cast<long double>(e)) * vol == end;
              if (exact || !class_end) targets.push_back(end);
              class_end = class_end || !exact;
              if (exact) break;
            }
          }
          const std::size_t last_inside = std::min<std::size_t>(inside.size(), 3);
          targets.insert(targets.end(), inside.end() - static_cast<std::ptrdiff_t>(last_inside),
                         inside.end());
          // The stop level depends on epsilon (truncation, cubes needed),
          // so each target's case is read off again at its own epsilon.
          for (const long double t : targets) {
            const double eps = static_cast<double>(1.0L - t / vol);
            if (eps <= 0 || eps >= 1) continue;
            const cut_point at = locate_cut(idx, x, eps);
            ++seen[static_cast<int>(classify(at))];
            std::string what(curve_kind_name(curve));
            what += " w=" + std::to_string(static_cast<int>(w));
            what += " eps=" + std::to_string(eps) + " x=" + x.to_string();
            (void)expect_matches_oracle(idx, x, eps, what);
            // Where the cut falls short of the level's end: one stored point
            // in the last run the cut admits, or in the first it drops, so
            // which runs the cut keeps decides the answer.
            if (!at.reached || at.stop + 1 == at.runs.size()) continue;
            for (const std::size_t r : {at.stop, at.stop + 1}) {
              dominance_index one(u, o);
              one.insert(one.sfc().cell_from_key(at.runs[r].lo), 7);
              (void)expect_matches_oracle(one, x, eps, what + " one point in rank " +
                                                           std::to_string(r));
            }
          }
        }
      }
      const std::string what(curve_kind_name(curve));
      EXPECT_GT(seen[static_cast<int>(cut_kind::head)], 0) << what;
      EXPECT_GT(seen[static_cast<int>(cut_kind::inside_class)], 0) << what;
      EXPECT_GT(seen[static_cast<int>(cut_kind::class_end)], 0) << what;
      EXPECT_GT(seen[static_cast<int>(cut_kind::exact_class_end)], 0) << what;
    }
  }
}

}  // namespace
}  // namespace subcover
