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

}  // namespace
}  // namespace subcover
