// SIMD-mode equivalence: the vectorized query pipeline must be
// byte-identical to its scalar references.
//
// Two layers of pinning:
//   * dominance_options::simd — `automatic` (runtime-dispatched kernels)
//     and `force_scalar` (the kernel library's scalar backend through the
//     same call sites) against `off` (the plan's plain-loop oracles), for
//     every curve and every key width. Results and every logical
//     query_stats field must match exactly; only the physical probe-work
//     split (frontier_batches / probes_restarted / probes_resumed /
//     tier_*) may differ between *configurations*, never between simd
//     modes of the same configuration — the simd policy only changes how
//     the same numbers are computed.
//   * The cube-count batched path (merge_runs = false, batched_probe on)
//     against its single-range reference (batched_probe off): same results
//     and logical stats, strictly less probe-restart work once frontiers
//     have more than one cube.
//
// The process-wide SUBCOVER_FORCE_SCALAR override is exercised by running
// the whole suite under it (CI's forced-scalar job); these tests pin the
// per-index policy.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "dominance/dominance_index.h"
#include "util/random.h"

namespace subcover {
namespace {

point random_point(rng& gen, const universe& u) {
  point p(u.dims());
  for (int i = 0; i < u.dims(); ++i)
    p[i] = static_cast<std::uint32_t>(gen.uniform(0, u.coord_max()));
  return p;
}

// Every deterministic field, physical counters included: two runs that
// differ only in simd mode must agree on all of them.
void expect_identical_stats(const query_stats& a, const query_stats& b, const std::string& what) {
  EXPECT_EQ(a.cubes_enumerated, b.cubes_enumerated) << what;
  EXPECT_EQ(a.runs_in_plan, b.runs_in_plan) << what;
  EXPECT_EQ(a.runs_probed, b.runs_probed) << what;
  EXPECT_EQ(a.frontier_batches, b.frontier_batches) << what;
  EXPECT_EQ(a.probes_restarted, b.probes_restarted) << what;
  EXPECT_EQ(a.probes_resumed, b.probes_resumed) << what;
  EXPECT_EQ(a.tier_cold_probes, b.tier_cold_probes) << what;
  EXPECT_EQ(a.tier_summary_answers, b.tier_summary_answers) << what;
  EXPECT_EQ(a.tier_blocks_decoded, b.tier_blocks_decoded) << what;
  EXPECT_EQ(a.tier_cold_hits, b.tier_cold_hits) << what;
  EXPECT_EQ(a.truncation_m, b.truncation_m) << what;
  EXPECT_EQ(a.volume_fraction_planned, b.volume_fraction_planned) << what;
  EXPECT_EQ(a.volume_fraction_searched, b.volume_fraction_searched) << what;
  EXPECT_EQ(a.found, b.found) << what;
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted) << what;
}

// Logical fields only — what must survive a change of probe *strategy*
// (batched vs reference, head depth), where the physical split moves.
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

TEST(SimdEquivalence, ModesAreByteIdenticalAcrossCurvesWidthsAndConfigs) {
  // 24 key bits: representable at all three widths, so the same universe
  // cross-checks the u64 kernel paths against the u128/u512 scalar-compare
  // paths on identical data.
  const universe u(3, 8);
  rng gen(2024);
  std::vector<point> stored;
  for (int i = 0; i < 140; ++i) stored.push_back(random_point(gen, u));
  std::vector<point> queries;
  for (int q = 0; q < 24; ++q) queries.push_back(random_point(gen, u));

  for (const auto curve : {curve_kind::z_order, curve_kind::hilbert, curve_kind::gray_code}) {
    for (const key_width w : {key_width::w64, key_width::w128, key_width::w512}) {
      for (const bool merge : {true, false}) {
        dominance_options base;
        base.curve = curve;
        base.width = w;
        base.merge_runs = merge;
        base.array = sfc_array_kind::sorted_vector;

        auto make_index = [&](simd_mode m) {
          dominance_options o = base;
          o.simd = m;
          auto idx = std::make_unique<dominance_index>(u, o);
          for (std::size_t i = 0; i < stored.size(); ++i) idx->insert(stored[i], i);
          return idx;
        };
        const auto oracle = make_index(simd_mode::off);
        const auto dispatched = make_index(simd_mode::automatic);
        const auto scalar = make_index(simd_mode::force_scalar);

        for (const double eps : {0.0, 0.05, 0.35}) {
          for (const auto& x : queries) {
            const std::string what = std::string(curve_kind_name(curve)) +
                                     " w=" + std::to_string(static_cast<int>(w)) +
                                     " merge=" + std::to_string(merge) +
                                     " eps=" + std::to_string(eps) + " x=" + x.to_string();
            query_stats so, sd, ss;
            const auto ro = oracle->query(x, eps, &so);
            const auto rd = dispatched->query(x, eps, &sd);
            const auto rs = scalar->query(x, eps, &ss);
            EXPECT_EQ(ro, rd) << what;
            EXPECT_EQ(ro, rs) << what;
            expect_identical_stats(so, sd, what + " [auto]");
            expect_identical_stats(so, ss, what + " [force_scalar]");
          }
        }
      }
    }
  }
}

TEST(SimdEquivalence, CubeCountBatchedPathMatchesReferenceAndRestartsLess) {
  const universe u(3, 8);
  rng gen(99);
  dominance_options ref;
  ref.merge_runs = false;
  ref.batched_probe = false;
  ref.array = sfc_array_kind::sorted_vector;
  dominance_options bat = ref;
  bat.batched_probe = true;

  dominance_index ri(u, ref);
  dominance_index bi(u, bat);
  for (int i = 0; i < 160; ++i) {
    const point p = random_point(gen, u);
    ri.insert(p, static_cast<std::uint64_t>(i));
    bi.insert(p, static_cast<std::uint64_t>(i));
  }

  std::uint64_t ref_restarts = 0, bat_restarts = 0, bat_batches = 0;
  for (const double eps : {0.0, 0.1}) {
    for (int q = 0; q < 30; ++q) {
      const point x = random_point(gen, u);
      const std::string what = "eps=" + std::to_string(eps) + " x=" + x.to_string();
      query_stats sr, sb;
      const auto rr = ri.query(x, eps, &sr);
      const auto rb = bi.query(x, eps, &sb);
      EXPECT_EQ(rr, rb) << what;
      expect_same_logical_stats(sr, sb, what);
      // The reference path restarts a fresh descent for every probed cube.
      EXPECT_EQ(sr.probes_restarted, sr.runs_probed) << what;
      EXPECT_EQ(sr.frontier_batches, 0u) << what;
      EXPECT_EQ(sr.probes_resumed, 0u) << what;
      ref_restarts += sr.probes_restarted;
      bat_restarts += sb.probes_restarted;
      bat_batches += sb.frontier_batches;
    }
  }
  // Across the workload the batched cube-count path must have engaged the
  // frontier sweep and saved restarts.
  EXPECT_GT(bat_batches, 0u);
  EXPECT_LT(bat_restarts, ref_restarts);
}

TEST(SimdEquivalence, SimdModeComposesWithTieringAndSkiplist) {
  const universe u(4, 5);
  rng gen(55);
  for (const auto array : {sfc_array_kind::skiplist, sfc_array_kind::sorted_vector}) {
    dominance_options base;
    base.array = array;
    base.tier_hot_capacity = 32;  // force cold-tier traffic through the
    base.tier_block_entries = 8;  // vectorized envelope scans
    auto make_index = [&](simd_mode m) {
      dominance_options o = base;
      o.simd = m;
      auto idx = std::make_unique<dominance_index>(u, o);
      return idx;
    };
    auto oracle = make_index(simd_mode::off);
    auto dispatched = make_index(simd_mode::automatic);
    std::vector<point> stored;
    for (int i = 0; i < 200; ++i) {
      stored.push_back(random_point(gen, u));
      oracle->insert(stored.back(), static_cast<std::uint64_t>(i));
      dispatched->insert(stored.back(), static_cast<std::uint64_t>(i));
    }
    for (const double eps : {0.0, 0.1}) {
      for (int q = 0; q < 25; ++q) {
        const point x = random_point(gen, u);
        const std::string what = "array=" + std::to_string(static_cast<int>(array)) +
                                 " eps=" + std::to_string(eps) + " x=" + x.to_string();
        query_stats so, sd;
        const auto ro = oracle->query(x, eps, &so);
        const auto rd = dispatched->query(x, eps, &sd);
        EXPECT_EQ(ro, rd) << what;
        expect_identical_stats(so, sd, what);
      }
    }
  }
}

}  // namespace
}  // namespace subcover
