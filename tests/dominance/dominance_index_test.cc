#include "dominance/dominance_index.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "covering/sfc_covering_index.h"
#include "util/random.h"
#include "workload/subscription_gen.h"

namespace subcover {
namespace {

point random_point(rng& gen, const universe& u) {
  point p(u.dims());
  for (int i = 0; i < u.dims(); ++i)
    p[i] = static_cast<std::uint32_t>(gen.uniform(0, u.coord_max()));
  return p;
}

// Brute-force oracle: any stored point dominating x?
bool oracle_dominates(const std::vector<point>& points, const point& x) {
  for (const auto& p : points)
    if (p.dominates(x)) return true;
  return false;
}

TEST(DominanceIndex, EmptyIndexFindsNothing) {
  dominance_index idx(universe(4, 8));
  EXPECT_FALSE(idx.query(point{0, 0, 0, 0}, 0.0).has_value());
  EXPECT_FALSE(idx.query(point{0, 0, 0, 0}, 0.1).has_value());
}

TEST(DominanceIndex, FindsDominatingPoint) {
  dominance_index idx(universe(2, 8));
  idx.insert(point{200, 150}, 42);
  // (100, 100) is dominated by (200, 150).
  const auto hit = idx.query(point{100, 100}, 0.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 42U);
  // (201, 0) is not dominated.
  EXPECT_FALSE(idx.query(point{201, 0}, 0.0).has_value());
}

TEST(DominanceIndex, PointDominatesItself) {
  dominance_index idx(universe(3, 6));
  idx.insert(point{10, 20, 30}, 1);
  EXPECT_TRUE(idx.query(point{10, 20, 30}, 0.0).has_value());
}

TEST(DominanceIndex, EraseRemovesPoint) {
  dominance_index idx(universe(2, 8));
  idx.insert(point{200, 200}, 1);
  EXPECT_TRUE(idx.query(point{100, 100}, 0.0).has_value());
  EXPECT_TRUE(idx.erase(point{200, 200}, 1));
  EXPECT_FALSE(idx.query(point{100, 100}, 0.0).has_value());
  EXPECT_FALSE(idx.erase(point{200, 200}, 1));
}

TEST(DominanceIndex, ExhaustiveMatchesBruteForce) {
  for (const auto kind :
       {curve_kind::z_order, curve_kind::hilbert, curve_kind::gray_code}) {
    const universe u(4, 5);
    dominance_options opts;
    opts.curve = kind;
    dominance_index idx(u, opts);
    rng gen(55);
    std::vector<point> points;
    for (std::uint64_t i = 0; i < 300; ++i) {
      points.push_back(random_point(gen, u));
      idx.insert(points.back(), i);
    }
    for (int q = 0; q < 150; ++q) {
      const point x = random_point(gen, u);
      const bool expected = oracle_dominates(points, x);
      const auto hit = idx.query(x, 0.0);
      ASSERT_EQ(hit.has_value(), expected)
          << "curve=" << curve_kind_name(kind) << " x=" << x.to_string();
      if (hit.has_value()) {
        EXPECT_TRUE(points[*hit].dominates(x));
      }
    }
  }
}

TEST(DominanceIndex, ApproximateNeverFalsePositive) {
  const universe u(4, 6);
  dominance_index idx(u);
  rng gen(66);
  std::vector<point> points;
  for (std::uint64_t i = 0; i < 200; ++i) {
    points.push_back(random_point(gen, u));
    idx.insert(points.back(), i);
  }
  for (const double eps : {0.01, 0.05, 0.2, 0.5, 0.9}) {
    for (int q = 0; q < 100; ++q) {
      const point x = random_point(gen, u);
      const auto hit = idx.query(x, eps);
      if (hit.has_value()) {
        EXPECT_TRUE(points[*hit].dominates(x)) << "eps=" << eps;
      }
    }
  }
}

TEST(DominanceIndex, QueryStatsVolumeGuarantee) {
  // Lemma 3.2: the planned (truncated) region covers >= 1 - eps of the query
  // region, and when no point is found the searched fraction also reaches
  // the 1 - eps target.
  const universe u(4, 5);
  dominance_index idx(u);
  rng gen(77);
  for (std::uint64_t i = 0; i < 50; ++i) idx.insert(random_point(gen, u), i);
  for (const double eps : {0.05, 0.1, 0.3}) {
    for (int q = 0; q < 50; ++q) {
      const point x = random_point(gen, u);
      query_stats st;
      const auto hit = idx.query(x, eps, &st);
      EXPECT_GE(static_cast<double>(st.volume_fraction_planned), 1.0 - eps - 1e-12);
      EXPECT_EQ(st.truncation_m, idx.truncation_m(eps));
      if (!hit.has_value()) {
        EXPECT_GE(static_cast<double>(st.volume_fraction_searched), 1.0 - eps - 1e-9);
        EXPECT_FALSE(st.found);
      } else {
        EXPECT_TRUE(st.found);
      }
      EXPECT_LE(st.runs_probed, st.runs_in_plan);
      EXPECT_LE(st.runs_in_plan, st.cubes_enumerated);
    }
  }
}

TEST(DominanceIndex, ApproximateFindsPointsInTruncatedRegion) {
  // If a stored point lies inside R(t(l,m)), the approximate query must find
  // it (it searches that entire region in the worst case).
  const universe u(2, 9);
  dominance_index idx(u);
  // Query at x = (255, 255): region R(257, 257), truncated at any m >= 1 ->
  // R(256, 256) anchored at max corner = [256..511]^2.
  idx.insert(point{256, 256}, 9);
  for (const double eps : {0.5, 0.1, 0.01}) {
    const auto hit = idx.query(point{255, 255}, eps);
    ASSERT_TRUE(hit.has_value()) << "eps=" << eps;
    EXPECT_EQ(*hit, 9U);
  }
}

TEST(DominanceIndex, ApproximateMayMissCornerPoint) {
  // A point only in the thin shell R(l) \ R(t(l,m)) can legitimately be
  // missed by the approximate query but must be found exhaustively.
  const universe u(2, 9);
  dominance_index idx(u);
  // Query x = (255, 255) -> region [255..511]^2; shell cell (255, 255).
  idx.insert(point{255, 255}, 1);
  EXPECT_TRUE(idx.query(point{255, 255}, 0.0).has_value());
  // With eps = 0.5, m = ceil(log2(2*2/0.5)) = 3; t(257,3) = 256 — the shell
  // (rows/cols at 255) is excluded, so the approximate query misses.
  EXPECT_FALSE(idx.query(point{255, 255}, 0.5).has_value());
}

TEST(DominanceIndex, TruncationM) {
  const universe u(4, 10);
  dominance_index idx(u);
  EXPECT_EQ(idx.truncation_m(0.0), 0);
  // m = ceil(log2(2*4/0.05)) = ceil(log2(160)) = 8.
  EXPECT_EQ(idx.truncation_m(0.05), 8);
  // m = ceil(log2(8/0.5)) = 4.
  EXPECT_EQ(idx.truncation_m(0.5), 4);
  // Clamped to k+1.
  EXPECT_EQ(idx.truncation_m(1e-9), 11);
}

TEST(DominanceIndex, InvalidArguments) {
  dominance_index idx(universe(2, 4));
  EXPECT_THROW((void)idx.query(point{0, 0}, -0.1), std::invalid_argument);
  EXPECT_THROW((void)idx.query(point{0, 0}, 1.0), std::invalid_argument);
  EXPECT_THROW((void)idx.query(point{0, 0, 0}, 0.0), std::invalid_argument);
  EXPECT_THROW(idx.insert(point{16, 0}, 1), std::invalid_argument);
}

TEST(DominanceIndex, MaxCubesGuard) {
  dominance_options opts;
  opts.max_cubes = 16;
  dominance_index idx(universe(2, 9), opts);
  // Exhaustive query on a 257x257 region needs 514 cubes > 16.
  EXPECT_THROW((void)idx.query(point{255, 255}, 0.0), std::length_error);
  // The approximate query's truncated region is tiny and stays within budget.
  EXPECT_NO_THROW((void)idx.query(point{255, 255}, 0.5));
}

TEST(DominanceIndex, MaxCubesAboveUint32Throws) {
  // A level's runs are ranked in 32-bit lanes; the budget bounds every
  // level's run count, so both index constructors reject a wider budget.
  dominance_options o;
  o.max_cubes = std::uint64_t{1} << 32;
  EXPECT_THROW(dominance_index(universe(2, 4), o), std::invalid_argument);
  o.max_cubes = (std::uint64_t{1} << 32) - 1;
  EXPECT_NO_THROW(dominance_index(universe(2, 4), o));
  sfc_covering_options so;
  so.max_cubes = std::uint64_t{1} << 32;
  EXPECT_THROW(sfc_covering_index(workload::make_uniform_schema(2, 8), so),
               std::invalid_argument);
}

TEST(DominanceIndex, ApproximateCheaperThanExhaustive) {
  // The Figure 2 scenario: a 257x257 query region. Exhaustive needs 385 run
  // probes when empty; 0.01-approximate needs a handful.
  const universe u(2, 9);
  dominance_index idx(u);
  query_stats exhaustive_stats;
  query_stats approx_stats;
  (void)idx.query(point{255, 255}, 0.0, &exhaustive_stats);
  (void)idx.query(point{255, 255}, 0.01, &approx_stats);
  // Runs are coalesced per level, so the probe count sits between the
  // globally-merged 385 runs of Figure 2 and the 514 raw cubes.
  EXPECT_GE(exhaustive_stats.runs_probed, 385U);
  EXPECT_LE(exhaustive_stats.runs_probed, 514U);
  EXPECT_LT(approx_stats.runs_probed, 10U);
  EXPECT_GE(static_cast<double>(approx_stats.volume_fraction_searched), 0.99);
}

TEST(DominanceIndex, SortedVectorBackendAgrees) {
  const universe u(3, 5);
  dominance_options a;
  a.array = sfc_array_kind::skiplist;
  dominance_options b;
  b.array = sfc_array_kind::sorted_vector;
  dominance_index ia(u, a);
  dominance_index ib(u, b);
  rng gen(88);
  for (std::uint64_t i = 0; i < 200; ++i) {
    const point p = random_point(gen, u);
    ia.insert(p, i);
    ib.insert(p, i);
  }
  for (int q = 0; q < 100; ++q) {
    const point x = random_point(gen, u);
    EXPECT_EQ(ia.query(x, 0.0).has_value(), ib.query(x, 0.0).has_value());
    EXPECT_EQ(ia.query(x, 0.1).has_value(), ib.query(x, 0.1).has_value());
  }
}

}  // namespace
}  // namespace subcover
