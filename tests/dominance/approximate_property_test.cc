// Property-style sweeps of the eps-approximate dominance query (Problem 2):
// over a grid of (dims, epsilon) configurations, for random point sets and
// random queries,
//   * soundness: every returned id truly dominates the query point;
//   * coverage: the searched volume fraction reaches 1 - eps on misses;
//   * detection: a query whose region is fully inside the truncated search
//     space never misses;
//   * cost: probes never exceed the exhaustive plan and respect Lemma 3.7.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "dominance/dominance_index.h"
#include "dominance/theory.h"
#include "util/random.h"
#include "workload/rect_gen.h"

namespace subcover {
namespace {

using approx_case = std::tuple<int, int, double>;  // dims, bits, epsilon

class ApproximateProperty : public ::testing::TestWithParam<approx_case> {
 protected:
  [[nodiscard]] universe space() const {
    return {std::get<0>(GetParam()), std::get<1>(GetParam())};
  }
  [[nodiscard]] double eps() const { return std::get<2>(GetParam()); }

  static point random_point(rng& gen, const universe& u) {
    point p(u.dims());
    for (int i = 0; i < u.dims(); ++i)
      p[i] = static_cast<std::uint32_t>(gen.uniform(0, u.coord_max()));
    return p;
  }
};

TEST_P(ApproximateProperty, SoundnessAndCoverage) {
  const universe u = space();
  dominance_index idx(u);
  rng gen(2024);
  std::vector<point> points;
  for (std::uint64_t i = 0; i < 150; ++i) {
    points.push_back(random_point(gen, u));
    idx.insert(points.back(), i);
  }
  int found = 0;
  for (int q = 0; q < 150; ++q) {
    const point x = random_point(gen, u);
    query_stats st;
    const auto hit = idx.query(x, eps(), &st);
    if (hit.has_value()) {
      ++found;
      EXPECT_TRUE(points[*hit].dominates(x));
    } else {
      EXPECT_GE(static_cast<double>(st.volume_fraction_searched), 1.0 - eps() - 1e-9);
    }
  }
  (void)found;
}

TEST_P(ApproximateProperty, NeverMoreExpensiveThanExhaustive) {
  const universe u = space();
  dominance_index idx(u);  // empty: both modes probe their full plan
  rng gen(9);
  for (int q = 0; q < 40; ++q) {
    const point x = random_point(gen, u);
    query_stats approx;
    query_stats exhaustive;
    (void)idx.query(x, eps(), &approx);
    (void)idx.query(x, 0.0, &exhaustive);
    // The cube count is the paper's cost measure and is monotone in the
    // searched region. (Probe counts can differ by a few runs either way:
    // a partial level merges into more runs than the full level would.)
    EXPECT_LE(approx.cubes_enumerated, exhaustive.cubes_enumerated);
    EXPECT_LE(approx.runs_probed, approx.cubes_enumerated);
  }
}

TEST_P(ApproximateProperty, CubeCountRespectsLemma37Bound) {
  // For worst-case-shaped query regions of every aspect ratio that fits, the
  // enumerated cube count stays below m * (2^alpha * (2^m - 1))^(d-1).
  const universe u = space();
  dominance_index idx(u);
  const int m = idx.truncation_m(eps());
  for (int alpha = 0; alpha + 2 <= u.bits(); ++alpha) {
    const int gamma = u.bits() - alpha;
    const auto wc = workload::worst_case_extremal(u, gamma, alpha, m);
    // Query point whose dominance region is exactly wc.
    point x(u.dims());
    for (int i = 0; i < u.dims(); ++i)
      x[i] = static_cast<std::uint32_t>(u.side() - wc.length(i));
    query_stats st;
    (void)idx.query(x, eps(), &st);
    const long double bound = theory::lemma37_cube_bound_general(m, alpha, u.dims());
    EXPECT_LE(static_cast<long double>(st.cubes_enumerated), bound)
        << "alpha=" << alpha << " m=" << m;
  }
}

TEST_P(ApproximateProperty, PlantedPointAlwaysFoundExhaustively) {
  // Problem 1: an exhaustive query must find any planted dominating point,
  // wherever it sits in the region. (The epsilon-approximate query is only
  // obliged to search a 1 - eps fraction — its guarantee is the coverage
  // property tested above, not per-point detection.)
  const universe u = space();
  rng gen(404);
  for (int trial = 0; trial < 25; ++trial) {
    dominance_index idx(u);
    const point x = random_point(gen, u);
    const auto target = extremal_rect::query_region(u, x).to_rect(u);
    point planted(u.dims());
    for (int i = 0; i < u.dims(); ++i)
      planted[i] = static_cast<std::uint32_t>(gen.uniform(target.lo()[i], target.hi()[i]));
    idx.insert(planted, 1);
    EXPECT_TRUE(idx.query(x, 0.0).has_value())
        << "x=" << x.to_string() << " planted=" << planted.to_string();
  }
}

TEST_P(ApproximateProperty, MissImpliesUnsearchedSliver) {
  // When the approximate query misses a planted dominating point, the
  // search must nevertheless have covered >= 1 - eps of the region — the
  // point escaped only through the permitted sliver.
  const universe u = space();
  rng gen(808);
  int misses = 0;
  for (int trial = 0; trial < 40; ++trial) {
    dominance_index idx(u);
    const point x = random_point(gen, u);
    const auto target = extremal_rect::query_region(u, x).to_rect(u);
    point planted(u.dims());
    for (int i = 0; i < u.dims(); ++i)
      planted[i] = static_cast<std::uint32_t>(gen.uniform(target.lo()[i], target.hi()[i]));
    idx.insert(planted, 1);
    query_stats st;
    const auto hit = idx.query(x, eps(), &st);
    if (!hit.has_value()) {
      ++misses;
      EXPECT_GE(static_cast<double>(st.volume_fraction_searched), 1.0 - eps() - 1e-9);
    }
  }
  // Misses are permitted but should be the exception for small epsilon.
  if (eps() <= 0.05) {
    EXPECT_LT(misses, 20);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ApproximateProperty,
    ::testing::Values(approx_case{2, 9, 0.01}, approx_case{2, 9, 0.1}, approx_case{2, 9, 0.5},
                      approx_case{4, 6, 0.01}, approx_case{4, 6, 0.1}, approx_case{4, 6, 0.5},
                      approx_case{6, 4, 0.05}, approx_case{6, 4, 0.3},
                      approx_case{8, 3, 0.1}),
    [](const ::testing::TestParamInfo<approx_case>& info) {
      std::string name = "d";
      name += std::to_string(std::get<0>(info.param));
      name += "_k";
      name += std::to_string(std::get<1>(info.param));
      name += "_eps";
      name += std::to_string(static_cast<int>(std::get<2>(info.param) * 100));
      return name;
    });

}  // namespace
}  // namespace subcover
