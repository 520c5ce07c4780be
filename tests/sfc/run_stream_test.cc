// Property tests for the streaming decomposition pipeline: cube_stream must
// emit the exact minimal partition in curve key order, and run_stream must
// emit exactly the maximal runs that the materializing region_runs() /
// merge_ranges() construction defines.
#include "sfc/runs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sfc/decomposition.h"
#include "util/random.h"

namespace subcover {
namespace {

rect random_rect(rng& gen, const universe& u) {
  point lo(u.dims());
  point hi(u.dims());
  for (int i = 0; i < u.dims(); ++i) {
    const auto a = gen.uniform(0, u.coord_max());
    const auto b = gen.uniform(0, u.coord_max());
    lo[i] = static_cast<std::uint32_t>(std::min(a, b));
    hi[i] = static_cast<std::uint32_t>(std::max(a, b));
  }
  return {lo, hi};
}

// The reference construction: materialize every cube range, then sort+merge.
std::vector<key_range> reference_runs(const curve& c, const rect& r) {
  std::vector<key_range> ranges;
  decompose_rect(c.space(), r, [&](const standard_cube& cube) {
    ranges.push_back(c.cube_range(cube));
  });
  return merge_ranges(ranges);
}

std::vector<key_range> streamed_runs(const curve& c, const rect& r) {
  run_stream stream(c, r);
  std::vector<key_range> runs;
  key_range run;
  while (stream.next(&run)) runs.push_back(run);
  return runs;
}

TEST(CubeStream, EmitsExactlyTheMinimalPartitionInKeyOrder) {
  rng gen(2024);
  for (const auto kind : {curve_kind::z_order, curve_kind::hilbert, curve_kind::gray_code}) {
    for (const int dims : {1, 2, 3}) {
      const universe u(dims, 5);
      const auto c = make_curve(kind, u);
      for (int trial = 0; trial < 25; ++trial) {
        const rect r = random_rect(gen, u);
        std::vector<standard_cube> expected;
        decompose_rect(u, r, [&](const standard_cube& cube) { expected.push_back(cube); });

        cube_stream stream(*c, r);
        std::vector<standard_cube> got;
        standard_cube cube;
        u512 prev_hi = 0;
        bool first = true;
        while (stream.next(&cube)) {
          const key_range kr = c->cube_range(cube);
          if (!first) {
            EXPECT_LT(prev_hi, kr.lo) << "cube ranges out of key order";
          }
          prev_hi = kr.hi;
          first = false;
          got.push_back(cube);
        }
        ASSERT_EQ(got.size(), expected.size())
            << curve_kind_name(kind) << " d=" << dims << " " << r.to_string();
        // Same multiset of cubes: compare as sorted key ranges.
        auto key_of = [&](const standard_cube& sc) { return c->cube_range(sc).lo; };
        std::sort(expected.begin(), expected.end(),
                  [&](const standard_cube& a, const standard_cube& b) {
                    return key_of(a) < key_of(b);
                  });
        EXPECT_EQ(got, expected);
      }
    }
  }
}

TEST(CubeStream, WholeUniverseIsTheRootCube) {
  const universe u(2, 4);
  const auto c = make_curve(curve_kind::z_order, u);
  cube_stream stream(*c, rect::whole(u));
  standard_cube cube;
  ASSERT_TRUE(stream.next(&cube));
  EXPECT_EQ(cube.side_bits(), u.bits());
  EXPECT_FALSE(stream.next(&cube));
}

TEST(CubeStream, ResetReusesTheStream) {
  const universe u(2, 6);
  const auto c = make_curve(curve_kind::hilbert, u);
  cube_stream stream(*c);
  rng gen(7);
  for (int trial = 0; trial < 10; ++trial) {
    const rect r = random_rect(gen, u);
    stream.reset(r);
    std::uint64_t n = 0;
    standard_cube cube;
    while (stream.next(&cube)) ++n;
    EXPECT_EQ(n, count_cubes(u, r)) << r.to_string();
  }
}

TEST(CubeStream, RejectsRegionOutsideUniverse) {
  const universe u(2, 4);
  const auto c = make_curve(curve_kind::z_order, u);
  cube_stream stream(*c);
  EXPECT_THROW(stream.reset(rect(point{0, 0}, point{16, 3})), std::invalid_argument);
}

TEST(RunStream, MatchesReferenceRunsOnRandomRects) {
  rng gen(99);
  for (const auto kind : {curve_kind::z_order, curve_kind::hilbert, curve_kind::gray_code}) {
    for (const int dims : {1, 2, 3, 4}) {
      const universe u(dims, dims <= 2 ? 6 : 4);
      const auto c = make_curve(kind, u);
      for (int trial = 0; trial < 25; ++trial) {
        const rect r = random_rect(gen, u);
        EXPECT_EQ(streamed_runs(*c, r), reference_runs(*c, r))
            << curve_kind_name(kind) << " d=" << dims << " " << r.to_string();
      }
    }
  }
}

TEST(RunStream, MatchesReferenceOnDegenerateThinRects) {
  // The "M x 1" worst case: unit thickness in one dimension, full extent in
  // the other — per-cell runs on most curves.
  const universe u(2, 6);
  for (const auto kind : {curve_kind::z_order, curve_kind::hilbert, curve_kind::gray_code}) {
    const auto c = make_curve(kind, u);
    for (std::uint32_t row = 0; row < 64; row += 13) {
      const rect r(point{0, row}, point{63, row});
      EXPECT_EQ(streamed_runs(*c, r), reference_runs(*c, r)) << curve_kind_name(kind);
    }
  }
}

TEST(RunStream, SingleCell) {
  const universe u(3, 3);
  const auto c = make_curve(curve_kind::gray_code, u);
  const rect r(point{1, 2, 3}, point{1, 2, 3});
  const auto runs = streamed_runs(*c, r);
  ASSERT_EQ(runs.size(), 1U);
  EXPECT_EQ(runs[0].lo, runs[0].hi);
  EXPECT_EQ(runs[0].lo, c->cell_key(point{1, 2, 3}));
}

TEST(RunStream, RegionRunsAndCountRunsAgree) {
  const universe u(2, 7);
  const auto c = make_curve(curve_kind::z_order, u);
  rng gen(41);
  for (int trial = 0; trial < 20; ++trial) {
    const rect r = random_rect(gen, u);
    const auto runs = region_runs(*c, r);
    EXPECT_EQ(count_runs(*c, r), runs.size());
    EXPECT_EQ(total_cells(runs), r.volume());
  }
}

TEST(DecomposeRect, BoolVisitorStopsEarly) {
  const universe u(2, 9);
  const rect r(point{255, 255}, point{511, 511});  // 514 cubes total
  std::uint64_t seen = 0;
  decompose_rect(u, r, [&](const standard_cube&) { return ++seen < 10; });
  EXPECT_EQ(seen, 10U);
}

}  // namespace
}  // namespace subcover
