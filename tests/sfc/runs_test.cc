#include "sfc/runs.h"

#include <gtest/gtest.h>

#include "sfc/decomposition.h"
#include "util/random.h"

namespace subcover {
namespace {

std::array<std::uint64_t, kMaxDims> lengths(std::initializer_list<std::uint64_t> ls) {
  std::array<std::uint64_t, kMaxDims> a{};
  std::size_t i = 0;
  for (const auto l : ls) a[i++] = l;
  return a;
}

TEST(MergeRanges, Empty) { EXPECT_TRUE(merge_ranges({}).empty()); }

TEST(MergeRanges, DisjointStaySeparate) {
  const auto merged = merge_ranges({{u512(10), u512(20)}, {u512(30), u512(40)}});
  ASSERT_EQ(merged.size(), 2U);
  EXPECT_EQ(merged[0], key_range(u512(10), u512(20)));
  EXPECT_EQ(merged[1], key_range(u512(30), u512(40)));
}

TEST(MergeRanges, AdjacentCoalesce) {
  const auto merged = merge_ranges({{u512(21), u512(30)}, {u512(10), u512(20)}});
  ASSERT_EQ(merged.size(), 1U);
  EXPECT_EQ(merged[0], key_range(u512(10), u512(30)));
}

TEST(MergeRanges, OverlappingCoalesce) {
  const auto merged = merge_ranges({{u512(10), u512(25)}, {u512(20), u512(30)}});
  ASSERT_EQ(merged.size(), 1U);
  EXPECT_EQ(merged[0], key_range(u512(10), u512(30)));
}

TEST(MergeRanges, NestedAbsorbed) {
  const auto merged = merge_ranges({{u512(10), u512(100)}, {u512(20), u512(30)}});
  ASSERT_EQ(merged.size(), 1U);
  EXPECT_EQ(merged[0], key_range(u512(10), u512(100)));
}

TEST(MergeRanges, GapOfOneDoesNotCoalesce) {
  const auto merged = merge_ranges({{u512(10), u512(20)}, {u512(22), u512(30)}});
  EXPECT_EQ(merged.size(), 2U);
}

TEST(MergeRanges, AtMaximumKeyNoOverflow) {
  const auto merged = merge_ranges({{u512::max() - 5, u512::max()}, {u512(0), u512(1)}});
  EXPECT_EQ(merged.size(), 2U);
}

TEST(MergeRanges, TotalCellsPreserved) {
  rng gen(3);
  std::vector<key_range> ranges;
  u512 expected = 0;
  std::uint64_t cursor = 0;
  for (int i = 0; i < 100; ++i) {
    cursor += gen.uniform(2, 50);  // leave gaps
    const std::uint64_t len = gen.uniform(1, 20);
    ranges.push_back({u512(cursor), u512(cursor + len - 1)});
    expected += len;
    cursor += len;
  }
  gen.shuffle(ranges);
  EXPECT_EQ(total_cells(merge_ranges(ranges)), expected);
}

TEST(KeyRange, RejectsInverted) {
  EXPECT_THROW(key_range(u512(2), u512(1)), std::invalid_argument);
}

TEST(Runs, FigureOneHilbertBeatsZ) {
  // Figure 1: there exist rectangles where Hilbert needs 2 runs and Z needs
  // 3. Find one in an 8x8 universe.
  const universe u(2, 3);
  const auto z = make_curve(curve_kind::z_order, u);
  const auto h = make_curve(curve_kind::hilbert, u);
  bool found = false;
  for (std::uint32_t x0 = 0; x0 < 8 && !found; ++x0)
    for (std::uint32_t y0 = 0; y0 < 8 && !found; ++y0)
      for (std::uint32_t x1 = x0; x1 < 8 && !found; ++x1)
        for (std::uint32_t y1 = y0; y1 < 8 && !found; ++y1) {
          const rect r(point{x0, y0}, point{x1, y1});
          if (count_runs(*h, r) == 2 && count_runs(*z, r) == 3) found = true;
        }
  EXPECT_TRUE(found);
}

TEST(Runs, FigureTwoAlignedSquareIsOneRun) {
  const universe u(2, 9);
  const auto z = make_curve(curve_kind::z_order, u);
  const extremal_rect r(u, lengths({256, 256}));
  EXPECT_EQ(count_runs(*z, r), 1U);
}

TEST(Runs, FigureTwoShiftedSquare) {
  // Figure 2 / Section 3.1: the 257x257 corner square needs 385 runs on the
  // Z curve, and its largest run covers more than 99% of the region.
  const universe u(2, 9);
  const auto z = make_curve(curve_kind::z_order, u);
  const extremal_rect r(u, lengths({257, 257}));
  const auto runs = region_runs(*z, r);
  EXPECT_EQ(runs.size(), 385U);
  u512 largest = 0;
  for (const auto& run : runs)
    if (largest < run.cell_count()) largest = run.cell_count();
  const double frac = largest.to_double() / r.volume_ld();
  EXPECT_GT(frac, 0.99);
}

TEST(Runs, RunsNeverExceedCubes) {
  // Lemma 3.1 for every curve over random rectangles.
  const universe u(2, 6);
  rng gen(31);
  for (const auto kind : {curve_kind::z_order, curve_kind::hilbert, curve_kind::gray_code}) {
    const auto c = make_curve(kind, u);
    for (int trial = 0; trial < 40; ++trial) {
      point lo(2);
      point hi(2);
      for (int i = 0; i < 2; ++i) {
        const auto a = gen.uniform(0, 63);
        const auto b = gen.uniform(0, 63);
        lo[i] = static_cast<std::uint32_t>(std::min(a, b));
        hi[i] = static_cast<std::uint32_t>(std::max(a, b));
      }
      const rect r(lo, hi);
      EXPECT_LE(count_runs(*c, r), count_cubes(u, r)) << r.to_string();
    }
  }
}

TEST(Runs, RunsTileTheRegionExactly) {
  const universe u(2, 5);
  const auto h = make_curve(curve_kind::hilbert, u);
  rng gen(37);
  for (int trial = 0; trial < 30; ++trial) {
    point lo(2);
    point hi(2);
    for (int i = 0; i < 2; ++i) {
      const auto a = gen.uniform(0, 31);
      const auto b = gen.uniform(0, 31);
      lo[i] = static_cast<std::uint32_t>(std::min(a, b));
      hi[i] = static_cast<std::uint32_t>(std::max(a, b));
    }
    const rect r(lo, hi);
    const auto runs = region_runs(*h, r);
    EXPECT_EQ(total_cells(runs), r.volume());
    // Every key in every run maps back into the rectangle.
    for (const auto& run : runs) {
      EXPECT_TRUE(r.contains(h->cell_from_key(run.lo)));
      EXPECT_TRUE(r.contains(h->cell_from_key(run.hi)));
    }
    // Runs are maximal: the cells just outside each run are outside r.
    for (const auto& run : runs) {
      if (!run.lo.is_zero()) {
        EXPECT_FALSE(r.contains(h->cell_from_key(run.lo - 1)));
      }
      if (run.hi != u.cell_count() - 1) {
        EXPECT_FALSE(r.contains(h->cell_from_key(run.hi + 1)));
      }
    }
  }
}

TEST(Runs, WholeUniverseIsOneRunOnEveryCurve) {
  const universe u(3, 3);
  for (const auto kind : {curve_kind::z_order, curve_kind::hilbert, curve_kind::gray_code}) {
    const auto c = make_curve(kind, u);
    EXPECT_EQ(count_runs(*c, rect::whole(u)), 1U) << curve_kind_name(kind);
  }
}

TEST(Runs, HilbertNeverWorseThanTwiceZOnAverage) {
  // [MJFS01]: Z and Hilbert run counts are within a constant factor. Sanity
  // check the aggregate over random rectangles.
  const universe u(2, 6);
  const auto z = make_curve(curve_kind::z_order, u);
  const auto h = make_curve(curve_kind::hilbert, u);
  rng gen(41);
  std::uint64_t total_z = 0;
  std::uint64_t total_h = 0;
  for (int trial = 0; trial < 100; ++trial) {
    point lo(2);
    point hi(2);
    for (int i = 0; i < 2; ++i) {
      const auto a = gen.uniform(0, 63);
      const auto b = gen.uniform(0, 63);
      lo[i] = static_cast<std::uint32_t>(std::min(a, b));
      hi[i] = static_cast<std::uint32_t>(std::max(a, b));
    }
    const rect r(lo, hi);
    total_z += count_runs(*z, r);
    total_h += count_runs(*h, r);
  }
  EXPECT_LT(total_h, 2 * total_z);
  EXPECT_LT(total_z, 2 * total_h);
}

}  // namespace
}  // namespace subcover
