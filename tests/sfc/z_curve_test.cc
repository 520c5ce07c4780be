#include "sfc/z_curve.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace subcover {
namespace {

TEST(ZCurve, PaperInterleavingExample) {
  // Section 5: cell (3, 5) = (011, 101) has key (011011)_2 = 27.
  const universe u(2, 3);
  const z_curve z(u);
  EXPECT_EQ(z.cell_key(point{3, 5}), u512(27));
}

TEST(ZCurve, PaperSquareAExample) {
  // Section 5 / Figure 5(c): square "a" at coordinates (010, 011) has key
  // (001101)_2 = 13.
  const universe u(2, 3);
  const z_curve z(u);
  EXPECT_EQ(z.cell_key(point{2, 3}), u512(13));
}

TEST(ZCurve, OriginAndMaxCorner) {
  const universe u(3, 4);
  const z_curve z(u);
  EXPECT_EQ(z.cell_key(point{0, 0, 0}), u512::zero());
  EXPECT_EQ(z.cell_key(point{15, 15, 15}), u512::pow2(12) - 1);
}

TEST(ZCurve, FirstDimensionIsMostSignificant) {
  const universe u(2, 1);
  const z_curve z(u);
  // Order: (0,0) (0,1) (1,0) (1,1) -> keys 0,1,2,3.
  EXPECT_EQ(z.cell_key(point{0, 0}), u512(0));
  EXPECT_EQ(z.cell_key(point{0, 1}), u512(1));
  EXPECT_EQ(z.cell_key(point{1, 0}), u512(2));
  EXPECT_EQ(z.cell_key(point{1, 1}), u512(3));
}

TEST(ZCurve, RoundTrip2D) {
  const universe u(2, 4);
  const z_curve z(u);
  for (std::uint32_t x = 0; x < 16; ++x)
    for (std::uint32_t y = 0; y < 16; ++y) {
      const point p{x, y};
      EXPECT_EQ(z.cell_from_key(z.cell_key(p)), p);
    }
}

TEST(ZCurve, CubeRangeOfWholeUniverse) {
  const universe u(2, 4);
  const z_curve z(u);
  const auto r = z.cube_range(standard_cube(point{0, 0}, 4));
  EXPECT_EQ(r.lo, u512::zero());
  EXPECT_EQ(r.hi, u512::pow2(8) - 1);
}

TEST(ZCurve, CubeRangeQuadrants) {
  // In 2-D the four quadrants of the universe are the four quarters of the
  // key space, ordered (lo,lo), (lo,hi), (hi,lo), (hi,hi).
  const universe u(2, 4);
  const z_curve z(u);
  const int q = 6;  // 2 * 3 bits per quadrant... quadrant size = 2^(2*3)
  EXPECT_EQ(z.cube_range(standard_cube(point{0, 0}, 3)),
            key_range(u512(0), u512::pow2(q) - 1));
  EXPECT_EQ(z.cube_range(standard_cube(point{0, 8}, 3)),
            key_range(u512::pow2(q), u512::pow2(q).mul_u64(2) - 1));
  EXPECT_EQ(z.cube_range(standard_cube(point{8, 0}, 3)),
            key_range(u512::pow2(q).mul_u64(2), u512::pow2(q).mul_u64(3) - 1));
  EXPECT_EQ(z.cube_range(standard_cube(point{8, 8}, 3)),
            key_range(u512::pow2(q).mul_u64(3), u512::pow2(q).mul_u64(4) - 1));
}

TEST(ZCurve, FigureTwoBigCubeIsOneRun) {
  // Figure 2: in a 512x512 universe, the 256x256 corner-anchored square is a
  // standard cube and hence a single run.
  const universe u(2, 9);
  const z_curve z(u);
  const auto r = z.cube_range(standard_cube(point{256, 256}, 8));
  EXPECT_EQ(r.cell_count(), u512(65536));
}

TEST(ZCurve, RejectsCubeOutsideUniverse) {
  const universe u(2, 4);
  const z_curve z(u);
  EXPECT_THROW((void)z.cell_key(point{16, 0}), std::invalid_argument);
  EXPECT_THROW((void)z.cube_range(standard_cube(point{0, 0}, 5)), std::invalid_argument);
}

TEST(ZCurve, RejectsDimensionMismatch) {
  const universe u(2, 4);
  const z_curve z(u);
  EXPECT_THROW((void)z.cell_key(point{1, 2, 3}), std::invalid_argument);
}

TEST(ZCurve, RejectsOutOfRangeKey) {
  const universe u(2, 2);
  const z_curve z(u);
  EXPECT_THROW((void)z.cell_from_key(u512(16)), std::invalid_argument);
  EXPECT_EQ(z.cell_from_key(u512(15)), (point{3, 3}));
}

TEST(ZCurve, HighDimensionalKeyWidth) {
  const universe u(16, 8);  // 128-bit keys
  const z_curve z(u);
  point max_corner(16);
  for (int i = 0; i < 16; ++i) max_corner[i] = 255;
  EXPECT_EQ(z.cell_key(max_corner), u512::pow2(128) - 1);
  EXPECT_EQ(z.cell_from_key(u512::pow2(128) - 1), max_corner);
}

}  // namespace
}  // namespace subcover
