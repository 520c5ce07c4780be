// Properties every recursive-partitioning SFC must satisfy (paper Section 2),
// verified for all three curves over a sweep of universes:
//   1. Bijectivity: cell keys are a permutation of [0, 2^(d*k)).
//   2. Prefix property / Fact 2.1: a standard cube's range is exactly the
//      min/max of its cells' keys and has the cube's cell count — i.e. every
//      standard cube is one run.
//   3. Nested cubes have nested ranges.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "sfc/curve.h"
#include "util/random.h"

namespace subcover {
namespace {

using curve_case = std::tuple<curve_kind, int, int>;  // kind, dims, bits

class CurveProperty : public ::testing::TestWithParam<curve_case> {
 protected:
  [[nodiscard]] universe space() const {
    return {std::get<1>(GetParam()), std::get<2>(GetParam())};
  }
  [[nodiscard]] std::unique_ptr<curve> make() const {
    return make_curve(std::get<0>(GetParam()), space());
  }
};

// Enumerate all cells of the universe via odometer increments.
template <typename Fn>
void for_each_cell(const universe& u, Fn&& fn) {
  point p(u.dims());
  while (true) {
    fn(p);
    int i = 0;
    while (i < u.dims()) {
      if (p[i] < u.coord_max()) {
        ++p[i];
        break;
      }
      p[i] = 0;
      ++i;
    }
    if (i == u.dims()) break;
  }
}

TEST_P(CurveProperty, BijectionOverUniverse) {
  const universe u = space();
  const auto c = make();
  const auto total = u.cell_count().low64();
  std::vector<bool> seen(total, false);
  for_each_cell(u, [&](const point& p) {
    const auto key = c->cell_key(p);
    ASSERT_LT(key.low64(), total);
    ASSERT_EQ(key.bit_width() <= u.key_bits(), true);
    ASSERT_FALSE(seen[key.low64()]) << "duplicate key for " << p.to_string();
    seen[key.low64()] = true;
  });
}

TEST_P(CurveProperty, RoundTrip) {
  const universe u = space();
  const auto c = make();
  for_each_cell(u, [&](const point& p) { ASSERT_EQ(c->cell_from_key(c->cell_key(p)), p); });
}

TEST_P(CurveProperty, StandardCubesAreSingleRuns) {
  const universe u = space();
  const auto c = make();
  // For every standard cube: range == [min key, max key] over its cells and
  // the range size equals the cube volume (Fact 2.1).
  for (int s = 0; s <= u.bits(); ++s) {
    const std::uint32_t step = 1U << s;
    point corner(u.dims());
    // Iterate cube corners via odometer with stride `step`.
    while (true) {
      const standard_cube cube(corner, s);
      const key_range range = c->cube_range(cube);
      ASSERT_EQ(range.cell_count(), cube.cell_count());
      // min/max check on the cube's cells (sampled corners + center for
      // speed; full check for small cubes).
      u512 min_key = u512::max();
      u512 max_key = 0;
      const rect box = cube.as_rect();
      for_each_cell(universe(u.dims(), std::max(1, s)), [&](const point& offset) {
        if (s == 0) return;
        point cell(u.dims());
        for (int i = 0; i < u.dims(); ++i) cell[i] = corner[i] + (offset[i] & (step - 1));
        const auto key = c->cell_key(cell);
        min_key = key < min_key ? key : min_key;
        max_key = max_key < key ? key : max_key;
        ASSERT_TRUE(range.contains(key)) << cube.to_string();
        ASSERT_TRUE(box.contains(cell));
      });
      if (s > 0) {
        ASSERT_EQ(min_key, range.lo) << cube.to_string();
        ASSERT_EQ(max_key, range.hi) << cube.to_string();
      } else {
        ASSERT_EQ(c->cell_key(corner), range.lo);
        ASSERT_EQ(range.lo, range.hi);
      }
      // Next corner.
      int i = 0;
      while (i < u.dims()) {
        if (corner[i] + step <= u.coord_max()) {
          corner[i] += step;
          break;
        }
        corner[i] = 0;
        ++i;
      }
      if (i == u.dims()) break;
    }
  }
}

TEST_P(CurveProperty, NestedCubesHaveNestedRanges) {
  const universe u = space();
  const auto c = make();
  rng gen(5);
  for (int trial = 0; trial < 200; ++trial) {
    point p(u.dims());
    for (int i = 0; i < u.dims(); ++i)
      p[i] = static_cast<std::uint32_t>(gen.uniform(0, u.coord_max()));
    for (int s = 1; s <= u.bits(); ++s) {
      const auto inner = c->cube_range(standard_cube::containing(p, s - 1));
      const auto outer = c->cube_range(standard_cube::containing(p, s));
      ASSERT_LE(outer.lo, inner.lo);
      ASSERT_LE(inner.hi, outer.hi);
    }
  }
}

// The XOR-linearity hook: a curve that reports unit_cell_key returns the
// key of each single-bit corner, and its keys really are XOR-linear — the
// key of any cell is the XOR of its set bits' unit keys. Z and Gray report
// it; Hilbert does not.
TEST_P(CurveProperty, UnitCellKeysSpanTheCurve) {
  const universe u = space();
  const auto c = make();
  const curve_kind kind = std::get<0>(GetParam());
  const bool linear = c->unit_cell_key(0, 0).has_value();
  ASSERT_EQ(linear, kind != curve_kind::hilbert);
  if (!linear) return;
  for_each_cell(u, [&](const point& p) {
    u512 expected;
    for (int x = 0; x < u.dims(); ++x) {
      for (int y = 0; y < u.bits(); ++y) {
        if (((p[x] >> y) & 1U) == 0) continue;
        const auto unit = c->unit_cell_key(x, y);
        ASSERT_TRUE(unit.has_value());
        point single(u.dims());
        single[x] = std::uint32_t{1} << y;
        ASSERT_EQ(*unit, c->cell_key(single)) << "dim " << x << " bit " << y;
        expected ^= *unit;
      }
    }
    ASSERT_EQ(c->cell_key(p), expected) << p.to_string();
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllCurves, CurveProperty,
    ::testing::Values(curve_case{curve_kind::z_order, 1, 4}, curve_case{curve_kind::z_order, 2, 3},
                      curve_case{curve_kind::z_order, 2, 4}, curve_case{curve_kind::z_order, 3, 2},
                      curve_case{curve_kind::z_order, 4, 2}, curve_case{curve_kind::z_order, 6, 1},
                      curve_case{curve_kind::hilbert, 1, 4}, curve_case{curve_kind::hilbert, 2, 3},
                      curve_case{curve_kind::hilbert, 2, 4}, curve_case{curve_kind::hilbert, 3, 2},
                      curve_case{curve_kind::hilbert, 4, 2}, curve_case{curve_kind::hilbert, 6, 1},
                      curve_case{curve_kind::gray_code, 1, 4},
                      curve_case{curve_kind::gray_code, 2, 3},
                      curve_case{curve_kind::gray_code, 2, 4},
                      curve_case{curve_kind::gray_code, 3, 2},
                      curve_case{curve_kind::gray_code, 4, 2},
                      curve_case{curve_kind::gray_code, 6, 1}),
    [](const ::testing::TestParamInfo<curve_case>& info) {
      std::string name(curve_kind_name(std::get<0>(info.param)));
      for (auto& ch : name)
        if (ch == '-') ch = '_';
      return name + "_d" + std::to_string(std::get<1>(info.param)) + "_k" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace subcover
