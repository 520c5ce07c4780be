#include "geometry/point.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace subcover {
namespace {

TEST(Point, InitializerList) {
  const point p{1, 2, 3};
  EXPECT_EQ(p.dims(), 3);
  EXPECT_EQ(p[0], 1U);
  EXPECT_EQ(p[1], 2U);
  EXPECT_EQ(p[2], 3U);
}

TEST(Point, ZeroConstructed) {
  const point p(4);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(p[i], 0U);
}

TEST(Point, Mutation) {
  point p(2);
  p[1] = 77;
  EXPECT_EQ(p[1], 77U);
}

TEST(Point, DominatesReflexive) {
  const point p{5, 5};
  EXPECT_TRUE(p.dominates(p));
}

TEST(Point, DominatesCoordinateWise) {
  EXPECT_TRUE((point{5, 7}).dominates(point{5, 6}));
  EXPECT_TRUE((point{5, 7}).dominates(point{0, 0}));
  EXPECT_FALSE((point{5, 7}).dominates(point{6, 7}));
  EXPECT_FALSE((point{5, 7}).dominates(point{4, 8}));
}

TEST(Point, DominanceIsPartialOrder) {
  // Antisymmetry on a pair of incomparable points.
  const point a{1, 2};
  const point b{2, 1};
  EXPECT_FALSE(a.dominates(b));
  EXPECT_FALSE(b.dominates(a));
}

TEST(Point, DominatesDimsMismatchThrows) {
  EXPECT_THROW((void)(point{1, 2}).dominates(point{1}), std::invalid_argument);
}

TEST(Point, Inside) {
  const universe u(2, 4);  // coords in [0, 15]
  EXPECT_TRUE((point{0, 15}).inside(u));
  EXPECT_FALSE((point{0, 16}).inside(u));
  EXPECT_THROW((void)(point{1}).inside(u), std::invalid_argument);
}

TEST(Point, Equality) {
  EXPECT_EQ((point{1, 2}), (point{1, 2}));
  EXPECT_FALSE((point{1, 2}) == (point{2, 1}));
  EXPECT_FALSE((point{1, 2}) == (point{1}));
}

TEST(Point, ToString) { EXPECT_EQ((point{3, 5}).to_string(), "(3, 5)"); }

TEST(Point, RejectsTooManyDims) {
  EXPECT_THROW(point(kMaxDims + 1), std::invalid_argument);
}

}  // namespace
}  // namespace subcover
