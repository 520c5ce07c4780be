// key_traits: the one bit-manipulation vocabulary shared by the builtin key
// types and u512 (util/key_traits.h). Each operation must agree with the
// u512 reference semantics on the representable range — that is what lets
// the templated pipeline treat the three widths interchangeably.
#include "util/key_traits.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "util/random.h"

namespace subcover {
namespace {

template <class K>
class KeyTraitsTest : public testing::Test {};

using KeyTypes = testing::Types<std::uint64_t, u128, u512>;
TYPED_TEST_SUITE(KeyTraitsTest, KeyTypes);

TYPED_TEST(KeyTraitsTest, ZeroOneMax) {
  using T = key_traits<TypeParam>;
  EXPECT_TRUE(T::is_zero(T::zero()));
  EXPECT_FALSE(T::is_zero(T::one()));
  EXPECT_EQ(T::bit_width(T::zero()), 0);
  EXPECT_EQ(T::bit_width(T::one()), 1);
  EXPECT_EQ(T::bit_width(T::max()), T::kBits);
  EXPECT_EQ(T::countr_zero(T::zero()), T::kBits);
  EXPECT_EQ(T::countl_zero(T::zero()), T::kBits);
}

TYPED_TEST(KeyTraitsTest, Pow2MaskScan) {
  using T = key_traits<TypeParam>;
  for (int i = 0; i < T::kBits; ++i) {
    const TypeParam p = T::pow2(i);
    EXPECT_EQ(T::bit_width(p), i + 1) << i;
    EXPECT_EQ(T::countr_zero(p), i) << i;
    EXPECT_EQ(T::countl_zero(p), T::kBits - 1 - i) << i;
    EXPECT_EQ(T::bit_floor(p), p) << i;
    EXPECT_TRUE(T::test_bit(p, i)) << i;
    if (i > 0) {
      EXPECT_FALSE(T::test_bit(p, i - 1)) << i;
    }
    // mask(i) == pow2(i) - 1.
    EXPECT_EQ(T::mask(i), static_cast<TypeParam>(p - T::one())) << i;
  }
  EXPECT_EQ(T::mask(0), T::zero());
  EXPECT_EQ(T::mask(T::kBits), T::max());
}

TYPED_TEST(KeyTraitsTest, SetBitBuildsPow2) {
  using T = key_traits<TypeParam>;
  for (int i = 0; i < T::kBits; i += 7) {
    TypeParam v = T::zero();
    T::set_bit(v, i);
    EXPECT_EQ(v, T::pow2(i)) << i;
  }
}

TYPED_TEST(KeyTraitsTest, WidenTruncateRoundTrip) {
  using T = key_traits<TypeParam>;
  rng gen(7);
  for (int trial = 0; trial < 200; ++trial) {
    // A random value of the traits' width: random word spread to a random
    // bit position.
    const int shift = static_cast<int>(gen.uniform(0, T::kBits - 1));
    TypeParam v = static_cast<TypeParam>(gen.next());
    v = static_cast<TypeParam>(v << shift) | T::mask(shift % 13);
    const u512 wide = T::widen(v);
    EXPECT_EQ(T::truncate(wide), v);
    // Agreement with the u512 reference on every queried property.
    EXPECT_EQ(T::bit_width(v), wide.bit_width());
    EXPECT_EQ(T::is_zero(v), wide.is_zero());
    EXPECT_EQ(T::low64(v), wide.low64());
    if (!T::is_zero(v)) {
      EXPECT_EQ(T::countr_zero(v), wide.countr_zero());
    }
    EXPECT_EQ(T::widen(T::bit_floor(v)), wide.bit_floor());
    EXPECT_EQ(T::to_string(v), wide.to_string());
    EXPECT_DOUBLE_EQ(static_cast<double>(T::to_long_double(v)),
                     static_cast<double>(wide.to_long_double()));
  }
}

TEST(KeyWidth, Names) {
  EXPECT_STREQ(key_width_name(key_width::w64), "u64");
  EXPECT_STREQ(key_width_name(key_width::w128), "u128");
  EXPECT_STREQ(key_width_name(key_width::w512), "u512");
  EXPECT_STREQ(key_width_name(key_width::automatic), "auto");
}

}  // namespace
}  // namespace subcover
