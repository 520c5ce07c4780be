#include "util/wideint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "util/random.h"

namespace subcover {
namespace {

TEST(U512, DefaultIsZero) {
  u512 v;
  EXPECT_TRUE(v.is_zero());
  EXPECT_EQ(v.bit_width(), 0);
  EXPECT_EQ(v.to_string(), "0");
}

TEST(U512, FromU64) {
  u512 v = 42;
  EXPECT_FALSE(v.is_zero());
  EXPECT_EQ(v.low64(), 42U);
  EXPECT_EQ(v.to_string(), "42");
  EXPECT_EQ(v.to_hex(), "2a");
}

TEST(U512, AdditionWithCarryAcrossWords) {
  u512 v = ~std::uint64_t{0};  // 2^64 - 1
  v += 1;
  EXPECT_EQ(v.word(0), 0U);
  EXPECT_EQ(v.word(1), 1U);
  EXPECT_EQ(v.bit_width(), 65);
}

TEST(U512, SubtractionWithBorrowAcrossWords) {
  u512 v = u512::pow2(128);
  v -= 1;
  EXPECT_EQ(v.word(0), ~std::uint64_t{0});
  EXPECT_EQ(v.word(1), ~std::uint64_t{0});
  EXPECT_EQ(v.word(2), 0U);
  EXPECT_EQ(v.bit_width(), 128);
}

TEST(U512, WrapAroundSubtraction) {
  u512 v = 0;
  v -= 1;
  EXPECT_EQ(v, u512::max());
}

TEST(U512, WrapAroundAddition) {
  u512 v = u512::max();
  ++v;
  EXPECT_TRUE(v.is_zero());
}

TEST(U512, IncrementDecrement) {
  u512 v = 7;
  EXPECT_EQ((v++).low64(), 7U);
  EXPECT_EQ(v.low64(), 8U);
  EXPECT_EQ((++v).low64(), 9U);
  EXPECT_EQ((v--).low64(), 9U);
  EXPECT_EQ((--v).low64(), 7U);
}

TEST(U512, ShiftLeftAcrossWordBoundaries) {
  u512 v = 1;
  v <<= 200;
  EXPECT_TRUE(v.bit(200));
  EXPECT_EQ(v.popcount(), 1);
  EXPECT_EQ(v.bit_width(), 201);
}

TEST(U512, ShiftRoundTrip) {
  rng gen(99);
  for (int trial = 0; trial < 50; ++trial) {
    u512 v = gen.next();
    const int shift = static_cast<int>(gen.uniform(0, 447));
    EXPECT_EQ((v << shift) >> shift, v) << "shift=" << shift;
  }
}

TEST(U512, ShiftByWidthClearsValue) {
  u512 v = u512::max();
  EXPECT_TRUE((v << 512).is_zero());
  EXPECT_TRUE((v >> 512).is_zero());
}

TEST(U512, ShiftByZeroIsIdentity) {
  u512 v = u512::pow2(100) | u512(12345);
  EXPECT_EQ(v << 0, v);
  EXPECT_EQ(v >> 0, v);
}

TEST(U512, CompareAcrossWords) {
  EXPECT_LT(u512(5), u512(6));
  EXPECT_LT(u512::pow2(64) - 1, u512::pow2(64));
  EXPECT_LT(u512::pow2(100), u512::pow2(101));
  EXPECT_GT(u512::pow2(300), u512::max() >> 300);
  EXPECT_EQ(u512(7), u512(7));
}

TEST(U512, Pow2AndMask) {
  EXPECT_EQ(u512::pow2(0), u512::one());
  EXPECT_EQ(u512::pow2(10).to_string(), "1024");
  EXPECT_EQ(u512::mask(0), u512::zero());
  EXPECT_EQ(u512::mask(10), u512(1023));
  EXPECT_EQ(u512::mask(512), u512::max());
  EXPECT_THROW(u512::pow2(512), std::invalid_argument);
  EXPECT_THROW(u512::pow2(-1), std::invalid_argument);
  EXPECT_THROW(u512::mask(513), std::invalid_argument);
}

TEST(U512, BitManipulation) {
  u512 v;
  v.set_bit(300);
  EXPECT_TRUE(v.bit(300));
  EXPECT_FALSE(v.bit(299));
  v.set_bit(300, false);
  EXPECT_TRUE(v.is_zero());
  EXPECT_THROW((void)v.bit(512), std::invalid_argument);
  EXPECT_THROW(v.set_bit(-1), std::invalid_argument);
}

TEST(U512, BitwiseOps) {
  const u512 a = u512(0b1100) | u512::pow2(100);
  const u512 b = u512(0b1010) | u512::pow2(100);
  EXPECT_EQ((a & b).low64(), 0b1000U);
  EXPECT_TRUE((a & b).bit(100));
  EXPECT_EQ((a ^ b).low64(), 0b0110U);
  EXPECT_FALSE((a ^ b).bit(100));
  EXPECT_EQ((~u512::zero()), u512::max());
}

TEST(U512, MulU64) {
  EXPECT_EQ(u512(7).mul_u64(6).to_string(), "42");
  // (2^64 - 1)^2 = 2^128 - 2^65 + 1.
  const u512 prod = u512(~std::uint64_t{0}).mul_u64(~std::uint64_t{0});
  EXPECT_EQ(prod, u512::pow2(128) - u512::pow2(65) + u512::one());
}

TEST(U512, DivU64) {
  std::uint64_t rem = 0;
  EXPECT_EQ(u512(100).div_u64(7, &rem).low64(), 14U);
  EXPECT_EQ(rem, 2U);
  EXPECT_THROW((void)u512(1).div_u64(0), std::invalid_argument);
}

TEST(U512, MulDivRoundTrip) {
  rng gen(7);
  for (int trial = 0; trial < 50; ++trial) {
    u512 v = gen.next();
    v <<= static_cast<int>(gen.uniform(0, 300));
    const std::uint64_t m = gen.uniform(1, 1'000'000'000);
    std::uint64_t rem = 1;
    EXPECT_EQ(v.mul_u64(m).div_u64(m, &rem), v);
    EXPECT_EQ(rem, 0U);
  }
}

TEST(U512, DecimalStringLarge) {
  // 2^128 = 340282366920938463463374607431768211456.
  EXPECT_EQ(u512::pow2(128).to_string(), "340282366920938463463374607431768211456");
}

TEST(U512, HexString) {
  EXPECT_EQ(u512::zero().to_hex(), "0");
  EXPECT_EQ(u512(255).to_hex(), "ff");
  EXPECT_EQ(u512::pow2(64).to_hex(), "10000000000000000");
}

TEST(U512, ToDouble) {
  EXPECT_DOUBLE_EQ(u512(1000).to_double(), 1000.0);
  EXPECT_DOUBLE_EQ(u512::pow2(100).to_double(), std::pow(2.0, 100));
}

TEST(U512, PopcountBitWidth) {
  u512 v = u512::mask(300);
  EXPECT_EQ(v.popcount(), 300);
  EXPECT_EQ(v.bit_width(), 300);
}

TEST(U512, HashDistinguishes) {
  std::unordered_set<u512> set;
  for (int i = 0; i < 1000; ++i) set.insert(u512::pow2(i % 512) + u512(static_cast<std::uint64_t>(i)));
  EXPECT_GT(set.size(), 990U);  // essentially all distinct
}

TEST(U512, CountrZero) {
  EXPECT_EQ(u512::zero().countr_zero(), 512);
  EXPECT_EQ(u512::one().countr_zero(), 0);
  EXPECT_EQ(u512(8).countr_zero(), 3);
  for (int i = 0; i < 512; i += 17) EXPECT_EQ(u512::pow2(i).countr_zero(), i) << i;
  // Low zeros are counted even when higher bits are set.
  EXPECT_EQ((u512::pow2(300) | u512::pow2(65)).countr_zero(), 65);
  EXPECT_EQ(u512::max().countr_zero(), 0);
}

TEST(U512, CountlZero) {
  EXPECT_EQ(u512::zero().countl_zero(), 512);
  EXPECT_EQ(u512::one().countl_zero(), 511);
  for (int i = 0; i < 512; i += 31) EXPECT_EQ(u512::pow2(i).countl_zero(), 511 - i) << i;
  EXPECT_EQ(u512::max().countl_zero(), 0);
}

TEST(U512, BitFloor) {
  EXPECT_TRUE(u512::zero().bit_floor().is_zero());
  EXPECT_EQ(u512::one().bit_floor(), u512::one());
  EXPECT_EQ(u512(5).bit_floor(), u512(4));
  EXPECT_EQ(u512::max().bit_floor(), u512::pow2(511));
  EXPECT_EQ((u512::pow2(200) + u512(12345)).bit_floor(), u512::pow2(200));
  for (int i = 0; i < 512; i += 13) EXPECT_EQ(u512::pow2(i).bit_floor(), u512::pow2(i)) << i;
}

TEST(U512, OrderingIsTotalOnRandomValues) {
  rng gen(123);
  for (int trial = 0; trial < 100; ++trial) {
    u512 a = gen.next();
    a <<= static_cast<int>(gen.uniform(0, 400));
    u512 b = gen.next();
    b <<= static_cast<int>(gen.uniform(0, 400));
    const bool lt = a < b;
    const bool gt = b < a;
    const bool eq = a == b;
    EXPECT_EQ(static_cast<int>(lt) + static_cast<int>(gt) + static_cast<int>(eq), 1);
    // Consistency with subtraction: a < b iff b - a != 0 and doesn't wrap.
    if (lt) {
      EXPECT_FALSE((b - a).is_zero());
    }
  }
}

}  // namespace
}  // namespace subcover
