// Property tests pinning util/radix_sort.h's sort_u64 to the std::sort it
// replaces.
//
// Inputs cover both sides of the small-n insertion-sort cutoff, columns
// whose every digit is constant (nothing to scatter), columns where only
// one digit varies, keys spanning all 64 bits, and the query plan's level-i
// cube-low shape (low bits zero, bounded above).

#include "util/radix_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "util/random.h"

namespace subcover {
namespace {

using column = std::vector<std::uint64_t>;

const std::size_t kLengths[] = {0,  1,  2,  3,  7,  16,  31,  32,  33,  34,
                                64, 65, 100, 255, 256, 257, 1000, 4097};

void expect_sorted_like_std(column keys, const std::string& what) {
  column expect = keys;
  std::sort(expect.begin(), expect.end());
  std::vector<std::uint64_t> scratch;
  radix::sort_u64(keys.data(), keys.size(), scratch);
  EXPECT_EQ(keys, expect) << what;
}

TEST(RadixSort, RandomFullWidthKeys) {
  rng r(11);
  for (const std::size_t n : kLengths) {
    column keys(n);
    for (auto& k : keys) k = r.next();
    // Force the top and bottom bits to vary so every digit pass runs.
    if (n >= 2) {
      keys[0] |= std::uint64_t{1} << 63;
      keys[1] &= ~std::uint64_t{1};
      keys[n - 1] |= 1;
    }
    expect_sorted_like_std(keys, "full-width n=" + std::to_string(n));
  }
}

TEST(RadixSort, ConstantColumnsSkipEveryPass) {
  for (const std::size_t n : kLengths)
    for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{0x0123456789abcdef},
                                  ~std::uint64_t{0}}) {
      expect_sorted_like_std(column(n, v), "constant n=" + std::to_string(n));
    }
}

TEST(RadixSort, OneVaryingDigit) {
  // Every digit but one is constant across the column (a high constant
  // prefix above and a constant tail below), so exactly one pass runs.
  rng r(12);
  for (const std::size_t n : kLengths) {
    column keys(n);
    for (auto& k : keys) k = 0xdead'0000'0000'00ffULL | (r.uniform(0, 255) << 24);
    expect_sorted_like_std(keys, "one digit n=" + std::to_string(n));
  }
}

TEST(RadixSort, DuplicatesAndPresortedInputs) {
  rng r(13);
  for (const std::size_t n : kLengths) {
    column keys(n);
    for (auto& k : keys) k = r.uniform(0, 5) << 40;  // heavy ties
    expect_sorted_like_std(keys, "ties n=" + std::to_string(n));
    std::sort(keys.begin(), keys.end());
    expect_sorted_like_std(keys, "ascending n=" + std::to_string(n));
    std::reverse(keys.begin(), keys.end());
    expect_sorted_like_std(keys, "descending n=" + std::to_string(n));
  }
}

TEST(RadixSort, LevelCubeLowShape) {
  // The query plan's level-i frontier: distinct lows with the low d*i bits
  // zero and every key below 2^(d*k).
  rng r(14);
  for (const int dk : {16, 40, 64}) {
    for (const int low_zero : {0, 4, 12}) {
      for (const std::size_t n : {std::size_t{20}, std::size_t{33}, std::size_t{700}}) {
        const int free_bits = dk - low_zero;
        column keys;
        for (std::size_t i = 0; keys.size() < n && i < 4 * n; ++i) {
          std::uint64_t cell = r.next();
          if (free_bits < 64) cell &= (std::uint64_t{1} << free_bits) - 1;
          keys.push_back(cell << low_zero);
        }
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
        r.shuffle(keys);
        expect_sorted_like_std(keys, "level dk=" + std::to_string(dk) + " low_zero=" +
                             std::to_string(low_zero) + " n=" + std::to_string(keys.size()));
      }
    }
  }
}

TEST(RadixSort, ScratchIsReusedAcrossCalls) {
  // A caller keeping its scratch sees correct results as sizes shrink and
  // grow, and the scratch never shrinks.
  rng r(16);
  std::vector<std::uint64_t> scratch;
  for (const std::size_t n : {std::size_t{500}, std::size_t{40}, std::size_t{900}, std::size_t{3}}) {
    column keys(n);
    for (auto& k : keys) k = r.uniform(0, 1u << 20);
    column expect = keys;
    std::sort(expect.begin(), expect.end());
    const std::size_t before = scratch.size();
    radix::sort_u64(keys.data(), n, scratch);
    EXPECT_EQ(keys, expect) << n;
    EXPECT_GE(scratch.size(), before);
  }
}

}  // namespace
}  // namespace subcover
