// Property tests pinning util/radix_sort.h to the comparison sorts it
// replaces: sort_u64 against std::sort, argsort_u64 against
// std::stable_sort of the index permutation, in both directions.
//
// Inputs cover both sides of the small-n insertion-sort cutoff, columns
// whose every digit is constant (nothing to scatter), columns where only
// one digit varies, keys spanning all 64 bits, the query plan's level-i
// cube-low shape (low bits zero, bounded above), and run-length extents
// whose maximum crosses 256 so a second digit pass is needed.

#include "util/radix_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
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

void expect_argsort_like_stable_sort(const column& keys, const std::string& what) {
  for (const auto dir : {radix::direction::ascending, radix::direction::descending}) {
    std::vector<std::uint32_t> expect(keys.size());
    std::iota(expect.begin(), expect.end(), 0U);
    std::stable_sort(expect.begin(), expect.end(), [&](std::uint32_t a, std::uint32_t b) {
      return dir == radix::direction::ascending ? keys[a] < keys[b] : keys[b] < keys[a];
    });
    std::vector<std::uint32_t> order, scratch;
    radix::argsort_u64(keys.data(), keys.size(), dir, order, scratch);
    EXPECT_EQ(order, expect) << what << (dir == radix::direction::ascending ? " asc" : " desc");
  }
}

void check_both(const column& keys, const std::string& what) {
  expect_sorted_like_std(keys, what);
  expect_argsort_like_stable_sort(keys, what);
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
    check_both(keys, "full-width n=" + std::to_string(n));
  }
}

TEST(RadixSort, ConstantColumnsSkipEveryPass) {
  for (const std::size_t n : kLengths)
    for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{0x0123456789abcdef},
                                  ~std::uint64_t{0}}) {
      check_both(column(n, v), "constant n=" + std::to_string(n));
    }
}

TEST(RadixSort, OneVaryingDigit) {
  // Every digit but one is constant across the column (a high constant
  // prefix above and a constant tail below), so exactly one pass runs.
  rng r(12);
  for (const std::size_t n : kLengths) {
    column keys(n);
    for (auto& k : keys) k = 0xdead'0000'0000'00ffULL | (r.uniform(0, 255) << 24);
    check_both(keys, "one digit n=" + std::to_string(n));
  }
}

TEST(RadixSort, DuplicatesAndPresortedInputs) {
  rng r(13);
  for (const std::size_t n : kLengths) {
    column keys(n);
    for (auto& k : keys) k = r.uniform(0, 5) << 40;  // heavy ties
    check_both(keys, "ties n=" + std::to_string(n));
    std::sort(keys.begin(), keys.end());
    check_both(keys, "ascending n=" + std::to_string(n));
    std::reverse(keys.begin(), keys.end());
    check_both(keys, "descending n=" + std::to_string(n));
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
        check_both(keys, "level dk=" + std::to_string(dk) + " low_zero=" +
                             std::to_string(low_zero) + " n=" + std::to_string(keys.size()));
      }
    }
  }
}

TEST(RadixSort, RunExtentsCrossingOneDigit) {
  // Replay-order keys: extents cnt * 2^s - 1 of runs cnt cubes long. Their
  // low s bits are all ones (skipped), and a maximum run length past 256
  // needs a second digit pass; lengths repeat, so stability decides ties.
  rng r(15);
  for (const int s : {0, 6, 20}) {
    for (const std::uint64_t max_len : {std::uint64_t{7}, std::uint64_t{255},
                                        std::uint64_t{256}, std::uint64_t{300},
                                        std::uint64_t{70000}}) {
      for (const std::size_t n : {std::size_t{10}, std::size_t{40}, std::size_t{1500}}) {
        column ext(n);
        for (auto& e : ext) e = (r.uniform(1, max_len) << s) - 1;
        ext[n / 2] = (max_len << s) - 1;  // make sure the maximum is present
        check_both(ext, "extents s=" + std::to_string(s) + " max=" + std::to_string(max_len) +
                            " n=" + std::to_string(n));
      }
    }
  }
}

TEST(RadixSort, ScratchIsReusedAcrossCalls) {
  // A caller keeping its scratch sees correct results as sizes shrink and
  // grow, and the scratch never shrinks.
  rng r(16);
  std::vector<std::uint64_t> scratch;
  std::vector<std::uint32_t> order, order_scratch;
  for (const std::size_t n : {std::size_t{500}, std::size_t{40}, std::size_t{900}, std::size_t{3}}) {
    column keys(n);
    for (auto& k : keys) k = r.uniform(0, 1u << 20);
    column expect = keys;
    std::sort(expect.begin(), expect.end());
    std::vector<std::uint32_t> expect_order(n);
    std::iota(expect_order.begin(), expect_order.end(), 0U);
    std::stable_sort(expect_order.begin(), expect_order.end(),
                     [&](std::uint32_t a, std::uint32_t b) { return keys[b] < keys[a]; });
    radix::argsort_u64(keys.data(), n, radix::direction::descending, order, order_scratch);
    EXPECT_EQ(order, expect_order) << n;
    const std::size_t before = scratch.size();
    radix::sort_u64(keys.data(), n, scratch);
    EXPECT_EQ(keys, expect) << n;
    EXPECT_GE(scratch.size(), before);
  }
}

}  // namespace
}  // namespace subcover
