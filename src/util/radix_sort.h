// radix_sort — a linear-time sort for query_plan's u64 level frontier:
// the cube lows of a Hilbert level, whose keys arrive in counting order.
// (The runs are ranked by counting over chain lengths, not sorted.)
//
// sort_u64 is an LSD radix sort over 8-bit digits that visits only the
// bits where the keys actually differ. One read pass ORs every key's XOR
// with the first key; digits start at the lowest set bit of that mask, and
// a digit the mask shows constant across the whole column is skipped
// outright (no histogram, no scatter). So a level-i cube-low column — low
// d*i bits zero, every key below 2^(d*k) — pays only for its varying bits.
// Every pass is a stable counting sort, so the result equals std::sort's.
// At or below kSmallSort elements an insertion sort is cheaper than the
// histogram set-up and gives the same output.
//
// Scratch contract: callers own the scratch vector and keep it across
// calls; it only ever grows, so a warm caller allocates nothing (the
// histograms live on the stack).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace subcover::radix {

inline constexpr std::size_t kSmallSort = 32;

// Sorts keys[0, n) ascending in place: insertion sort at or below
// kSmallSort, else one LSD counting-sort pass per varying 8-bit digit.
// scratch is grown to n.
inline void sort_u64(std::uint64_t* keys, std::size_t n, std::vector<std::uint64_t>& scratch) {
  if (n <= kSmallSort) {
    for (std::size_t i = 1; i < n; ++i) {
      const std::uint64_t k = keys[i];
      std::size_t j = i;
      for (; j > 0 && k < keys[j - 1]; --j) keys[j] = keys[j - 1];
      keys[j] = k;
    }
    return;
  }
  // The digits that vary somewhere in the column, lowest first.
  std::uint64_t diff = 0;
  for (std::size_t i = 1; i < n; ++i) diff |= keys[i] ^ keys[0];
  if (diff == 0) return;
  int shifts[8];
  int passes = 0;
  for (int s = std::countr_zero(diff); s < 64; s += 8)
    if (((diff >> s) & 0xff) != 0) shifts[passes++] = s;

  std::size_t count[8][256];
  for (int p = 0; p < passes; ++p) std::fill(count[p], count[p] + 256, std::size_t{0});
  for (std::size_t i = 0; i < n; ++i)
    for (int p = 0; p < passes; ++p) ++count[p][(keys[i] >> shifts[p]) & 0xff];
  if (scratch.size() < n) scratch.resize(n);
  std::uint64_t* src = keys;
  std::uint64_t* dst = scratch.data();
  for (int p = 0; p < passes; ++p) {
    // Per-digit counts -> scatter offsets.
    std::size_t sum = 0;
    for (std::size_t& c : count[p]) {
      const std::size_t digits = c;
      c = sum;
      sum += digits;
    }
    const int s = shifts[p];
    for (std::size_t i = 0; i < n; ++i) dst[count[p][(src[i] >> s) & 0xff]++] = src[i];
    std::swap(src, dst);
  }
  if (src != keys) std::copy(src, src + n, keys);
}

}  // namespace subcover::radix
