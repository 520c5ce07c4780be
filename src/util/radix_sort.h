// radix_sort — linear-time sorts for query_plan's u64 level frontier.
//
// Both primitives are LSD radix sorts over 8-bit digits that visit only the
// bits where the keys actually differ. One read pass ORs every key's XOR
// with the first key; digits start at the lowest set bit of that mask, and
// a digit the mask shows constant across the whole column is skipped
// outright (no histogram, no scatter). So a level-i cube-low column — low
// d*i bits zero, every key below 2^(d*k) — pays only for its varying bits,
// and a run-extent column whose run lengths stay below 256 costs a single
// scatter pass. Every pass is a stable counting sort, so the result is
// exactly the comparison sort's: sort_u64 equals std::sort (equal keys are
// indistinguishable), and argsort_u64 equals std::stable_sort of the index
// permutation. At or below kSmallSort elements an insertion sort is cheaper
// than the histogram set-up and gives the same output.
//
// Scratch contract: callers own the scratch vectors and keep them across
// calls; they only ever grow, so a warm caller allocates nothing (the
// histograms live on the stack).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace subcover::radix {

inline constexpr std::size_t kSmallSort = 32;

enum class direction { ascending, descending };

namespace detail {

// Stably sorts data[0, n) by key(data[i]) in `dir` order: insertion sort
// at or below kSmallSort, else one LSD counting-sort pass per varying
// 8-bit digit. scratch is grown to n.
template <class T, class Key>
void stable_sort_by(T* data, std::size_t n, direction dir, std::vector<T>& scratch, Key key) {
  if (n <= kSmallSort) {
    for (std::size_t i = 1; i < n; ++i) {
      const T v = data[i];
      const std::uint64_t k = key(v);
      std::size_t j = i;
      for (; j > 0; --j) {
        const std::uint64_t prev = key(data[j - 1]);
        if (dir == direction::ascending ? !(k < prev) : !(prev < k)) break;
        data[j] = data[j - 1];
      }
      data[j] = v;
    }
    return;
  }
  // The digits that vary somewhere in the column, lowest first.
  const std::uint64_t k0 = key(data[0]);
  std::uint64_t diff = 0;
  for (std::size_t i = 1; i < n; ++i) diff |= key(data[i]) ^ k0;
  if (diff == 0) return;
  int shifts[8];
  int passes = 0;
  for (int s = std::countr_zero(diff); s < 64; s += 8)
    if (((diff >> s) & 0xff) != 0) shifts[passes++] = s;

  std::size_t count[8][256];
  for (int p = 0; p < passes; ++p) std::fill(count[p], count[p] + 256, std::size_t{0});
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = key(data[i]);
    for (int p = 0; p < passes; ++p) ++count[p][(k >> shifts[p]) & 0xff];
  }
  if (scratch.size() < n) scratch.resize(n);
  T* src = data;
  T* dst = scratch.data();
  for (int p = 0; p < passes; ++p) {
    // Per-digit counts -> scatter offsets, in `dir` order.
    std::size_t sum = 0;
    for (int b = 0; b < 256; ++b) {
      std::size_t& c = count[p][dir == direction::ascending ? b : 255 - b];
      const std::size_t digits = c;
      c = sum;
      sum += digits;
    }
    const int s = shifts[p];
    for (std::size_t i = 0; i < n; ++i) {
      const T v = src[i];
      dst[count[p][(key(v) >> s) & 0xff]++] = v;
    }
    std::swap(src, dst);
  }
  if (src != data) std::copy(src, src + n, data);
}

}  // namespace detail

// Sorts keys[0, n) ascending in place; scratch is grown to n.
inline void sort_u64(std::uint64_t* keys, std::size_t n, std::vector<std::uint64_t>& scratch) {
  detail::stable_sort_by(keys, n, direction::ascending, scratch,
                         [](std::uint64_t k) { return k; });
}

// order := the permutation of [0, n) listing keys[] in `dir` order, stably
// (equal keys keep ascending index order). Requires n <= UINT32_MAX;
// scratch is grown to n.
inline void argsort_u64(const std::uint64_t* keys, std::size_t n, direction dir,
                        std::vector<std::uint32_t>& order, std::vector<std::uint32_t>& scratch) {
  order.resize(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  detail::stable_sort_by(order.data(), n, dir, scratch,
                         [keys](std::uint32_t i) { return keys[i]; });
}

}  // namespace subcover::radix
