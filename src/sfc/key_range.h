// A run on a space filling curve: a closed interval [lo, hi] of SFC keys.
//
// The cost model of the paper counts runs: probing whether any indexed point
// falls inside a run takes two comparisons in the SFC array regardless of the
// run's extent (Section 2), so query cost == number of runs probed.
//
// The interval is templated on the key type (key_traits.h): basic_key_range
// over std::uint64_t or u128 is what the narrow-key query pipeline sorts,
// coalesces and probes, at one or two machine words per endpoint instead of
// u512's eight. `key_range` remains the u512 alias the public API speaks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/key_traits.h"
#include "util/wideint.h"

namespace subcover {

template <class K>
struct basic_key_range {
  using key_type = K;

  K lo{};
  K hi{};  // inclusive

  basic_key_range() = default;
  // Throws std::invalid_argument if lo > hi.
  basic_key_range(K lo_in, K hi_in) : lo(lo_in), hi(hi_in) {
    if (lo > hi) throw std::invalid_argument("key_range: lo > hi");
  }

  [[nodiscard]] K cell_count() const { return hi - lo + key_traits<K>::one(); }
  [[nodiscard]] long double cell_count_ld() const {
    // hi - lo never wraps, so compute from the difference: the +1 would
    // overflow to 0 for the full-universe range at the narrow widths.
    return key_traits<K>::to_long_double(hi - lo) + 1.0L;
  }
  [[nodiscard]] bool contains(const K& key) const { return lo <= key && key <= hi; }
  [[nodiscard]] std::string to_string() const {
    // Appended to one string: GCC 12 flags `"literal" + std::string&&`
    // with a false-positive -Wrestrict.
    std::string s = "[";
    s += key_traits<K>::to_string(lo);
    s += ", ";
    s += key_traits<K>::to_string(hi);
    s += "]";
    return s;
  }

  friend bool operator==(const basic_key_range&, const basic_key_range&) = default;
};

using key_range = basic_key_range<u512>;

// Coalesces overlapping or back-to-back adjacent ranges (hi + 1 == next.lo)
// within the given buffer: sort by lo + in-place compaction, no allocation
// beyond the buffer's existing capacity. The hot query path uses this on its
// reusable scratch. The result is the minimal set of disjoint maximal runs
// covering exactly the union of the inputs.
template <class K>
void merge_ranges_inplace(std::vector<basic_key_range<K>>& ranges) {
  if (ranges.empty()) return;
  using range = basic_key_range<K>;
  std::sort(ranges.begin(), ranges.end(),
            [](const range& a, const range& b) { return a.lo < b.lo; });
  std::size_t out = 0;  // ranges[0..out] is the merged prefix
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    range& last = ranges[out];
    const range cur = ranges[i];
    // Adjacent (last.hi + 1 == cur.lo) or overlapping ranges coalesce.
    // Guard the +1 against wrap-around at the maximum key.
    const bool adjacent =
        last.hi != key_traits<K>::max() && last.hi + key_traits<K>::one() >= cur.lo;
    if (adjacent || cur.lo <= last.hi) {
      if (last.hi < cur.hi) last.hi = cur.hi;
    } else {
      ranges[++out] = cur;
    }
  }
  ranges.resize(out + 1);
}

// Same, returning the merged buffer (sorted by lo, disjoint, maximal).
template <class K>
std::vector<basic_key_range<K>> merge_ranges(std::vector<basic_key_range<K>> ranges) {
  merge_ranges_inplace(ranges);
  return ranges;
}

// Concrete u512 overload so braced-initializer calls keep deducing.
inline std::vector<key_range> merge_ranges(std::vector<key_range> ranges) {
  merge_ranges_inplace(ranges);
  return ranges;
}

// Total cells covered by a set of disjoint ranges.
template <class K>
K total_cells(const std::vector<basic_key_range<K>>& ranges) {
  K total = key_traits<K>::zero();
  for (const auto& r : ranges) total += r.cell_count();
  return total;
}

// The three key widths are pre-instantiated in key_range.cc; every other TU
// links against those copies instead of re-instantiating the merge kernels.
#define SUBCOVER_KEY_RANGE_EXTERN(K)                                              \
  extern template struct basic_key_range<K>;                                      \
  extern template void merge_ranges_inplace(std::vector<basic_key_range<K>>&);    \
  extern template std::vector<basic_key_range<K>> merge_ranges(                   \
      std::vector<basic_key_range<K>>);                                           \
  extern template K total_cells(const std::vector<basic_key_range<K>>&);
SUBCOVER_KEY_RANGE_EXTERN(std::uint64_t)
SUBCOVER_KEY_RANGE_EXTERN(u128)
SUBCOVER_KEY_RANGE_EXTERN(u512)
#undef SUBCOVER_KEY_RANGE_EXTERN

}  // namespace subcover
