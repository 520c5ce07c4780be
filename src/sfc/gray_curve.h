// Gray-code space filling curve [Fal86, Fal88].
//
// The cell whose interleaved coordinate bits form the word g is visited at
// position gray_decode(g) (the rank of g in the reflected Gray code).
// gray_decode is the XOR prefix scan, which is computed most-significant bit
// first, so the recursive-partitioning prefix property holds.
#pragma once

#include "sfc/curve.h"

namespace subcover {

// Reflected-Gray-code rank: the b such that b ^ (b >> 1) == g. The XOR
// prefix scan via doubling: after the loop, bit i equals the XOR of all
// original bits >= i.
template <class K>
K gray_decode(K g) {
  for (int shift = 1; shift < key_traits<K>::kBits; shift <<= 1) g ^= g >> shift;
  return g;
}

// Inverse: g = b ^ (b >> 1).
template <class K>
K gray_encode(const K& b) {
  return b ^ (b >> 1);
}

template <class K>
class basic_gray_curve final : public basic_curve<K> {
 public:
  explicit basic_gray_curve(const universe& u) : basic_curve<K>(u) {}

  [[nodiscard]] curve_kind kind() const override { return curve_kind::gray_code; }
  [[nodiscard]] K cube_prefix(const standard_cube& c) const override;
  [[nodiscard]] point cell_from_key(const K& key) const override;
  // O(d): with I the interleaved word of a prefix, decode(I)_i is the XOR of
  // I's bits >= i, so the low d decoded bits of a child are the d-bit gray
  // decode of its interleaved selection bits, flipped when the parent's
  // interleaved word has odd parity — and that parity is exactly the low bit
  // of the parent's (decoded) prefix.
  [[nodiscard]] std::uint64_t child_rank(const K& parent_prefix, const curve_state& state,
                                         std::uint32_t child_mask) const override;
  // gray_decode is an XOR prefix scan, hence linear: the single-bit
  // corner at interleaved position p decodes to the key bits [0, p].
  [[nodiscard]] std::optional<K> unit_cell_key(int dim, int bit) const override;
};

using gray_curve = basic_gray_curve<u512>;

extern template class basic_gray_curve<std::uint64_t>;
extern template class basic_gray_curve<u128>;
extern template class basic_gray_curve<u512>;

}  // namespace subcover
