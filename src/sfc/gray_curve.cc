#include "sfc/gray_curve.h"

#include <array>

#include "sfc/interleave.h"

namespace subcover {

template <class K>
K basic_gray_curve<K>::cube_prefix(const standard_cube& c) const {
  this->check_cube(c);
  const int d = this->space().dims();
  const int prefix_bits = this->space().bits() - c.side_bits();
  std::array<std::uint32_t, kMaxDims> top{};
  for (int i = 0; i < d; ++i)
    top[static_cast<std::size_t>(i)] = c.corner()[i] >> c.side_bits();
  return gray_decode(detail::interleave_bits<K>(top.data(), d, prefix_bits));
}

template <class K>
std::uint64_t basic_gray_curve<K>::child_rank(const K& parent_prefix, const curve_state& state,
                                              std::uint32_t child_mask) const {
  (void)state;
  const int d = this->space().dims();
  const std::uint64_t rank_mask = (d < 64 ? (std::uint64_t{1} << d) : 0) - 1;
  // Interleaved selection bits of the child (the Z rank of the mask).
  std::uint64_t z = 0;
  for (int j = 0; j < d; ++j)
    if ((child_mask >> j) & 1U) z |= std::uint64_t{1} << (d - 1 - j);
  // 64-bit XOR prefix scan == gray decode of the d-bit word.
  for (int shift = 1; shift < 64; shift <<= 1) z ^= z >> shift;
  const bool parent_odd = (key_traits<K>::low64(parent_prefix) & 1U) != 0;
  return (parent_odd ? ~z : z) & rank_mask;
}

template <class K>
std::optional<K> basic_gray_curve<K>::unit_cell_key(int dim, int bit) const {
  const int d = this->space().dims();
  return key_traits<K>::mask(d * bit + d - dim);
}

template <class K>
point basic_gray_curve<K>::cell_from_key(const K& key) const {
  this->check_key(key);
  const int d = this->space().dims();
  std::array<std::uint32_t, kMaxDims> coords{};
  detail::deinterleave_bits(gray_encode(key), coords.data(), d, this->space().bits());
  point p(d);
  for (int i = 0; i < d; ++i) p[i] = coords[static_cast<std::size_t>(i)];
  return p;
}

template class basic_gray_curve<std::uint64_t>;
template class basic_gray_curve<u128>;
template class basic_gray_curve<u512>;

}  // namespace subcover
