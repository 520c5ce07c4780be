#include "sfc/curve.h"

#include <numeric>
#include <stdexcept>

#include "sfc/gray_curve.h"
#include "sfc/hilbert_curve.h"
#include "sfc/z_curve.h"

namespace subcover {

std::string_view curve_kind_name(curve_kind kind) {
  switch (kind) {
    case curve_kind::z_order:
      return "z-order";
    case curve_kind::hilbert:
      return "hilbert";
    case curve_kind::gray_code:
      return "gray-code";
  }
  return "unknown";
}

template <class K>
basic_curve<K>::basic_curve(const universe& u) : universe_(u) {
  if (u.key_bits() > traits::kBits)
    throw std::invalid_argument("basic_curve: universe keys wider than the key type");
}

template <class K>
void basic_curve<K>::init_state(curve_state& s) const {
  std::iota(s.perm.begin(), s.perm.begin() + space().dims(), std::uint8_t{0});
  s.flip = 0;
  s.parity = false;
}

template <class K>
K basic_curve<K>::cell_key(const point& p) const {
  return cube_prefix(standard_cube(p, 0));
}

template <class K>
void basic_curve<K>::descend_state(const curve_state& parent, std::uint32_t child_mask,
                                   curve_state& child) const {
  (void)child_mask;
  child = parent;
}

template <class K>
std::optional<K> basic_curve<K>::unit_cell_key(int dim, int bit) const {
  (void)dim;
  (void)bit;
  return std::nullopt;
}

template <class K>
typename basic_curve<K>::range_type basic_curve<K>::cube_range(const standard_cube& c) const {
  const int shift = space().dims() * c.side_bits();
  // shift == kBits only for the whole-universe cube (prefix 0, range all
  // keys); the explicit branch keeps the builtin-key shift in range.
  if (shift >= traits::kBits) {
    check_cube(c);
    return {traits::zero(), traits::mask(space().key_bits())};
  }
  const K lo = cube_prefix(c) << shift;
  return {lo, lo | traits::mask(shift)};
}

template <class K>
void basic_curve<K>::check_cube(const standard_cube& c) const {
  if (c.dims() != space().dims())
    throw std::invalid_argument("curve: cube dimension mismatch");
  if (c.side_bits() > space().bits())
    throw std::invalid_argument("curve: cube larger than the universe");
  for (int i = 0; i < c.dims(); ++i)
    if (c.corner()[i] > space().coord_max())
      throw std::invalid_argument("curve: cube outside the universe");
}

template <class K>
void basic_curve<K>::check_key(const K& key) const {
  if (traits::bit_width(key) > space().key_bits())
    throw std::invalid_argument("curve: key out of range");
}

template class basic_curve<std::uint64_t>;
template class basic_curve<u128>;
template class basic_curve<u512>;

template <class K>
std::unique_ptr<basic_curve<K>> make_basic_curve(curve_kind kind, const universe& u) {
  switch (kind) {
    case curve_kind::z_order:
      return std::make_unique<basic_z_curve<K>>(u);
    case curve_kind::hilbert:
      return std::make_unique<basic_hilbert_curve<K>>(u);
    case curve_kind::gray_code:
      return std::make_unique<basic_gray_curve<K>>(u);
  }
  throw std::invalid_argument("make_curve: unknown curve kind");
}

template std::unique_ptr<basic_curve<std::uint64_t>> make_basic_curve(curve_kind,
                                                                      const universe&);
template std::unique_ptr<basic_curve<u128>> make_basic_curve(curve_kind, const universe&);
template std::unique_ptr<basic_curve<u512>> make_basic_curve(curve_kind, const universe&);

std::unique_ptr<curve> make_curve(curve_kind kind, const universe& u) {
  return make_basic_curve<u512>(kind, u);
}

}  // namespace subcover
