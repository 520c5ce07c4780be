// Z-order (Morton) space filling curve [Mor66].
//
// The key of a cell is the bit interleaving of its coordinates (paper
// Section 5): bit levels most-significant first, dimension 0 first within a
// level. The prefix of a standard cube is the interleaving of the top
// (k - side_bits) bits of its corner coordinates.
#pragma once

#include "sfc/curve.h"

namespace subcover {

template <class K>
class basic_z_curve final : public basic_curve<K> {
 public:
  explicit basic_z_curve(const universe& u) : basic_curve<K>(u) {}

  [[nodiscard]] curve_kind kind() const override { return curve_kind::z_order; }
  [[nodiscard]] K cube_prefix(const standard_cube& c) const override;
  [[nodiscard]] point cell_from_key(const K& key) const override;
  // O(d), stateless: the rank is the child-selection mask with dimension 0
  // moved to the most significant bit (the interleaving convention above).
  [[nodiscard]] std::uint64_t child_rank(const K& parent_prefix, const curve_state& state,
                                         std::uint32_t child_mask) const override;
  // Interleaving is the identity on bits: the single-bit corner's key is
  // the one key bit that coordinate bit lands on.
  [[nodiscard]] std::optional<K> unit_cell_key(int dim, int bit) const override;
};

using z_curve = basic_z_curve<u512>;

extern template class basic_z_curve<std::uint64_t>;
extern template class basic_z_curve<u128>;
extern template class basic_z_curve<u512>;

}  // namespace subcover
