// Space filling curve interface (paper Section 2).
//
// All supported curves (Z, Hilbert, Gray-code) are *recursive-partitioning*
// curves: the universe is bisected along every dimension k times, and the
// first d*l bits of a cell's key identify the level-l standard cube that
// contains it. Two consequences the rest of the library relies on:
//
//   * Fact 2.1 - a standard cube is a single run: its cells occupy exactly
//     the contiguous key interval [prefix << (d*s), (prefix+1) << (d*s) - 1]
//     where s = side_bits and prefix = cube_prefix(cube).
//   * The key order of cubes at a level equals the order of their prefixes.
//
// Implementations must be bijections between cells and [0, 2^(d*k)) and must
// satisfy the prefix property above; tests verify both exhaustively on small
// universes.
//
// Key-type contract: basic_curve is templated on the key type K (one of
// std::uint64_t, u128, u512 — see util/key_traits.h). An instantiation is
// only valid for universes with d*k <= key_traits<K>::kBits; the
// constructor enforces this. All instantiations of one curve kind compute
// the *same* curve — a narrow key equals the u512 key after widening
// (tests/sfc/key_width_equivalence_test.cc pins this down) — so narrowing
// is purely a constant-factor optimization selected at construction time
// (dominance_index picks the narrowest width that fits). `curve` remains
// the u512 alias the public API speaks.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "geometry/cube.h"
#include "geometry/point.h"
#include "geometry/universe.h"
#include "sfc/key_range.h"
#include "util/key_traits.h"
#include "util/wideint.h"

namespace subcover {

enum class curve_kind { z_order, hilbert, gray_code };

std::string_view curve_kind_name(curve_kind kind);

// Per-node descent state for the decomposition walk (cube_stream): the
// orientation of the curve inside a standard cube. Z derives child ranks
// from the selection mask alone and Gray from the parent prefix's parity,
// but Hilbert needs the accumulated rotation/reflection of the descent
// path; threading it through the stream frames is what lets Hilbert emit
// child key ranks in O(d) instead of recomputing a full cube_prefix per
// child. The fields are a signed permutation of the axes plus the
// Gray/Hilbert parity bit; curves that don't need them leave the state
// untouched.
struct curve_state {
  std::array<std::uint8_t, kMaxDims> perm{};  // axis i of the key reads coordinate perm[i]
  std::uint32_t flip = 0;                     // bit i: axis i of the key is inverted
  bool parity = false;                        // accumulated Gray parity of the path
};

template <class K>
class basic_curve {
 public:
  using key_type = K;
  using range_type = basic_key_range<K>;
  using traits = key_traits<K>;

  // Throws std::invalid_argument if the universe's keys (d*k bits) do not
  // fit the key type.
  explicit basic_curve(const universe& u);
  virtual ~basic_curve() = default;
  basic_curve(const basic_curve&) = delete;
  basic_curve& operator=(const basic_curve&) = delete;

  [[nodiscard]] const universe& space() const { return universe_; }
  [[nodiscard]] virtual curve_kind kind() const = 0;
  [[nodiscard]] std::string_view name() const { return curve_kind_name(kind()); }

  // The (d * (k - side_bits))-bit key prefix identifying the standard cube.
  // Throws std::invalid_argument if the cube lies outside the universe or has
  // mismatched dimensions.
  [[nodiscard]] virtual K cube_prefix(const standard_cube& c) const = 0;

  // --- descent-state API (drives cube_stream and the level-range
  // enumerator of extremal_decomposition.h) --------------------------------
  //
  // Both walks descend the partition tree top-down keeping, per frame, the
  // node's key prefix and its curve_state. For each child (identified by
  // `child_mask`: bit j set = upper half in dimension j) the curve reports
  // the child's key rank among its 2^d siblings — the low d bits of
  // cube_prefix(child), so child prefix == parent_prefix * 2^d + rank — and,
  // when the walk descends, the child's state. The rank is a pure function
  // of (parent_prefix, state, child_mask): no coordinates are involved,
  // which is what lets the query planner stay corner-free.

  // State of the root cube (the whole universe). Default: identity.
  virtual void init_state(curve_state& s) const;

  // The key rank of the child selected by `child_mask`. `parent_prefix`
  // must equal cube_prefix(parent) and `state` must be the parent's descent
  // state (Z and Gray ignore it: Z ranks from the mask alone, Gray from the
  // prefix's parity). All built-in curves implement this with O(d) bit
  // logic.
  [[nodiscard]] virtual std::uint64_t child_rank(const K& parent_prefix,
                                                 const curve_state& state,
                                                 std::uint32_t child_mask) const = 0;

  // Descent state of the child selected by `child_mask`. Default: copy the
  // parent's state (correct for curves that ignore it).
  virtual void descend_state(const curve_state& parent, std::uint32_t child_mask,
                             curve_state& child) const;

  // XOR-linearity hook (drives the level enumerator's rectangle
  // expansion, extremal_decomposition.h). A curve whose cell keys are
  // XOR-linear in the coordinate bits — cell_key(p ^ q) == cell_key(p) ^
  // cell_key(q) for all cells — returns the key of the cell whose only set
  // coordinate bit is bit `bit` of dimension `dim`; cube lows are then
  // linear too, so a free-bit flip moves a cube's low key by one XOR.
  // Default: std::nullopt ("not linear"), which keeps the per-cube
  // child_rank ladder. Requires 0 <= dim < d and 0 <= bit < k.
  [[nodiscard]] virtual std::optional<K> unit_cell_key(int dim, int bit) const;

  // Inverse of cell_key. The key must be < 2^(d*k).
  [[nodiscard]] virtual point cell_from_key(const K& key) const = 0;

  // Key of a unit cell (standard cube of side 1).
  [[nodiscard]] K cell_key(const point& p) const;

  // The contiguous key interval occupied by a standard cube (Fact 2.1).
  [[nodiscard]] range_type cube_range(const standard_cube& c) const;

 protected:
  // Shared precondition checking for cube_prefix implementations.
  void check_cube(const standard_cube& c) const;
  void check_key(const K& key) const;

 private:
  universe universe_;
};

using curve = basic_curve<u512>;

extern template class basic_curve<std::uint64_t>;
extern template class basic_curve<u128>;
extern template class basic_curve<u512>;

// Factory covering all built-in curves at the reference (u512) width.
std::unique_ptr<curve> make_curve(curve_kind kind, const universe& u);

// Same, at an explicit key width. The universe must fit K.
template <class K>
std::unique_ptr<basic_curve<K>> make_basic_curve(curve_kind kind, const universe& u);

extern template std::unique_ptr<basic_curve<std::uint64_t>> make_basic_curve(curve_kind,
                                                                             const universe&);
extern template std::unique_ptr<basic_curve<u128>> make_basic_curve(curve_kind, const universe&);
extern template std::unique_ptr<basic_curve<u512>> make_basic_curve(curve_kind, const universe&);

}  // namespace subcover
