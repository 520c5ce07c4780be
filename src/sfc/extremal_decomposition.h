// Decomposition machinery specialized to extremal rectangles R(l):
// the paper's level sets D_i, the exact per-level cube counts of Lemma 3.5,
// and the enumeration Algorithms 1-3 of Section 5 / Appendix A.
//
// The greedy partition of R(l) is structured (Lemma 3.4): cubes of side 2^i
// exist only for levels i where some side length has bit i set (indicator
// O_i), and the cubes of side >= 2^i tile exactly the extremal rectangle
// R(S_i(l)). This lets the query engine enumerate cubes strictly in
// descending volume order (the search order of the Section 5 algorithm) and
// lets benches compute cube counts in closed form without enumeration.
//
// Corner-free architecture: the enumerator keeps the Equation-1 corner as a
// set of *bit planes* — one d-bit child-selection mask per tree level — and
// walks Algorithms 1-3 by toggling individual plane bits (a chosen-bit move
// is one XOR per changed plane). Each Algorithm-2 rectangle — the
// Equation-1 base planes plus its list of free bits — is handed to the
// emitter whole, together with how many of its cubes to emit. Two emitters
// consume the rectangles:
//
//   * enumerate_level_ranges(curve, r, i, visit) — the query hot path. A
//     per-level (prefix, curve_state) stack is maintained through the
//     curve's child_rank/descend_state API, and only the levels below the
//     highest toggled bit are recomputed (a dirty watermark). Rectangle
//     expansion contract: on a curve that reports XOR-linear keys
//     (basic_curve::unit_cell_key — Z and Gray), that ladder runs once per
//     rectangle, for the base low; free bit (x, y) then moves the low by
//     the constant delta unit_cell_key(x, y) & ~level_mask, so the
//     rectangle's cubes follow in counting order at one XOR each
//     (lo ^= prefix_xor[ctz(mask) + 1]), stopping mid-rectangle when the
//     visitor or the budget says so. Any other curve (Hilbert) toggles the
//     free-bit planes and reruns the ladder per cube, O(d) amortized. Both
//     forms work at every key width. Each cube is emitted directly as its
//     Fact 2.1 key interval basic_key_range<K>: no standard_cube, no corner
//     coordinate arrays, no wide-integer cube_prefix recomputation.
//
//   * enumerate_level_cubes(u, r, i, visit) — the curve-independent
//     standard_cube view over the same walk (tests, benches, closed-form
//     cross-checks). Both emitters visit cubes in the identical Algorithm
//     1-3 order: pinned dimension ascending, chosen-bit vectors P in
//     lexicographic order (dimension-major, bits descending), then free-bit
//     combinations in counting order (dimension-major, positions ascending,
//     least significant fastest).
//
// Sorted-segment contract (lo_emitter, the query planner's column sink):
// on an XOR-linear curve it emits the same cube set per rectangle — the
// first `count` cubes in counting order — but as key-ascending segments,
// recording where each segment starts in its segment list. A rectangle is
// one segment; a rectangle cut by the budget or the visitor is
// popcount(count) segments, one per aligned counting block. The planner
// then merges the segments instead of sorting the level's lows. On any
// other curve lo_emitter keeps the Algorithm 1-3 order like range_emitter
// and cube_emitter. A visitor that stops inside a
// rectangle sees a counting-order prefix only in that order; in segments it
// sees some subset of the rectangle (the planner stops exactly where the
// walk's count ends, so it always takes the whole counting prefix).
//
// Enumeration is push-style with a template visitor (no std::function, no
// heap allocation: the enumerator's scratch is fixed-size). A visitor
// returning bool can stop a level cleanly by returning false — that is how
// the query planner takes exactly the number of cubes it needs from a level
// without exception-based control flow.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "geometry/extremal.h"
#include "geometry/universe.h"
#include "sfc/curve.h"
#include "sfc/decomposition.h"
#include "sfc/key_range.h"
#include "util/bitops.h"
#include "util/check.h"
#include "util/key_traits.h"
#include "util/wideint.h"

namespace subcover {

// O_i of Lemma 3.4: true iff some side length of r has bit i set.
bool level_occupied(const extremal_rect& r, int i);

// Exact |D_i| for every i in [0, k] via the Lemma 3.5 closed form
//   N_i = (prod_j S_i(l_j) - prod_j S_{i+1}(l_j)) / 2^(i*d).
// result[i] = number of cubes of side 2^i in the minimal partition of R(l).
std::vector<u512> extremal_level_counts(const universe& u, const extremal_rect& r);

// Same, writing into a caller-owned buffer (resized to k + 1) so repeated
// queries reuse its capacity instead of reallocating.
void extremal_level_counts_into(const universe& u, const extremal_rect& r,
                                std::vector<u512>& out);

// cubes(R(l)): total size of the minimal partition, exact.
u512 extremal_cube_count(const universe& u, const extremal_rect& r);

namespace detail {

// Implements Algorithms 1-3 (Appendix A) for one level i over the bit-plane
// representation of Equation 1. The Emitter is any callable taking
// `(level_walk&, std::uint64_t count)` and returning bool ("continue?"): it
// is called once per Algorithm-2 rectangle, with the planes at the
// rectangle's Equation-1 base (every free bit zero), and must emit the
// rectangle's first `count` cubes in counting order — either by deriving
// them from the free-bit list (free_bit) or through for_each_cube, which
// toggles the free-bit planes cube by cube. It reads the walk's planes
// (child masks per tree level), per-dimension corner bits, and the dirty
// watermark — the highest tree level whose plane changed since the
// previous emission. The walk charges `count` against the cube budget and
// throws once a rectangle would exceed it.
template <class Emitter>
class level_walk {
 public:
  level_walk(const universe& u, const extremal_rect& r, int i, Emitter& emit,
             std::uint64_t max_cubes)
      : u_(u),
        r_(r),
        i_(i),
        emit_(emit),
        max_cubes_(max_cubes),
        window_((u.bits() < 64 ? (std::uint64_t{1} << u.bits()) : 0) -
                (std::uint64_t{1} << i)),
        dirty_(u.bits() - 1) {}

  void run() {
    // Algorithm 1: each rectangle of D_i has exactly one lowest-index
    // dimension s whose chosen bit P_s equals i.
    for (int s = 0; s < u_.dims() && !stopped_; ++s) {
      if (bit_at(r_.length(s), i_)) {
        pin_ = s;
        enum_rectangles(0);
      }
    }
  }

  // --- state read by emitters ----------------------------------------------
  // planes()[y] for y in [i, k): bit x = corner bit y of dimension x — the
  // child-selection mask of the descent step producing side-2^y nodes.
  [[nodiscard]] const std::uint32_t* planes() const { return planes_.data(); }
  // Corner coordinate of dimension x (bits below i are zero by alignment).
  [[nodiscard]] std::uint64_t corner_bits(int x) const {
    return corner_[static_cast<std::size_t>(x)];
  }
  // Highest tree level whose plane changed since the last emission (k - 1 on
  // the first emission: everything must be computed).
  [[nodiscard]] int dirty() const { return dirty_; }
  [[nodiscard]] int level() const { return i_; }
  // Free bit b of the current rectangle as a (dimension, coordinate bit)
  // pair — dimension-major, positions ascending, so free bit b is bit b of
  // the counting-order mask. Valid for b < log2 of the rectangle's size.
  [[nodiscard]] std::pair<int, int> free_bit(std::size_t b) const { return free_bits_[b]; }

  // Per-cube form of an emission: calls `f()` (returning bool, "continue?")
  // at each of the current rectangle's first `count` cubes, toggling only
  // the planes of the free bits that change between consecutive masks. The
  // walk clears the toggled bits once the emission returns.
  template <class F>
  bool for_each_cube(std::uint64_t count, F&& f) {
    for (std::uint64_t mask = 0;;) {
      const bool go = f();
      dirty_ = i_ - 1;  // nothing changed since this emission (yet)
      if (!go) return false;
      if (++mask == count) {
        toggled_ = count - 1;  // the last mask's set bits are the toggled ones
        return true;
      }
      // Counting step mask-1 -> mask flips a trailing block of free bits.
      flip_free(mask ^ (mask - 1));
    }
  }

 private:
  // Upper bound on free bit positions across all dimensions: at most k + 1
  // chosen-bit positions per side length, kMaxDims side lengths.
  static constexpr std::size_t kMaxFreeBits =
      static_cast<std::size_t>(kMaxDims) * (kMaxBitsPerDim + 1);

  void toggle(int x, int y) {
    planes_[static_cast<std::size_t>(y)] ^= std::uint32_t{1} << x;
    corner_[static_cast<std::size_t>(x)] ^= std::uint64_t{1} << y;
    if (y > dirty_) dirty_ = y;
  }

  // Rewrites dimension x's corner bits to `target` (bits within the [i, k)
  // window), toggling exactly the planes that differ.
  void set_dim(int x, std::uint64_t target) {
    std::uint64_t diff = corner_[static_cast<std::size_t>(x)] ^ target;
    if (diff == 0) return;
    const int top = bit_length(diff) - 1;
    if (top > dirty_) dirty_ = top;
    corner_[static_cast<std::size_t>(x)] = target;
    const std::uint32_t bit = std::uint32_t{1} << x;
    do {
      planes_[static_cast<std::size_t>(trailing_zeros(diff))] ^= bit;
      diff &= diff - 1;
    } while (diff != 0);
  }

  // Equation 1 base corner of dimension x with chosen bit P_x == j: bits
  // above j are the complement of the side length, bit j is 1, free bits
  // [i, j) start at 0. When l_x == 2^k the chosen bit j == k lies outside
  // the k-bit coordinate; the window mask drops it.
  [[nodiscard]] std::uint64_t base_for(std::uint64_t len, int j) const {
    return (keep_bits_from(~len, j + 1) | (std::uint64_t{1} << j)) & window_;
  }

  void choose(int t, int j) {
    p_[static_cast<std::size_t>(t)] = j;
    set_dim(t, base_for(r_.length(t), j));
  }

  // Algorithm 3 (EnumRectangles): choose a set bit P_t of l_t per dimension.
  // Dimensions before the pinned one must choose bits > i (uniqueness);
  // dimensions after it may choose bits >= i; the pinned one takes exactly i.
  void enum_rectangles(int t) {
    if (stopped_) return;
    if (t == u_.dims()) {
      comp_keys();
      return;
    }
    if (t == pin_) {
      choose(t, i_);
      enum_rectangles(t + 1);
      return;
    }
    const std::uint64_t len = r_.length(t);
    const int lowest = t < pin_ ? i_ + 1 : i_;
    for (int j = bit_length(len) - 1; j >= lowest && !stopped_; --j) {
      if (bit_at(len, j)) {
        choose(t, j);
        enum_rectangles(t + 1);
      }
    }
  }

  // Toggles the free bits selected by `bits` (bit b = free bit b).
  void flip_free(std::uint64_t bits) {
    for (; bits != 0; bits &= bits - 1) {
      const auto [x, y] = free_bits_[static_cast<std::size_t>(trailing_zeros(bits))];
      toggle(x, y);
    }
  }

  // Algorithm 2 (CompKeys) via Equation 1: hand the rectangle indexed by P
  // — base planes plus free-bit list — to the emitter, which enumerates its
  // free-bit combinations in counting order.
  void comp_keys() {
    std::size_t nfree = 0;
    for (int x = 0; x < u_.dims(); ++x) {
      const int px = p_[static_cast<std::size_t>(x)];
      for (int y = i_; y < px; ++y) free_bits_[nfree++] = {x, y};
    }
    // A rectangle holds 2^nfree cubes; saturate the counter for nfree >= 64 —
    // the per-call cube budget stops enumeration long before overflow.
    const std::uint64_t combos =
        nfree >= 64 ? ~std::uint64_t{0} : std::uint64_t{1} << nfree;
    // emitted_ <= max_cubes_ always holds here: a rectangle that would
    // overrun the budget throws below instead of being counted.
    const std::uint64_t count = std::min(combos, max_cubes_ - emitted_);
    if (count > 0) {
      const bool go = emit_(*this, count);
      dirty_ = i_ - 1;  // nothing changed since this emission (yet)
      if (!go) {
        stopped_ = true;
        return;
      }
      emitted_ += count;
      // Back to the Equation-1 base, so the next rectangle's chosen-bit
      // moves diff against it; the toggles raise the watermark they dirty.
      flip_free(std::exchange(toggled_, 0));
    }
    if (count < combos) throw std::length_error("enumerate_level_cubes: cube budget exceeded");
  }

  const universe& u_;
  const extremal_rect& r_;
  const int i_;
  Emitter& emit_;
  const std::uint64_t max_cubes_;
  const std::uint64_t window_;  // coordinate bits in [i, k)
  int pin_ = 0;
  int dirty_;
  bool stopped_ = false;
  std::uint64_t emitted_ = 0;
  std::array<std::uint32_t, kMaxBitsPerDim> planes_{};
  std::array<std::uint64_t, kMaxDims> corner_{};
  std::array<int, kMaxDims> p_{};
  // Free bits of the current rectangle, dimension-major, positions
  // ascending. Deliberately not value-initialized: only the first `nfree`
  // slots of a comp_keys pass are ever read, and zeroing ~8 KiB per level
  // would dominate small levels.
  std::array<std::pair<int, int>, kMaxFreeBits> free_bits_;
  std::uint64_t toggled_ = 0;  // free bits for_each_cube left set
};

// Turns the bit planes into Equation-1 cube keys at the curve's width.
// Keeps one (prefix, state) pair per tree level and recomputes only levels
// at or below the walk's dirty watermark, so a free-bit flip near the
// bottom of the tree costs O(d) — no corner arrays, no cube_prefix.
//
// A tracker is reusable across walks (set_level rebinds it): every fresh
// level_walk starts with its watermark at k-1, which forces a full prefix
// recomputation on the first emission, so stale per-level caches are never
// read. query_plan exploits this to construct one emitter per query rather
// than one per level (the state stack's initialization is not free).
//
// The tracker is the shared ladder under both emitters below: range_emitter
// materializes full [lo, hi] intervals, lo_emitter hands the visitor just
// the cube's low key. At a fixed level every cube's extent is the constant
// level_mask(), so a consumer that keeps column scratch (query_plan's
// struct-of-arrays frontier) needs only the lows — the his are lo | mask,
// derived in bulk after enumeration. expand() is the one rectangle
// expansion both emitters share.
template <class K>
class prefix_tracker {
 public:
  prefix_tracker(const basic_curve<K>& c, int i)
      : curve_(&c),
        i_(i),
        k_(c.space().bits()),
        d_(c.space().dims()),
        linear_(k_ > 0 && c.unit_cell_key(0, 0).has_value()),
        // Z derives child ranks from the selection mask alone and Gray from
        // the parent prefix's parity, so only those two skip the per-level
        // state stack. curve_kind is a closed enum every basic_curve must
        // report, so an unlisted (future) curve defaults to the safe side:
        // state is threaded (correct for any curve, merely slower).
        track_state_(c.kind() != curve_kind::z_order && c.kind() != curve_kind::gray_code) {
    c.init_state(root_state_);
    if (track_state_ && k_ > 0) state_[static_cast<std::size_t>(k_ - 1)] = root_state_;
  }

  // Retargets the tracker at another level of the same region family.
  void set_level(int i) { i_ = i; }

  // True iff the curve's cube lows are XOR-linear (expand_sorted applies).
  [[nodiscard]] bool linear() const { return linear_; }

  // Extent of every cube at the current level: hi == lo | level_mask().
  [[nodiscard]] K level_mask() const { return key_traits<K>::mask(d_ * std::min(i_, k_)); }

  // The current cube's low key (Equation 1 prefix shifted to the level).
  template <class Walk>
  K lo(const Walk& w) {
    const std::uint32_t* planes = w.planes();
    for (int y = std::min(w.dirty(), k_ - 1); y >= i_; --y) {
      const std::size_t yi = static_cast<std::size_t>(y);
      const curve_state& st = track_state_ ? state_[yi] : root_state_;
      const K above = y == k_ - 1 ? key_traits<K>::zero() : prefix_[yi + 1];
      const std::uint64_t rank = curve_->child_rank(above, st, planes[yi]);
      prefix_[yi] = (above << d_) | K(rank);
      if (track_state_ && y > i_) curve_->descend_state(st, planes[yi], state_[yi - 1]);
    }
    if (i_ >= k_) return key_traits<K>::zero();  // the whole-universe cube
    return prefix_[static_cast<std::size_t>(i_)] << (d_ * i_);
  }

  // Emits the lows of the walk's current rectangle's first `count` cubes,
  // in counting order, to `sink` (K -> bool, "continue?"). On an XOR-linear
  // curve the ladder runs once, for the base low, and each further cube is
  // one XOR: the counting step to `mask` flips free bits 0..ctz(mask), whose
  // combined delta is prefix_xor_[ctz(mask) + 1]. Only the free bits below
  // bit_width(count - 1) ever flip — at most 64 — so that many deltas are
  // built. Any other curve reruns the ladder per cube.
  template <class Walk, class Sink>
  bool expand(Walk& w, std::uint64_t count, Sink& sink) {
    if (!linear_) return w.for_each_cube(count, [&] { return sink(lo(w)); });
    K cube = lo(w);
    const auto flips = static_cast<std::size_t>(bit_length(count - 1));
    const K keep = ~level_mask();
    for (std::size_t b = 0; b < flips; ++b) {
      const auto [x, y] = w.free_bit(b);
      prefix_xor_[b + 1] = prefix_xor_[b] ^ (*curve_->unit_cell_key(x, y) & keep);
    }
    for (std::uint64_t mask = 0;;) {
      if (!sink(cube)) return false;
      if (++mask == count) return true;
      cube ^= prefix_xor_[static_cast<std::size_t>(trailing_zeros(mask)) + 1];
    }
  }

  // Key-order form of expand, XOR-linear curves only: emits the same cubes
  // (the rectangle's first `count` in counting order) as popcount(count)
  // key-ascending segments, calling `start(n)` before each segment of n
  // cubes. The counting prefix [0, count) is the union of one aligned block
  // per set bit j of count: the masks that agree with count above bit j,
  // have bit j clear, and leave the bits below j free. A block's lows form
  // an affine subspace, its base low XOR the span of free-bit deltas
  // 0..j-1. With those deltas in reduced echelon form sorted by leading bit
  // (red_, each zero at every other's leading bit), the subspace's members
  // ascend exactly as their leading-bit selections count up. So the walk
  // starts at the minimum (every leading bit of the base cleared by its
  // reduced delta) and steps lo ^= reduced prefix XOR[ctz(step) + 1]. Z's
  // deltas are distinct single bits and reduce to themselves; Gray's, the
  // bits [d*i, p), reduce to the bits [p_prev, p).
  template <class Walk, class Sink, class Start>
  bool expand_sorted(Walk& w, std::uint64_t count, Sink& sink, Start& start) {
    const K keep = ~level_mask();
    // Blocks need the deltas below their own bit plus those of count's set
    // bits above it; the top bit of a power-of-two count is never fixed.
    const int top = bit_length(count) - 1;
    const int ndelta = is_pow2(count) ? top : top + 1;
    K fixed = key_traits<K>::zero();  // deltas of count's set bits above the block
    for (int b = 0; b < ndelta; ++b) {
      const auto [x, y] = w.free_bit(static_cast<std::size_t>(b));
      delta_[static_cast<std::size_t>(b)] = *curve_->unit_cell_key(x, y) & keep;
      if (((count >> b) & 1U) != 0) fixed ^= delta_[static_cast<std::size_t>(b)];
    }
    const K base = lo(w);
    int rank = 0;  // deltas reduced into red_ so far
    for (std::uint64_t blocks = count; blocks != 0; blocks &= blocks - 1) {
      const int j = trailing_zeros(blocks);
      if (j < ndelta) fixed ^= delta_[static_cast<std::size_t>(j)];
      for (; rank < j; ++rank) reduce_in(delta_[static_cast<std::size_t>(rank)], rank);
      K cube = base ^ fixed;
      for (std::size_t t = 0; t < static_cast<std::size_t>(j); ++t) {
        if (key_traits<K>::test_bit(cube, pivot_[t])) cube ^= red_[t];
        prefix_xor_[t + 1] = prefix_xor_[t] ^ red_[t];
      }
      const std::uint64_t n = std::uint64_t{1} << j;
      start(n);
      for (std::uint64_t step = 0;;) {
        if (!sink(cube)) return false;
        if (++step == n) break;
        cube ^= prefix_xor_[static_cast<std::size_t>(trailing_zeros(step)) + 1];
      }
    }
    return true;
  }

 private:
  // Adds delta v to the reduced basis red_[0, rank) (ascending leading
  // bits pivot_, each vector zero at every other's pivot), keeping that
  // form: clear v at the existing pivots, clear v's own leading bit from the
  // vectors that hold it, and insert v in pivot order. v stays nonzero
  // because distinct cubes have distinct lows (the deltas are independent).
  void reduce_in(K v, int rank) {
    const auto n = static_cast<std::size_t>(rank);
    for (std::size_t t = 0; t < n; ++t)
      if (key_traits<K>::test_bit(v, pivot_[t])) v ^= red_[t];
    const int p = key_traits<K>::bit_width(v) - 1;
    for (std::size_t t = 0; t < n; ++t)
      if (key_traits<K>::test_bit(red_[t], p)) red_[t] ^= v;
    std::size_t t = n;
    for (; t > 0 && pivot_[t - 1] > p; --t) {
      red_[t] = red_[t - 1];
      pivot_[t] = pivot_[t - 1];
    }
    red_[t] = v;
    pivot_[t] = p;
  }

  const basic_curve<K>* curve_;
  int i_;
  const int k_;
  const int d_;
  const bool linear_;  // the curve reports unit_cell_key: cube lows are XOR-linear
  const bool track_state_;
  curve_state root_state_;
  // state_[y]: descent state entering tree level y (valid above the dirty
  // watermark); prefix_[y]: cube prefix including level y's digits.
  std::array<curve_state, kMaxBitsPerDim> state_;
  std::array<K, kMaxBitsPerDim> prefix_;
  // prefix_xor_[b]: XOR of the low-key deltas of free bits 0..b-1 of the
  // current rectangle, or of reduced deltas 0..b-1 in expand_sorted (entry 0
  // is the empty XOR).
  std::array<K, 65> prefix_xor_{};
  // expand_sorted's scratch: the rectangle's free-bit deltas, and their
  // reduced echelon form with each vector's leading bit (fewer than 64 of
  // each: count < 2^64).
  std::array<K, 64> delta_;
  std::array<K, 64> red_;
  std::array<int, 64> pivot_;
};

// Interval view: the visitor receives each cube as its full Equation-1 key
// interval [lo, lo | level_mask].
template <class K, class Visitor>
class range_emitter {
 public:
  range_emitter(const basic_curve<K>& c, int i, Visitor& visit) : tracker_(c, i), visit_(visit) {}

  void set_level(int i) { tracker_.set_level(i); }

  template <class Walk>
  bool operator()(Walk& w, std::uint64_t count) {
    const K mask = tracker_.level_mask();
    auto sink = [&](const K& lo) {
      basic_key_range<K> out;  // not the checking constructor: lo <= hi by construction
      out.lo = lo;
      out.hi = lo | mask;
      if constexpr (std::is_convertible_v<decltype(visit_(out)), bool>) {
        return static_cast<bool>(visit_(out));
      } else {
        visit_(out);
        return true;
      }
    };
    return tracker_.expand(w, count, sink);
  }

 private:
  prefix_tracker<K> tracker_;
  Visitor& visit_;
};

// Column view: the visitor receives only the cube's low key (a `const K&`),
// the form query_plan's struct-of-arrays level frontier stores — the hi
// column is never materialized during enumeration. On an XOR-linear curve
// (segmented()), each rectangle arrives as key-ascending segments
// (prefix_tracker::expand_sorted) and the position of each segment's first
// cube, counted from the last set_level, is appended to `segments`;
// otherwise cubes arrive in the Algorithm 1-3 order and `segments` is left
// alone.
template <class K, class Visitor>
class lo_emitter {
 public:
  lo_emitter(const basic_curve<K>& c, int i, Visitor& visit, std::vector<std::size_t>& segments)
      : tracker_(c, i), visit_(visit), segments_(&segments) {}

  void set_level(int i) {
    tracker_.set_level(i);
    emitted_ = 0;
  }

  [[nodiscard]] K level_mask() const { return tracker_.level_mask(); }

  // True iff the lows arrive as key-ascending segments.
  [[nodiscard]] bool segmented() const { return tracker_.linear(); }

  template <class Walk>
  bool operator()(Walk& w, std::uint64_t count) {
    auto sink = [&](const K& lo) {
      if constexpr (std::is_convertible_v<decltype(visit_(lo)), bool>) {
        return static_cast<bool>(visit_(lo));
      } else {
        visit_(lo);
        return true;
      }
    };
    if (!segmented()) return tracker_.expand(w, count, sink);
    auto start = [this](std::uint64_t n) {
      segments_->push_back(emitted_);
      emitted_ += n;
    };
    return tracker_.expand_sorted(w, count, sink, start);
  }

 private:
  prefix_tracker<K> tracker_;
  Visitor& visit_;
  std::vector<std::size_t>* segments_;
  std::size_t emitted_ = 0;  // where the next segment starts (cubes since set_level)
};

// The curve-independent standard_cube view over the walk, for callers that
// want coordinates (tests, benches, cross-checks against the closed forms).
template <class Visitor>
class cube_emitter {
 public:
  cube_emitter(int dims, int i, Visitor& visit) : d_(dims), i_(i), visit_(visit) {}

  template <class Walk>
  bool operator()(Walk& w, std::uint64_t count) {
    return w.for_each_cube(count, [&] {
      point corner(d_);
      for (int x = 0; x < d_; ++x) corner[x] = static_cast<std::uint32_t>(w.corner_bits(x));
      return visit_cube(visit_, standard_cube(corner, i_));
    });
  }

 private:
  const int d_;
  const int i_;
  Visitor& visit_;
};

}  // namespace detail

// Enumerates the standard cubes of D_i (side 2^i) of the minimal partition of
// R(l), using the paper's Algorithms 1-3: rectangles of D_i are indexed by a
// bit-position vector P (one chosen set bit of each side length), and cube
// corners inside a rectangle follow Equation 1 of Section 5.
// `visit` is any callable taking `const standard_cube&`; returning false
// (for bool-returning visitors) stops the enumeration early.
// Throws std::length_error if the level holds more than `max_cubes` cubes.
template <class Visitor>
void enumerate_level_cubes(const universe& u, const extremal_rect& r, int i, Visitor&& visit,
                           std::uint64_t max_cubes = std::uint64_t{1} << 32) {
  SUBCOVER_CHECK(r.dims() == u.dims(), "enumerate_level_cubes: dims mismatch");
  SUBCOVER_CHECK(i >= 0 && i <= u.bits(), "enumerate_level_cubes: level out of range");
  if (!level_occupied(r, i)) return;
  auto& v = visit;
  detail::cube_emitter<std::remove_reference_t<Visitor>> emit(u.dims(), i, v);
  detail::level_walk<decltype(emit)>(u, r, i, emit, max_cubes).run();
}

// Corner-free enumeration of the same cubes, in the same order, as their
// Fact 2.1 key intervals on `curve` — the query planner's hot path. `visit`
// is any callable taking `const basic_key_range<K>&`; returning false (for
// bool-returning visitors) stops the enumeration early.
// Throws std::length_error if the level holds more than `max_cubes` cubes.
template <class K, class Visitor>
void enumerate_level_ranges(const basic_curve<K>& curve, const extremal_rect& r, int i,
                            Visitor&& visit,
                            std::uint64_t max_cubes = std::uint64_t{1} << 32) {
  SUBCOVER_CHECK(r.dims() == curve.space().dims(), "enumerate_level_ranges: dims mismatch");
  SUBCOVER_CHECK(i >= 0 && i <= curve.space().bits(),
                 "enumerate_level_ranges: level out of range");
  if (!level_occupied(r, i)) return;
  auto& v = visit;
  detail::range_emitter<K, std::remove_reference_t<Visitor>> emit(curve, i, v);
  detail::level_walk<decltype(emit)>(curve.space(), r, i, emit, max_cubes).run();
}

// Enumerates all cubes of the minimal partition in descending cube size
// (levels i = k down to 0), the probe order of the Section 5 query algorithm.
// Throws std::length_error if the partition exceeds `max_cubes` cubes.
template <class Visitor>
void enumerate_cubes_descending(const universe& u, const extremal_rect& r, Visitor&& visit,
                                std::uint64_t max_cubes = std::uint64_t{1} << 32) {
  std::uint64_t budget = max_cubes;
  bool stopped = false;
  for (int i = u.bits(); i >= 0 && !stopped; --i) {
    std::uint64_t level_count = 0;
    enumerate_level_cubes(
        u, r, i,
        [&](const standard_cube& c) {
          ++level_count;
          if (!detail::visit_cube(visit, c)) {
            stopped = true;
            return false;
          }
          return true;
        },
        budget);
    budget -= level_count;
  }
}

}  // namespace subcover
