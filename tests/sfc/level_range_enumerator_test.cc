// Property tests for the corner-free level-range enumerator (the query
// planner's hot path): enumerate_level_ranges must emit exactly the key
// intervals of the standard_cube path — same intervals, same order — for
// all three curves at all three key widths, and both paths must match an
// independent reference implementation of Equation 1 (the pre-rewrite
// corner-materializing enumerator, kept here verbatim as ground truth) as
// well as the Lemma 3.5 closed-form level counts.
#include "sfc/extremal_decomposition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sfc/curve.h"
#include "util/bitops.h"
#include "util/key_traits.h"
#include "util/random.h"
#include "util/wideint.h"

namespace subcover {
namespace {

std::array<std::uint64_t, kMaxDims> lengths(std::initializer_list<std::uint64_t> ls) {
  std::array<std::uint64_t, kMaxDims> a{};
  std::size_t i = 0;
  for (const auto l : ls) a[i++] = l;
  return a;
}

extremal_rect random_extremal(rng& gen, const universe& u) {
  std::array<std::uint64_t, kMaxDims> len{};
  for (int i = 0; i < u.dims(); ++i)
    len[static_cast<std::size_t>(i)] = gen.uniform(1, u.side());
  return {u, len};
}

// Ground truth: the corner-materializing Algorithms 1-3 implementation that
// the bit-plane walk replaced. Enumeration order is part of the contract
// (pin ascending, P lexicographic with bits descending, free-bit masks in
// counting order), so the reference reproduces it exactly.
class reference_enumerator {
 public:
  reference_enumerator(const universe& u, const extremal_rect& r, int i,
                       std::vector<standard_cube>& out,
                       std::vector<std::size_t>* rect_starts = nullptr)
      : u_(u), r_(r), i_(i), out_(out), rect_starts_(rect_starts) {}

  void run() {
    if (!level_occupied(r_, i_)) return;
    for (int s = 0; s < u_.dims(); ++s) {
      if (bit_at(r_.length(s), i_)) {
        pin_ = s;
        enum_rectangles(0);
      }
    }
  }

 private:
  void enum_rectangles(int t) {
    if (t == u_.dims()) {
      comp_keys();
      return;
    }
    if (t == pin_) {
      p_[static_cast<std::size_t>(t)] = i_;
      enum_rectangles(t + 1);
      return;
    }
    const std::uint64_t len = r_.length(t);
    const int lowest = t < pin_ ? i_ + 1 : i_;
    for (int j = bit_length(len) - 1; j >= lowest; --j) {
      if (bit_at(len, j)) {
        p_[static_cast<std::size_t>(t)] = j;
        enum_rectangles(t + 1);
      }
    }
  }

  void comp_keys() {
    const int d = u_.dims();
    const std::uint64_t coord_mask = u_.side() - 1;
    std::array<std::uint64_t, kMaxDims> base{};
    std::vector<std::pair<int, int>> free_bits;
    for (int x = 0; x < d; ++x) {
      const std::uint64_t len = r_.length(x);
      const int px = p_[static_cast<std::size_t>(x)];
      std::uint64_t c = keep_bits_from(~len, px + 1);
      c |= std::uint64_t{1} << px;
      base[static_cast<std::size_t>(x)] = c & coord_mask;
      for (int y = i_; y < px; ++y) free_bits.emplace_back(x, y);
    }
    if (rect_starts_ != nullptr) rect_starts_->push_back(out_.size());
    const std::uint64_t combos = std::uint64_t{1} << free_bits.size();
    for (std::uint64_t mask = 0; mask < combos; ++mask) {
      std::array<std::uint64_t, kMaxDims> c = base;
      for (std::size_t b = 0; b < free_bits.size(); ++b) {
        if ((mask >> b) & 1U) {
          const auto [dim, pos] = free_bits[b];
          c[static_cast<std::size_t>(dim)] |= std::uint64_t{1} << pos;
        }
      }
      point corner(d);
      for (int x = 0; x < d; ++x)
        corner[x] = static_cast<std::uint32_t>(c[static_cast<std::size_t>(x)]);
      out_.emplace_back(corner, i_);
    }
  }

  const universe& u_;
  const extremal_rect& r_;
  const int i_;
  std::vector<standard_cube>& out_;
  std::vector<std::size_t>* rect_starts_;  // index of each rectangle's first cube
  int pin_ = 0;
  std::array<int, kMaxDims> p_{};
};

std::vector<standard_cube> reference_level_cubes(const universe& u, const extremal_rect& r,
                                                 int i) {
  std::vector<standard_cube> out;
  reference_enumerator(u, r, i, out).run();
  return out;
}

// The cube path matches the reference in content *and* order.
TEST(LevelRangeEnumerator, CubePathMatchesReferenceOrder) {
  for (const auto& [d, k] : std::vector<std::pair<int, int>>{{1, 6}, {2, 5}, {3, 4}, {4, 3}}) {
    const universe u(d, k);
    rng gen(static_cast<std::uint64_t>(d * 1000 + k));
    for (int trial = 0; trial < 15; ++trial) {
      const auto r = random_extremal(gen, u);
      for (int i = 0; i <= u.bits(); ++i) {
        const auto expected = reference_level_cubes(u, r, i);
        std::vector<standard_cube> got;
        enumerate_level_cubes(u, r, i, [&](const standard_cube& c) { got.push_back(c); });
        ASSERT_EQ(got.size(), expected.size()) << r.to_string() << " level " << i;
        for (std::size_t n = 0; n < got.size(); ++n)
          ASSERT_EQ(got[n], expected[n])
              << r.to_string() << " level " << i << " position " << n;
      }
    }
  }
}

template <class K>
void expect_ranges_match_cubes(curve_kind kind, const universe& u, std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << curve_kind_name(kind) << " d=" << u.dims()
                                  << " k=" << u.bits() << " bits=" << key_traits<K>::kBits);
  const auto curve = make_basic_curve<K>(kind, u);
  rng gen(seed);
  for (int trial = 0; trial < 15; ++trial) {
    const auto r = random_extremal(gen, u);
    const auto counts = extremal_level_counts(u, r);
    for (int i = 0; i <= u.bits(); ++i) {
      std::vector<basic_key_range<K>> via_cubes;
      enumerate_level_cubes(u, r, i, [&](const standard_cube& c) {
        via_cubes.push_back(curve->cube_range(c));
      });
      std::vector<basic_key_range<K>> via_ranges;
      enumerate_level_ranges(*curve, r, i,
                             [&](const basic_key_range<K>& kr) { via_ranges.push_back(kr); });
      // Same per-level count as the Lemma 3.5 closed form.
      ASSERT_EQ(u512(via_ranges.size()), counts[static_cast<std::size_t>(i)])
          << r.to_string() << " level " << i;
      // Same intervals in the same order as the standard_cube path.
      ASSERT_EQ(via_ranges.size(), via_cubes.size()) << r.to_string() << " level " << i;
      for (std::size_t n = 0; n < via_ranges.size(); ++n)
        ASSERT_EQ(via_ranges[n], via_cubes[n])
            << r.to_string() << " level " << i << " position " << n << ": "
            << via_ranges[n].to_string() << " vs " << via_cubes[n].to_string();
    }
  }
}

TEST(LevelRangeEnumerator, RangesMatchCubePathAllCurvesAllWidths) {
  const curve_kind kinds[] = {curve_kind::z_order, curve_kind::hilbert, curve_kind::gray_code};
  for (const curve_kind kind : kinds) {
    for (const auto& [d, k] : std::vector<std::pair<int, int>>{{1, 6}, {2, 5}, {3, 4}, {4, 3}}) {
      const universe u(d, k);
      expect_ranges_match_cubes<std::uint64_t>(kind, u, 91);
      expect_ranges_match_cubes<u128>(kind, u, 92);
      expect_ranges_match_cubes<u512>(kind, u, 93);
    }
  }
}

// Wide universe (d*k > 64): the u128 range path on big coordinates.
TEST(LevelRangeEnumerator, RangesMatchCubePathWideUniverse) {
  const universe u(5, 20);  // 100-bit keys
  const curve_kind kinds[] = {curve_kind::z_order, curve_kind::hilbert, curve_kind::gray_code};
  for (const curve_kind kind : kinds) {
    const auto curve = make_basic_curve<u128>(kind, u);
    rng gen(44);
    std::array<std::uint64_t, kMaxDims> len{};
    for (int j = 0; j < u.dims(); ++j) len[static_cast<std::size_t>(j)] = gen.uniform(1, 2000);
    const extremal_rect r(u, len);
    for (int i = 0; i <= 11; ++i) {
      std::vector<basic_key_range<u128>> via_cubes;
      std::vector<basic_key_range<u128>> via_ranges;
      // Bound the work: these levels stay small for bounded side lengths.
      enumerate_level_cubes(
          u, r, i,
          [&](const standard_cube& c) {
            via_cubes.push_back(curve->cube_range(c));
            return via_cubes.size() < 2000;
          },
          1U << 20);
      enumerate_level_ranges(
          *curve, r, i,
          [&](const basic_key_range<u128>& kr) {
            via_ranges.push_back(kr);
            return via_ranges.size() < 2000;
          },
          1U << 20);
      ASSERT_EQ(via_ranges.size(), via_cubes.size()) << curve_kind_name(kind) << " i=" << i;
      for (std::size_t n = 0; n < via_ranges.size(); ++n)
        ASSERT_EQ(via_ranges[n], via_cubes[n]) << curve_kind_name(kind) << " i=" << i;
    }
  }
}

// Stop points that land on rectangle boundaries of level 0 of R(257, 300)
// on a 2-d, 9-bit universe: for every rectangle of at least three cubes, a
// prefix ending at its first cube, one ending inside it, and one ending at
// its last cube — plus the first cube overall and all-but-the-last.
std::vector<std::size_t> boundary_stop_points(const universe& u, const extremal_rect& r) {
  std::vector<standard_cube> cubes;
  std::vector<std::size_t> starts;
  reference_enumerator(u, r, 0, cubes, &starts).run();
  starts.push_back(cubes.size());
  std::vector<std::size_t> stops{1, cubes.size() - 1};
  for (std::size_t n = 0; n + 1 < starts.size(); ++n) {
    const std::size_t first = starts[n];
    const std::size_t size = starts[n + 1] - first;
    if (size < 3) continue;
    stops.insert(stops.end(), {first + 1, first + 2, first + size});
  }
  return stops;
}

// Early stop (the query planner's "take exactly `needed`" contract): a
// bool visitor stopping after n cubes sees exactly the first n of the full
// enumeration, whether n ends at a rectangle's first cube, inside it, or at
// its last cube.
template <class K>
void expect_early_stop_prefix(curve_kind kind) {
  SCOPED_TRACE(testing::Message() << curve_kind_name(kind) << " bits=" << key_traits<K>::kBits);
  const universe u(2, 9);
  const extremal_rect r(u, lengths({257, 300}));
  const auto curve = make_basic_curve<K>(kind, u);
  std::vector<basic_key_range<K>> all;
  enumerate_level_ranges(*curve, r, 0, [&](const basic_key_range<K>& kr) { all.push_back(kr); });
  ASSERT_GT(all.size(), 10U);
  std::vector<basic_key_range<K>> via_cubes;
  enumerate_level_cubes(u, r, 0,
                        [&](const standard_cube& c) { via_cubes.push_back(curve->cube_range(c)); });
  ASSERT_EQ(all, via_cubes);
  for (const std::size_t n : boundary_stop_points(u, r)) {
    std::vector<basic_key_range<K>> prefix;
    enumerate_level_ranges(*curve, r, 0, [&](const basic_key_range<K>& kr) {
      prefix.push_back(kr);
      return prefix.size() < n;
    });
    ASSERT_EQ(prefix.size(), n);
    for (std::size_t m = 0; m < n; ++m) ASSERT_EQ(prefix[m], all[m]) << "n=" << n;
  }
}

TEST(LevelRangeEnumerator, EarlyStopYieldsPrefix) {
  for (const curve_kind kind : {curve_kind::z_order, curve_kind::hilbert, curve_kind::gray_code}) {
    expect_early_stop_prefix<std::uint64_t>(kind);
    expect_early_stop_prefix<u128>(kind);
    expect_early_stop_prefix<u512>(kind);
  }
}

// The cube budget: a level of more than `max_cubes` cubes throws after the
// visitor has seen exactly the first `max_cubes` of them, wherever the
// budget falls within a rectangle; a visitor that stops at the budget, or a
// budget that fits the level, never throws.
template <class K>
void expect_budget_throws(curve_kind kind) {
  SCOPED_TRACE(testing::Message() << curve_kind_name(kind) << " bits=" << key_traits<K>::kBits);
  const universe u(2, 9);
  const extremal_rect r(u, lengths({257, 300}));
  const auto curve = make_basic_curve<K>(kind, u);
  std::vector<basic_key_range<K>> all;
  enumerate_level_ranges(*curve, r, 0, [&](const basic_key_range<K>& kr) { all.push_back(kr); });
  for (const std::size_t budget : boundary_stop_points(u, r)) {
    if (budget == all.size()) continue;  // the whole level fits: checked below
    std::vector<basic_key_range<K>> seen;
    EXPECT_THROW(enumerate_level_ranges(
                     *curve, r, 0, [&](const basic_key_range<K>& kr) { seen.push_back(kr); },
                     budget),
                 std::length_error)
        << "budget " << budget;
    ASSERT_EQ(seen.size(), budget);
    for (std::size_t m = 0; m < budget; ++m) ASSERT_EQ(seen[m], all[m]) << "budget " << budget;
    // Stopping exactly at the budget is a clean stop.
    std::size_t taken = 0;
    EXPECT_NO_THROW(enumerate_level_ranges(
        *curve, r, 0, [&](const basic_key_range<K>&) { return ++taken < budget; }, budget));
    EXPECT_EQ(taken, budget);
  }
  EXPECT_NO_THROW(enumerate_level_ranges(
      *curve, r, 0, [](const basic_key_range<K>&) {}, all.size()));
}

TEST(LevelRangeEnumerator, BudgetExceededThrows) {
  for (const curve_kind kind : {curve_kind::z_order, curve_kind::hilbert, curve_kind::gray_code}) {
    expect_budget_throws<std::uint64_t>(kind);
    expect_budget_throws<u128>(kind);
    expect_budget_throws<u512>(kind);
  }
  // The cube view charges the same budget.
  const universe u(2, 9);
  const extremal_rect r(u, lengths({257, 257}));  // 513 unit cells at level 0
  EXPECT_THROW(enumerate_level_cubes(
                   u, r, 0, [](const standard_cube&) {}, /*max_cubes=*/100),
               std::length_error);
}

// --- sorted segments (lo_emitter with a segment list) -----------------------

template <class K>
struct segmented_level {
  std::vector<K> lows;
  std::vector<std::size_t> starts;
  bool threw = false;
};

// Runs lo_emitter with a segment list over level i, the way query_plan
// does: a visitor that stops at `stop_at` cubes (0 = never) under a walk
// budget of `budget` cubes.
template <class K>
segmented_level<K> segmented_emission(const basic_curve<K>& curve, const extremal_rect& r,
                                      int i, std::uint64_t budget, std::size_t stop_at = 0) {
  segmented_level<K> out;
  auto visit = [&](const K& lo) {
    out.lows.push_back(lo);
    return stop_at == 0 || out.lows.size() < stop_at;
  };
  detail::lo_emitter<K, decltype(visit)> emit(curve, i, visit, out.starts);
  EXPECT_TRUE(emit.segmented());
  try {
    detail::level_walk<decltype(emit)>(curve.space(), r, i, emit, budget).run();
  } catch (const std::length_error&) {
    out.threw = true;
  }
  return out;
}

// The sorted-segment contract on one cut: segments start at 0, each is
// strictly key-ascending, there are at most (rectangles touched) +
// popcount(cubes taken from the cut rectangle) of them, and the lows are
// the counting-order emission's first `n` lows as a multiset.
template <class K>
void expect_segments(const segmented_level<K>& got, const std::vector<basic_key_range<K>>& all,
                     const std::vector<std::size_t>& rect_starts, std::size_t n) {
  SCOPED_TRACE(testing::Message() << "n=" << n);
  ASSERT_EQ(got.lows.size(), n);
  ASSERT_FALSE(got.starts.empty());
  EXPECT_EQ(got.starts.front(), 0U);
  for (std::size_t s = 0; s < got.starts.size(); ++s) {
    const std::size_t first = got.starts[s];
    const std::size_t end = s + 1 < got.starts.size() ? got.starts[s + 1] : n;
    ASSERT_LT(first, end) << "segment " << s;
    for (std::size_t m = first + 1; m < end; ++m)
      ASSERT_LT(got.lows[m - 1], got.lows[m]) << "segment " << s << " position " << m;
  }
  // The rectangle holding cube n - 1, and how many of its cubes were taken.
  const std::size_t rect =
      static_cast<std::size_t>(std::upper_bound(rect_starts.begin(), rect_starts.end(), n - 1) -
                               rect_starts.begin()) -
      1;
  const std::size_t cut = n - rect_starts[rect];
  EXPECT_LE(got.starts.size(), rect + 1 + static_cast<std::size_t>(std::popcount(cut)));
  std::vector<K> expect;
  for (std::size_t m = 0; m < n; ++m) expect.push_back(all[m].lo);
  std::vector<K> lows = got.lows;
  std::sort(expect.begin(), expect.end());
  std::sort(lows.begin(), lows.end());
  ASSERT_EQ(lows, expect);
}

// A rectangle with more than 64 free bits: on a 4-d, 30-bit universe,
// R(2^29 + 1, ...) at level 0 opens with P = (0, 29, 29, 29) — 87 free
// bits, 2^87 cubes. Only the low free bits can flip before the budget or
// the visitor stops the walk; both cuts must agree with the cube path.
template <class K>
void expect_wide_rectangle_cut(curve_kind kind) {
  SCOPED_TRACE(testing::Message() << curve_kind_name(kind) << " bits=" << key_traits<K>::kBits);
  const universe u(4, 30);
  const std::uint64_t l = (std::uint64_t{1} << 29) + 1;
  const extremal_rect r(u, lengths({l, l, l, l}));
  const auto curve = make_basic_curve<K>(kind, u);
  constexpr std::size_t kBudget = 5000;
  std::vector<basic_key_range<K>> via_cubes;
  EXPECT_THROW(enumerate_level_cubes(
                   u, r, 0,
                   [&](const standard_cube& c) { via_cubes.push_back(curve->cube_range(c)); },
                   kBudget),
               std::length_error);
  std::vector<basic_key_range<K>> via_ranges;
  EXPECT_THROW(enumerate_level_ranges(
                   *curve, r, 0,
                   [&](const basic_key_range<K>& kr) { via_ranges.push_back(kr); }, kBudget),
               std::length_error);
  ASSERT_EQ(via_cubes.size(), kBudget);
  ASSERT_EQ(via_ranges, via_cubes);
  // A visitor stop inside the rectangle, under a budget that would admit
  // the whole level's first 2^64 - 1 cubes.
  std::vector<basic_key_range<K>> prefix;
  enumerate_level_ranges(
      *curve, r, 0,
      [&](const basic_key_range<K>& kr) {
        prefix.push_back(kr);
        return prefix.size() < 777;
      },
      ~std::uint64_t{0});
  ASSERT_EQ(prefix.size(), 777U);
  for (std::size_t m = 0; m < prefix.size(); ++m) ASSERT_EQ(prefix[m], via_cubes[m]) << m;
  // The same two cuts as sorted segments: the whole level is one
  // rectangle, so popcount(cut) bounds the segments.
  const std::vector<std::size_t> one_rect{0};
  const auto budgeted = segmented_emission(*curve, r, 0, kBudget);
  EXPECT_TRUE(budgeted.threw);
  expect_segments(budgeted, via_cubes, one_rect, kBudget);
  const auto stopped = segmented_emission(*curve, r, 0, 777, 777);
  EXPECT_FALSE(stopped.threw);
  expect_segments(stopped, via_cubes, one_rect, 777);
}

TEST(LevelRangeEnumerator, WideRectangleCutByBudget) {
  for (const curve_kind kind : {curve_kind::z_order, curve_kind::gray_code}) {
    expect_wide_rectangle_cut<u128>(kind);
    expect_wide_rectangle_cut<u512>(kind);
  }
}

// Level 0 of R(257, 300) on a 2-d, 9-bit universe, cut by a visitor stop
// (with the budget at the stop, as the planner runs it) and by the budget
// alone, and taken whole. The cuts are the boundary stop points plus, in
// every rectangle of at least three cubes, all but its last cube
// (popcount(2^n - 1) = n blocks) and three cubes in (two blocks).
template <class K>
void expect_sorted_segments(curve_kind kind) {
  SCOPED_TRACE(testing::Message() << curve_kind_name(kind) << " bits=" << key_traits<K>::kBits);
  const universe u(2, 9);
  const extremal_rect r(u, lengths({257, 300}));
  const auto curve = make_basic_curve<K>(kind, u);
  std::vector<basic_key_range<K>> all;
  enumerate_level_ranges(*curve, r, 0, [&](const basic_key_range<K>& kr) { all.push_back(kr); });
  std::vector<standard_cube> cubes;
  std::vector<std::size_t> rect_starts;
  reference_enumerator(u, r, 0, cubes, &rect_starts).run();
  ASSERT_EQ(cubes.size(), all.size());
  const auto whole = segmented_emission(*curve, r, 0, all.size());
  EXPECT_FALSE(whole.threw);
  expect_segments(whole, all, rect_starts, all.size());
  std::vector<std::size_t> stops = boundary_stop_points(u, r);
  for (std::size_t m = 0; m < rect_starts.size(); ++m) {
    const std::size_t first = rect_starts[m];
    const std::size_t size = (m + 1 < rect_starts.size() ? rect_starts[m + 1] : all.size()) - first;
    if (size >= 3) stops.insert(stops.end(), {first + 3, first + size - 1});
  }
  for (const std::size_t n : stops) {
    const auto stopped = segmented_emission(*curve, r, 0, n, n);
    EXPECT_FALSE(stopped.threw) << "n=" << n;
    expect_segments(stopped, all, rect_starts, n);
    if (n == all.size()) continue;
    const auto budgeted = segmented_emission(*curve, r, 0, n);
    EXPECT_TRUE(budgeted.threw) << "n=" << n;
    expect_segments(budgeted, all, rect_starts, n);
  }
}

TEST(LevelRangeEnumerator, SortedSegmentsCoverTheCountingPrefix) {
  for (const curve_kind kind : {curve_kind::z_order, curve_kind::gray_code}) {
    expect_sorted_segments<std::uint64_t>(kind);
    expect_sorted_segments<u128>(kind);
    expect_sorted_segments<u512>(kind);
  }
}

// Every level of random regions, whole: one segment per rectangle at most.
TEST(LevelRangeEnumerator, SortedSegmentsRandomRegions) {
  for (const curve_kind kind : {curve_kind::z_order, curve_kind::gray_code}) {
    for (const auto& [d, k] : std::vector<std::pair<int, int>>{{1, 6}, {2, 5}, {3, 4}, {4, 3}}) {
      const universe u(d, k);
      const auto curve = make_basic_curve<std::uint64_t>(kind, u);
      rng gen(static_cast<std::uint64_t>(d * 100 + k));
      for (int trial = 0; trial < 15; ++trial) {
        const auto r = random_extremal(gen, u);
        for (int i = 0; i <= u.bits(); ++i) {
          SCOPED_TRACE(testing::Message() << curve_kind_name(kind) << " " << r.to_string()
                                          << " level " << i);
          std::vector<basic_key_range<std::uint64_t>> all;
          enumerate_level_ranges(*curve, r, i, [&](const basic_key_range<std::uint64_t>& kr) {
            all.push_back(kr);
          });
          if (all.empty()) continue;
          std::vector<standard_cube> cubes;
          std::vector<std::size_t> rect_starts;
          reference_enumerator(u, r, i, cubes, &rect_starts).run();
          const auto got = segmented_emission(*curve, r, i, all.size());
          expect_segments(got, all, rect_starts, all.size());
          EXPECT_LE(got.starts.size(), rect_starts.size());
        }
      }
    }
  }
}

// Hilbert is not XOR-linear: given a segment list, lo_emitter still emits
// in counting order and records no segments.
TEST(LevelRangeEnumerator, HilbertLowsStayInCountingOrder) {
  const universe u(2, 9);
  const extremal_rect r(u, lengths({257, 300}));
  const auto curve = make_basic_curve<std::uint64_t>(curve_kind::hilbert, u);
  std::vector<basic_key_range<std::uint64_t>> all;
  enumerate_level_ranges(*curve, r, 0,
                         [&](const basic_key_range<std::uint64_t>& kr) { all.push_back(kr); });
  std::vector<std::uint64_t> lows;
  std::vector<std::size_t> starts;
  auto visit = [&](const std::uint64_t& lo) { lows.push_back(lo); };
  detail::lo_emitter<std::uint64_t, decltype(visit)> emit(*curve, 0, visit, starts);
  EXPECT_FALSE(emit.segmented());
  detail::level_walk<decltype(emit)>(u, r, 0, emit, all.size()).run();
  EXPECT_TRUE(starts.empty());
  ASSERT_EQ(lows.size(), all.size());
  for (std::size_t m = 0; m < lows.size(); ++m) ASSERT_EQ(lows[m], all[m].lo) << m;
}

// l = 2^k exercises the P_x == k chosen bit outside the coordinate window,
// including the whole-universe cube at level k (empty prefix, full range).
TEST(LevelRangeEnumerator, FullUniverseSideLength) {
  const universe u(2, 4);
  const auto curve = make_basic_curve<std::uint64_t>(curve_kind::gray_code, u);
  const extremal_rect full(u, lengths({16, 16}));
  std::vector<basic_key_range<std::uint64_t>> got;
  enumerate_level_ranges(*curve, full, 4,
                         [&](const basic_key_range<std::uint64_t>& kr) { got.push_back(kr); });
  ASSERT_EQ(got.size(), 1U);
  EXPECT_EQ(got[0].lo, 0U);
  EXPECT_EQ(got[0].hi, key_traits<std::uint64_t>::mask(u.key_bits()));
  // Mixed: one full side, one partial — every level against the cube path.
  const extremal_rect mixed(u, lengths({16, 5}));
  for (int i = 0; i <= 4; ++i) {
    std::vector<basic_key_range<std::uint64_t>> via_cubes;
    enumerate_level_cubes(u, mixed, i, [&](const standard_cube& c) {
      via_cubes.push_back(curve->cube_range(c));
    });
    std::vector<basic_key_range<std::uint64_t>> via_ranges;
    enumerate_level_ranges(*curve, mixed, i, [&](const basic_key_range<std::uint64_t>& kr) {
      via_ranges.push_back(kr);
    });
    ASSERT_EQ(via_ranges, via_cubes) << "level " << i;
  }
}

// An empty level visits nothing through the range path too.
TEST(LevelRangeEnumerator, EmptyLevelVisitsNothing) {
  const universe u(2, 4);
  const extremal_rect r(u, lengths({0b1010, 0b0100}));
  const auto curve = make_basic_curve<std::uint64_t>(curve_kind::z_order, u);
  enumerate_level_ranges(*curve, r, 0, [](const basic_key_range<std::uint64_t>&) {
    FAIL() << "level 0 must be empty";
  });
}

}  // namespace
}  // namespace subcover
