// query_plan — the reusable, allocation-free engine behind
// dominance_index::query (paper Section 5).
//
// Architecture (plan -> probe, corner-free): a query is executed level by
// level, largest standard cubes first. For each occupied level of the
// (possibly truncated, Lemma 3.2) extremal query region, the plan streams
// exactly the cubes the coverage target can still need (the closed-form
// level counts of Lemma 3.5 bound the frontier in advance) straight out of
// the Equation-1 enumerator (extremal_decomposition.h) — the level
// enumeration constructs no standard_cube and touches no corner coordinate
// arrays; the curve's child_rank/descend_state API turns bit-plane toggles
// into prefix updates directly, once per Algorithm-2 rectangle on the
// XOR-linear curves (Z, Gray), whose remaining cube lows then cost one XOR
// each (rectangle expansion; Hilbert pays the ladder per cube). The plan
// then orders and coalesces the cubes into runs, orders the runs by
// volume, and probes them against the SFC array, tracking the
// searched-volume fraction and the max_cubes budget. The
// search stops at the first hit, at 1 - epsilon coverage, or when the plan
// is exhausted — identical semantics (results and stats) to the original
// monolithic query.
//
// Struct-of-arrays level frontier (the data-parallel layout): the frontier
// of the current level lives in plan-owned columns, not an array of range
// structs. Enumeration appends each cube's LOW key to `lo_col` (every cube
// of level i has the same extent — hi is lo | mask(d*i), never stored per
// cube); coalescing orders that one key column and emits maximal runs into
// the `run_lo` / `run_hi` columns; `run_ext` (hi - lo lanes) feeds the
// head scan and the chain-length classes of the volume ranking. On u64-width
// universes (d*k <= 64, the common case) the per-level work on those
// columns — cube coalescing, extent subtraction, the head-probe argbest
// scan, the sweep's suffix-min-key table — runs through the
// runtime-dispatched vector kernels of util/simd_kernels.h (scalar /
// SSE4.2 / AVX2, picked once per process via util/cpu_features.h; the
// SUBCOVER_FORCE_SCALAR environment variable pins the scalar backend).
// The wider widths run plain loops with the same semantics; the
// width-equivalence suite pins the two against each other. Results, stop
// decisions and all query_stats are identical at every key width and
// every dispatch tier; only speed moves.
//
// Linear-time frontier ordering: no comparison sort is left on a level.
// On the XOR-linear curves (Z, Gray) the enumerator emits each Algorithm-2
// rectangle as key-ascending segments (the sorted-segment contract of
// extremal_decomposition.h): a rectangle's lows are an affine subspace of
// key space, walked in key order from its minimum. A level holds only a
// handful of rectangles, so the plan merges their segments, concatenating
// neighbours already in order and merging the rest in pairwise passes that
// ping-pong between lo_col and lo_merge. Hilbert's keys are not XOR-linear:
// its lows come in counting order and are sorted, with the LSD radix sort
// of util/radix_sort.h at u64 (only the digits that vary across the
// column) and std::sort when wider. The lows of a level are distinct, so
// merge and sort both yield std::sort's order exactly. The runs are then
// ranked by counting, not sorted: every cube of level i spans 2^(d*i)
// cells, so a run's volume is its chain length c (in cubes) times one
// cube, and the probe order (volume desc, lo asc) is a counting order over
// the level's few distinct chain lengths. A histogram of c gives each
// class its first rank; within a class, key order is the ascending-lo
// tie-break, so a run's rank is its class's first rank plus the class
// members before it in key order. The sweep compares runs by class key
// and sweep position, which is that order, and only the best hit's rank
// is ever counted out. The same code runs at every width, and the
// equivalence suites cross-check it against the oracle's comparison sort.
//
// Batched frontier probing: instead of one independent first_in per run —
// each a fresh O(log n) descent of the SFC array — the plan hands the
// whole merged, key-ascending level frontier to
// basic_sfc_array::probe_frontier, which answers it in one resumed sweep
// (galloping cursor on the sorted vector, per-level fingers on the skip
// list). Volume-descending semantics are preserved exactly by separating
// the *sweep order* (key-ascending, what the array wants) from the *probe
// rank* (volume-descending, what the search semantics demand): each
// swept range carries its class key, the sweep keeps the best hit (the
// longest chain, ties to the first swept: the smallest rank), and the
// replay settles the search from that hit's rank — it stops there, or
// short of a hit at the last rank the coverage cut admits, and adds the
// searched volume per chain-length class (count of ranks times one run's
// volume). That reproduces the result, stop point and every logical
// query_stats field of probing the runs one at a time in rank order (the
// test oracle tests/dominance/reference_query.h does exactly that). At
// u64 the class sums are exact in long double (every partial sum is an
// integer <= 2^64), so they are closed-form multiply-adds; wider keys add
// one run at a time, in rank order, exactly as the oracle rounds. Rank 0 —
// the run probed first, which on hit-dense workloads usually decides the
// level — is found with one O(m) scan and probed alone before any ranking
// work; only a miss engages the class histogram and the sweep for the
// remaining ranks.
// Two prunings keep the sweep from touching runs the replay can never
// reach: (a) with epsilon > 0 the coverage stop point depends only on run
// volumes, so the sweep is cut, before probing anything, to the ranks the
// search can visit (found by walking the class histogram); (b) once a
// sweep finds a hit, it stops as soon as every remaining range ranks below
// the best hit so far — a min-class-key-of-suffix table makes that check
// O(1) per probe. The physical probe work is reported in the frontier_batches /
// probes_restarted / probes_resumed stats; runs_probed stays the paper's
// logical cost measure.
//
// Key width: the plan binds to the index's internal width at construction
// (util/key_traits.h) and keeps its level enumeration, run frontier, probe
// cursor and range arithmetic at that width end to end — on a d*k <= 64
// universe every endpoint the hot loop derives, sorts, merges and compares
// is one machine word. The Lemma 3.5 level counts stay u512 (they count
// cells, up to 2^(d*k), and are touched only once per level). Results are
// identical at every width.
//
// Scratch-buffer contract: a plan owns every buffer the search needs (the
// per-level cube counts, the frontier columns of the current level and
// their segment starts, the merge and radix scratch, the chain-length
// class histogram, the batched sweep's key buffers, and the array probe
// cursor). The per-level buffers only grow, and every use passes its
// length explicitly, so a level never re-initialises them either.
// Buffers are reused across run() calls, so after the first query of a
// given shape the hot path performs zero heap allocations: no
// std::function dispatch (template visitors), no materialization of the
// full decomposition (per-level streaming with early stop), no
// exception-based control flow, and column-resident run coalescing. This
// is enforced by tests/dominance/query_plan_test.cc (WarmPlanPerformsZero-
// HeapAllocations), which counts operator new calls on a warm plan.
//
// Thread-safety contract: a query_plan is mutable scratch and is NOT
// thread-safe; use one plan per thread. dominance_index::query() routes
// through an index-internal plan, so concurrent query() calls on one index
// are not safe either — concurrent readers must each construct their own
// query_plan over the shared index.
#pragma once

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "dominance/query_stats.h"
#include "geometry/point.h"
#include "sfc/curve.h"
#include "sfc/key_range.h"
#include "sfcarray/sfc_array.h"
#include "util/key_traits.h"
#include "util/wideint.h"

namespace subcover {

class dominance_index;
template <class K>
class basic_tiered_sfc_array;

class query_plan {
 public:
  // Binds to an index (and its key width); the plan must not outlive it.
  // Cheap: buffers are grown lazily by the first run().
  explicit query_plan(const dominance_index& index);

  // Executes one query; identical observable behavior (result and stats) to
  // dominance_index::query(x, epsilon, stats).
  std::optional<std::uint64_t> run(const point& x, double epsilon,
                                   query_stats* stats = nullptr);

  [[nodiscard]] const dominance_index& index() const { return *index_; }

 private:
  // The width-typed scratch: the bound curve/array and the struct-of-arrays
  // frontier of the current level, all at key type K.
  template <class K>
  struct typed_state {
    // No default member initializers: GCC rejects them in a nested class
    // template when std::variant's defaulted constructor is checked while
    // the enclosing class is still incomplete.
    typed_state() : curve(nullptr), array(nullptr), tiered(nullptr) {}

    const basic_curve<K>* curve;
    const basic_sfc_array<K>* array;
    // Non-null iff the index's array is hot/cold tiered
    // (dominance_options::tier_hot_capacity > 0). The plan snapshots its
    // tier counters around each query (diffed into query_stats) and runs
    // its maintenance step — promotion of cold hits, capacity flush — at
    // the end of run(). Non-const for exactly that maintenance call; the
    // probe path stays read-only.
    basic_tiered_sfc_array<K>* tiered;
    // Frontier columns of the current level. lo_col: cube lows in
    // enumeration order (the extent of every cube at level i is the
    // constant mask(d*i), so only lows are stored); run_lo/run_hi/run_ext:
    // the coalesced run frontier, key-ascending, one lane per run.
    std::vector<K> lo_col;
    // Ping-pong partner of lo_col for the segment merge (and the radix
    // sort's scratch at u64).
    std::vector<K> lo_merge;
    std::vector<K> run_lo;
    std::vector<K> run_hi;
    std::vector<K> run_ext;
    // Materialized AoS sweep list handed to probe_frontier (the array API
    // speaks ranges, the kernels speak columns).
    std::vector<basic_key_range<K>> probe_ranges;
    typename basic_sfc_array<K>::probe_hint hint;  // probe-locality cursor
  };

  template <class K>
  std::optional<std::uint64_t> run_impl(typed_state<K>& ts, const point& x, double epsilon,
                                        query_stats* stats);

  const dominance_index* index_;
  std::vector<u512> level_counts_;  // Lemma 3.5 counts, reused per query
  // Batched-probe scratch (key-type independent, reused across queries):
  // run_len_[p] is run p's chain length in cubes; class_count_ holds four
  // interleaved histograms of those lengths; classes_ lists the level's
  // lengths in descending (probe) order; probe_key_ holds each sweep-list
  // element's class key (top length + 1 - length, the head 0);
  // suffix_min_key_[i] = min key among sweep elements i..end (the sweep's
  // early-stop oracle).
  struct length_class {
    std::uint32_t len;    // chain length in cubes
    std::uint32_t count;  // runs of this length
    std::uint32_t first;  // rank of the first of them
    long double cells;    // volume of one of them
  };
  std::vector<std::uint32_t> run_len_;
  std::vector<std::uint32_t> class_count_;
  std::vector<length_class> classes_;
  std::vector<std::uint32_t> probe_key_;
  std::vector<std::uint32_t> suffix_min_key_;
  // Level-relative starts of the key-ascending segments the emitter wrote
  // into lo_col (segmented levels only, i.e. the XOR-linear curves).
  std::vector<std::size_t> segment_starts_;
  std::variant<typed_state<std::uint64_t>, typed_state<u128>, typed_state<u512>> state_;
};

}  // namespace subcover
