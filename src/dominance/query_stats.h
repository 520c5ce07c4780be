// Per-query cost accounting for point dominance queries.
//
// The paper's cost measure is the number of runs accessed in the SFC array
// (each run costs two binary searches regardless of extent, Section 2).
// Alongside that, the engine reports how many standard cubes were enumerated
// to build the probe plan, what fraction of the full query region the plan
// covers (must be >= 1 - epsilon, Lemma 3.2), and how far the search got
// before terminating.
#pragma once

#include <cstdint>
#include <string>

namespace subcover {

struct query_stats {
  // Standard cubes produced by the greedy decomposition of the (possibly
  // truncated) query region.
  std::uint64_t cubes_enumerated = 0;
  // Runs in the probe plan after coalescing adjacent cube ranges.
  std::uint64_t runs_in_plan = 0;
  // Runs actually probed before the query terminated (hit, coverage target
  // reached, or plan exhausted). This is the paper's cost measure and is
  // independent of how the probes are executed: the batched frontier sweep
  // reports the same value as probing the runs one at a time.
  std::uint64_t runs_probed = 0;
  // --- physical probe-work accounting (how the probes were executed) ------
  // probe_frontier sweeps issued (at most one per occupied level).
  std::uint64_t frontier_batches = 0;
  // Probes that began a fresh search: each level's head probe (rank 0,
  // probed alone before any batching) and the first probe of every frontier
  // sweep. Each costs a full O(log n) descent of the SFC array.
  std::uint64_t probes_restarted = 0;
  // Probes answered by resuming the previous probe's position inside a
  // frontier sweep (galloping cursor / skip-list fingers) — sublinear in
  // the resume distance instead of O(log n). On a batched query,
  // probes_restarted + probes_resumed is the physical probe count; it can
  // exceed runs_probed when a sweep answers ranges the replay then skips
  // (early hit), and is far below it in restart cost when frontiers are
  // large.
  std::uint64_t probes_resumed = 0;
  // --- cold-tier probe work (all zero unless tiering is enabled via
  // dominance_options::tier_hot_capacity; see sfcarray/tiered_sfc_array.h).
  // Physical counters like the frontier ones: results and every logical
  // field above are identical with tiering on or off. ------------------
  // Probes that consulted the compressed cold tier.
  std::uint64_t tier_cold_probes = 0;
  // Cold consults answered from the per-block envelope summaries alone
  // ("definitely nothing in range", or the block's first entry) — no
  // decode.
  std::uint64_t tier_summary_answers = 0;
  // Cold-tier blocks varint-decoded into scratch.
  std::uint64_t tier_blocks_decoded = 0;
  // Probes whose merged answer came from the cold tier (these entries are
  // marked for promotion to the hot tier).
  std::uint64_t tier_cold_hits = 0;
  // --- maintenance work the query triggered (tombstone/compaction ledger,
  // sfcarray/sfc_array.h maintenance_counters). Physical counters like the
  // tier ones — the end-of-query maintain() pass erases promoted entries
  // from the cold tier and compacts thresholds crossed by churn, none of
  // which changes any logical field above. Zero for backends that erase in
  // place. ------------------------------------------------------------
  std::uint64_t maint_tombstones_added = 0;
  std::uint64_t maint_tombstones_purged = 0;
  std::uint64_t maint_compactions = 0;
  // Truncation parameter m = ceil(log2(2d/epsilon)); 0 for exhaustive.
  int truncation_m = 0;
  // vol(R(t(l,m))) / vol(R(l)) — the fraction the plan covers.
  long double volume_fraction_planned = 0;
  // Fraction of vol(R(l)) actually searched when the query returned.
  long double volume_fraction_searched = 0;
  bool found = false;
  // True when the cube budget stopped enumeration early (settle mode); the
  // probed plan then covers less than the planned fraction and misses are
  // possible even below 1 - epsilon coverage.
  bool budget_exhausted = false;
  std::uint64_t elapsed_ns = 0;

  [[nodiscard]] std::string to_string() const;
};

}  // namespace subcover
