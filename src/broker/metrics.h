// Network-wide counters: the quantities the paper's motivation is about
// (subscription traffic and routing-table size) plus event traffic and
// covering-check cost.
#pragma once

#include <cstdint>
#include <string>

namespace subcover {

struct network_metrics {
  // Broker-to-broker subscription forwards (what covering suppresses).
  std::uint64_t subscription_messages = 0;
  std::uint64_t unsubscription_messages = 0;
  // Subscriptions re-forwarded after an uncovering unsubscription.
  std::uint64_t reforwards = 0;
  // Broker-to-broker event forwards.
  std::uint64_t event_messages = 0;
  // Events handed to local subscribers.
  std::uint64_t deliveries = 0;
  // Covering-detection calls and outcomes during propagation.
  std::uint64_t covering_checks = 0;
  std::uint64_t covering_hits = 0;
  std::uint64_t covering_check_ns = 0;
  // Aggregated SFC-array probe work behind those checks (query_stats):
  // logical runs probed (the paper's cost measure), and how they were
  // physically executed — fresh descents vs probes resumed inside a batched
  // frontier sweep. Zero for non-SFC covering indexes.
  std::uint64_t covering_runs_probed = 0;
  std::uint64_t covering_probes_restarted = 0;
  std::uint64_t covering_probes_resumed = 0;
  // Cold-tier probe work behind those checks (query_stats tier_* fields;
  // zero unless the covering indexes enable hot/cold tiering).
  std::uint64_t covering_tier_cold_probes = 0;
  std::uint64_t covering_tier_summary_answers = 0;
  std::uint64_t covering_tier_blocks_decoded = 0;
  std::uint64_t covering_tier_cold_hits = 0;
  // Deferred-erase maintenance work behind the covering indexes
  // (query_stats maint_* fields; zero for in-place-erase backends or with
  // eager compaction). Physical counters: they move with the compaction
  // policy and with crash-recovery index rebuilds, so they are excluded
  // from same_counters like the reliability-protocol set below.
  std::uint64_t covering_maint_tombstones = 0;
  std::uint64_t covering_maint_purged = 0;
  std::uint64_t covering_maint_compactions = 0;
  // Reliability-protocol accounting (broker/broker_node.h), the same in
  // both drivers of the protocol: the seeded fault fabric and the TCP
  // daemon. Physical counters — they describe the fault schedule and what
  // the OS did to the byte stream, not the logical computation — so
  // same_counters excludes them: the logical counters above must match
  // deterministic mode exactly under any fault schedule.
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t reconnects = 0;
  // TCP daemon only (broker/transport.h).
  std::uint64_t heartbeats_missed = 0;
  std::uint64_t bytes_on_wire = 0;
  std::uint64_t partial_writes = 0;

  void reset_traffic() {
    event_messages = 0;
    deliveries = 0;
  }

  // Field-wise sum: how the daemon and the benchmark harness total the
  // per-broker metrics that each broker's dump reply carries.
  network_metrics& operator+=(const network_metrics& o);

  [[nodiscard]] std::string to_string() const;
};

// True when every deterministic logical counter matches. covering_check_ns
// is excluded (wall-clock timer readings differ run to run even on the
// byte-identical sequential path), as are the maintenance counters
// (covering_maint_* — physical tombstone/compaction work that moves with
// crash-recovery rebuilds) and the reliability-protocol counters
// (duplicates_suppressed, recoveries, wal_bytes, reconnects,
// heartbeats_missed, bytes_on_wire, partial_writes — they describe the
// fault schedule and the byte stream, not the logical computation). This
// is the comparison the deterministic-vs-faults and deterministic-vs-TCP
// equivalence tests pin.
[[nodiscard]] bool same_counters(const network_metrics& a, const network_metrics& b);

}  // namespace subcover
