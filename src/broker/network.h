// In-process simulation of a broker tree running covering-optimized
// subscription propagation and reverse-path event routing, with two
// execution engines (a third — real TCP sockets between one OS process per
// broker — lives in broker/transport.h as the standalone broker_daemon):
//
//   * Deterministic mode (the default): messages between brokers are
//     processed from a single FIFO queue until quiescence on the calling
//     thread — byte-identical to the original sequential simulation (same
//     message order, same delivery order, same metrics).
//
//   * Faults mode (options.faults set): each broker runs the daemon's
//     reliability protocol over a seeded fault fabric — link resets,
//     delay/reorder across links, crash-restart-from-WAL — and converges on
//     exactly the deterministic-mode final state (broker/fault_engine.h).
//
// A broker handler that throws fails only its own message: the FIFO catches
// at each pop, skips that message's forwards, completes every other
// in-flight message to quiescence, and rethrows the first error to the
// caller. Within a broker, the per-shard loop attempts every shard even when
// one throws (broker.h), so a clean shard's forward still happens and the
// post-throw routing tables, forwarded sets, and metric totals are valid
// and deterministic.
//
// The simulation preserves exactly the metrics the paper's motivation
// concerns: subscription messages, routing table sizes, event traffic, and
// delivery completeness.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "broker/broker.h"
#include "broker/fault_engine.h"
#include "broker/topology.h"

namespace subcover {

struct network_options {
  bool use_covering = true;
  double epsilon = 0.0;
  // Factory for the per-link covering indexes; defaults to the paper's
  // SFC index (Z curve + skip list).
  covering_index_factory factory;
  // Set = faults mode: the seeded fault fabric (broker/fault_engine.h).
  // Unset = the deterministic FIFO engine.
  std::optional<fault_options> faults;
};

class network {
 public:
  network(topology t, schema s, network_options options = {});
  network(const network&) = delete;
  network& operator=(const network&) = delete;

  // Registers a subscription for a client at `broker_id`; propagates to
  // quiescence and returns the assigned subscription id.
  sub_id subscribe(int broker_id, const subscription& s);
  // Withdraws a subscription; returns false if unknown.
  bool unsubscribe(sub_id id);
  // Publishes at `broker_id`; returns the ids of subscriptions that received
  // the event, sorted ascending.
  std::vector<sub_id> publish(int broker_id, const event& e);

  // Ground truth: ids of all active subscriptions matching e, regardless of
  // routing (what a correct network must deliver to).
  [[nodiscard]] std::vector<sub_id> expected_recipients(const event& e) const;

  [[nodiscard]] const network_metrics& metrics() const { return metrics_; }
  network_metrics& mutable_metrics() { return metrics_; }
  // Sum of routing-table entries over all brokers — the size metric covering
  // is meant to reduce.
  [[nodiscard]] std::size_t total_routing_entries() const;
  [[nodiscard]] int broker_count() const { return topology_.size(); }
  [[nodiscard]] const broker& broker_at(int id) const;
  [[nodiscard]] std::size_t active_subscriptions() const { return owners_.size(); }
  [[nodiscard]] std::optional<int> owner_broker(sub_id id) const;
  [[nodiscard]] const schema& message_schema() const { return schema_; }

  // Faults mode only (throws std::logic_error otherwise): the broker's
  // durable write-ahead log, for inspection.
  [[nodiscard]] broker_wal& wal_of(int broker_id);
  // Faults mode only: crash-between-operations — discards the broker's
  // in-memory state and rebuilds it from its WAL (counted in
  // metrics().recoveries). Returns the number of log records replayed.
  std::size_t recover_broker(int broker_id);

 private:
  struct sub_record {
    int broker;
    subscription s;
  };
  topology topology_;
  schema schema_;
  network_options options_;
  std::vector<broker> brokers_;  // deterministic mode; faults mode's live in faults_
  std::map<sub_id, sub_record> owners_;
  network_metrics metrics_;
  sub_id next_id_ = 1;
  // Deterministic publish scratch, reused across publishes: the FIFO of
  // (broker, arrival link) hops and handle_event's forward links.
  std::vector<std::pair<int, int>> publish_fifo_;
  std::vector<int> publish_forwards_;
  // The fault fabric; null unless options_.faults is set.
  std::unique_ptr<fault_engine> faults_;
};

}  // namespace subcover
