// Seeded fault fabric: the network's faults-mode executor
// (network_options::faults). It drives one broker_node per broker — the
// reliability protocol the TCP daemon runs (broker/broker_node.h) — over
// simulated links in virtual time with a seeded RNG, and injects what TCP
// and the OS inflict on the daemon:
//
//   * Links are FIFO connections. Each direction delivers in send order
//     after one tick of latency plus, with delay_prob, a uniform extra
//     [1, max_delay] ticks: delay reorders messages across links, never
//     within one.
//   * drop_prob is the chance that a transmission resets its link instead
//     of arriving. Everything in flight on the link is lost in both
//     directions; both ends see link_down, then link_up a latency later,
//     and each replays its ledger.
//   * crash_prob is the chance that a broker receiving a data message
//     crashes — half before processing it, half after its WAL record is
//     durable but before anything it sent leaves. The node is discarded
//     wholesale, ledgers included (as SIGKILL does), all its links reset,
//     and recovery_delay ticks later it is rebuilt from its WAL, which
//     lives in the fabric. The operation's origin never crashes, so the
//     client hop stays reliable.
//
// A link that resets kMaxLinkResets times in a row (crashes of its
// receiving end included) without an ack getting through fails the
// operation with std::runtime_error: drop_prob = 1.0 never delivers.
//
// Determinism contract: the overlay is a tree, so within one operation
// each broker receives every message from the single neighbor toward the
// origin, and processes them in per-link seq order exactly once. Each
// broker therefore consumes the message sequence it would consume in
// deterministic mode, whatever the fault schedule — so the final routing
// tables, forwarded sets, delivered ids and every logical metric counter
// equal deterministic mode's for every seed and fault mix (pinned by
// tests/broker/fault_injection_test.cc). Only the reliability counters
// (duplicates_suppressed, recoveries, wal_bytes, reconnects) vary.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "broker/broker_node.h"
#include "broker/topology.h"
#include "util/random.h"

namespace subcover {

struct fault_options {
  std::uint64_t seed = 1;
  // Per-transmission probabilities, each drawn independently.
  double drop_prob = 0.0;   // the transmission resets its link
  double delay_prob = 0.0;  // the transmission takes extra ticks
  // Extra virtual-time ticks (uniform in [1, max_delay]) when delayed; base
  // latency is 1 tick.
  std::uint64_t max_delay = 8;
  // Probability, per data message delivered from a peer, that the
  // receiving broker crashes (see the header comment).
  double crash_prob = 0.0;
  // Virtual ticks a crashed broker stays down before restarting from WAL.
  std::uint64_t recovery_delay = 16;
  // Snapshot-compact a broker's WAL whenever it is quiescent with at least
  // this many records since its last snapshot. 0 disables automatic
  // checkpoints (recovery then replays from an empty snapshot).
  std::uint64_t checkpoint_every = 64;
};

// One network's fault fabric. Owns the per-broker nodes and WALs; borrows
// the topology and metrics from the network that built it. Runs one
// operation at a time to quiescence on the calling thread.
class fault_engine {
 public:
  // Consecutive resets of one link without an ack getting through before
  // the operation fails.
  static constexpr int kMaxLinkResets = 1000;

  fault_engine(const topology& t, const schema& s, const covering_index_factory& factory,
               broker_options broker_opts, fault_options opts, network_metrics& metrics);

  void run_subscribe(int origin, sub_id id, const subscription& s);
  void run_unsubscribe(int origin, sub_id id);
  // Delivered subscription ids, ascending.
  std::vector<sub_id> run_publish(int origin, const event& e);

  [[nodiscard]] const broker& broker_at(int b) const;
  // The broker's durable log (tests inspect it; the example prints it).
  [[nodiscard]] broker_wal& wal_of(int b);
  // Crash-between-operations: discards broker b's node and rebuilds it
  // from its WAL. Returns the number of log records replayed.
  std::size_t recover_broker(int b);

 private:
  struct link {
    int end[2] = {0, 0};
    bool up = false;
    std::uint64_t epoch = 0;  // bumped by every reset: older deliveries are lost
    std::uint64_t last_arrival[2] = {0, 0};  // per direction, keeps it FIFO
    int resets = 0;  // consecutive, without an ack getting through
  };
  struct sim_event {
    std::uint64_t time = 0;
    std::uint64_t order = 0;  // insertion tie-break: keeps the heap a total order
    enum class kind : std::uint8_t { deliver, reconnect, recover };
    kind k = kind::deliver;
    std::size_t link = 0;     // deliver / reconnect
    std::uint64_t epoch = 0;  // deliver / reconnect: the link's epoch when sent
    int to = 0;               // deliver: receiving broker; recover: the broker
    wire_msg msg;             // deliver
  };

  std::vector<sub_id> run_op(int origin, const wire_msg& m);
  void run_to_quiescence();
  // Restarts crashed brokers and brings down links up (after a failed op).
  void heal();
  void deliver(const sim_event& e);
  // Transmits everything broker b's node has queued.
  void flush(int b);
  void transmit(int from, int to, wire_msg m);
  // Counts a reset of link l against kMaxLinkResets.
  void note_reset(std::size_t l);
  void take_down(std::size_t l);
  void bring_up(std::size_t l);
  void crash(int b);
  void restart(int b);
  std::size_t link_between(int a, int b) const;
  void push_event(sim_event e);
  std::uint64_t latency();

  const topology& topology_;
  schema schema_;
  covering_index_factory factory_;
  broker_options broker_opts_;
  fault_options opts_;
  network_metrics& metrics_;
  rng rng_;

  std::vector<broker_wal> wals_;
  std::vector<std::unique_ptr<broker_node>> nodes_;  // null while crashed
  std::vector<link> links_;
  std::map<std::pair<int, int>, std::size_t> link_index_;  // (lower id, higher id)

  // Virtual-time event heap (std::push_heap order) and the op in flight.
  std::vector<sim_event> heap_;
  std::uint64_t now_ = 0;
  std::uint64_t order_ = 0;
  int origin_ = -1;
  std::optional<wire_msg> done_;
};

}  // namespace subcover
