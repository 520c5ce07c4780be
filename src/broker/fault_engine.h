// Deterministic fault-injection engine: the network's third execution mode
// (network_options::faults). Inter-broker messages travel through a
// simulated unreliable fabric — a discrete-event loop in virtual time with
// a seeded RNG — that can drop, duplicate, and delay/reorder them, and can
// crash the receiving broker, which later restarts from its write-ahead log
// (broker/wal.h).
//
// Reliability is rebuilt on top with the standard trio:
//
//   * Acks + bounded retry: every inter-broker message is held by its
//     sender until acked; an unacked message retransmits with exponential
//     backoff (ack_timeout doubling per attempt) up to max_retries, after
//     which the operation throws std::runtime_error.
//   * Per-channel sequencing: each (operation, sender -> receiver) channel
//     numbers its messages. A receiver processes a channel strictly in
//     order: dupes (seq already processed) are re-acked and counted
//     duplicates_suppressed; early messages are buffered UNACKED — so a
//     crash can only lose messages whose senders are still retransmitting.
//   * WAL-append-before-ack: a message's state records are durable before
//     its ack is sent, and each record carries its channel position
//     (op, from, seq) as an idempotency key. A restarted broker rebuilds
//     its dedup positions from those keys, turning the fabric's
//     at-least-once delivery into exactly-once state application.
//
// Determinism contract: the overlay is a tree, so within one operation each
// broker receives every message from the single neighbor toward the origin.
// Per-channel in-order processing therefore hands each broker exactly the
// message sequence it would consume in deterministic mode, regardless of
// the fault schedule — so the final routing tables, forwarded sets,
// delivered ids, and every logical metric counter are identical to
// deterministic mode for every seed and fault mix (pinned by
// tests/broker/fault_injection_test.cc). Only the fault-transport counters
// (retries, duplicates_suppressed, recoveries, wal_bytes) vary.
//
// Scope cut, deliberate: crashes are fail-stop for the broker's state —
// routing tables, forwarded sets, and receive-side dedup positions are lost
// and rebuilt from the WAL — but sender-side transport state (pending
// retransmissions and channel send counters) lives in the fabric below the
// crash line, like kernel socket buffers surviving an application restart.
// Persisting sender-side output buffers is the transport PR's problem, not
// this engine's (docs/ARCHITECTURE.md, "Fault model & recovery").
#pragma once

#include <cstdint>
#include <map>
#include <queue>
#include <vector>

#include "broker/broker.h"
#include "broker/topology.h"
#include "util/random.h"

namespace subcover {

struct fault_options {
  std::uint64_t seed = 1;
  // Per-transmission probabilities, each drawn independently (an unlucky
  // message can be both delayed and duplicated; a dropped one simply never
  // arrives and its retransmission rolls fresh dice).
  double drop_prob = 0.0;
  double duplicate_prob = 0.0;
  double delay_prob = 0.0;
  // Extra virtual-time ticks (uniform in [1, max_delay]) when delayed; base
  // latency is 1 tick. Delay is what produces reordering across channels.
  std::uint64_t max_delay = 8;
  // Probability, per delivered inter-broker message, that the receiving
  // broker crashes — half before processing (the message is lost with it),
  // half after its WAL records are durable but before the ack leaves (the
  // retransmission then exercises the idempotency path).
  double crash_prob = 0.0;
  // Virtual ticks a crashed broker stays down before restarting from WAL.
  std::uint64_t recovery_delay = 16;
  // Retransmission policy: first retry after ack_timeout ticks, doubling
  // per attempt; exceeding max_retries throws std::runtime_error.
  int max_retries = 10;
  std::uint64_t ack_timeout = 4;
  // Snapshot-compact a broker's WAL at the end of any operation that leaves
  // it with at least this many records since its last snapshot. 0 disables
  // automatic checkpoints (recovery then replays from an empty snapshot).
  std::uint64_t checkpoint_every = 64;
};

// One network's fault-injection executor. Owns the per-broker WALs and the
// virtual-time fabric; borrows the brokers, topology, and metrics from the
// network that built it. Runs one operation at a time to quiescence on the
// calling thread.
class fault_engine {
 public:
  fault_engine(const topology& t, const schema& s, const covering_index_factory& factory,
               broker_options broker_opts, fault_options opts, std::vector<broker>& brokers,
               network_metrics& metrics);

  void run_subscribe(int origin, sub_id id, const subscription& s);
  void run_unsubscribe(int origin, sub_id id);
  // Delivered subscription ids in processing order (the caller sorts).
  std::vector<sub_id> run_publish(int origin, const event& e);

  // The broker's durable log (tests inspect it; the example prints it).
  [[nodiscard]] broker_wal& wal_of(int b);
  // Crash-between-operations: discards broker b's in-memory state and
  // rebuilds it from its WAL. Returns the number of log records replayed.
  std::size_t recover_broker(int b);

 private:
  struct msg {
    enum class kind : std::uint8_t { subscribe, unsubscribe, publish };
    kind k = kind::subscribe;
    int from = kLocalLink;  // sender broker id, or kLocalLink for a client
    int to = 0;
    std::uint64_t seq = 0;  // position on the (op, from -> to) channel
    std::uint64_t uid = 0;  // ack identity; 0 = client injection (unacked)
    sub_id id = 0;
    subscription body;
    const event* ev = nullptr;  // borrowed from run_publish's caller
  };
  struct sim_event {
    std::uint64_t time = 0;
    std::uint64_t order = 0;  // insertion tie-break: keeps the heap a total order
    enum class kind : std::uint8_t { deliver, ack, timeout, recover };
    kind k = kind::deliver;
    msg m;                  // deliver
    std::uint64_t uid = 0;  // ack / timeout
    int broker = 0;         // recover
  };
  struct event_after {
    bool operator()(const sim_event& a, const sim_event& b) const {
      return a.time != b.time ? a.time > b.time : a.order > b.order;
    }
  };
  struct pending_msg {
    msg m;
    int retries = 0;
  };

  void run_op(int origin, msg m);
  void dispatch(const sim_event& e);
  void deliver(const msg& m);
  // Runs the broker handler, makes the records durable, and emits outputs.
  void process(const msg& m);
  // Registers the message as pending and transmits it (first attempt).
  void send_data(msg m);
  // One attempt: drop/delay/duplicate dice, then deliver event(s).
  void transmit(const msg& m);
  void send_ack(const msg& m);
  void crash(int b);
  std::size_t rebuild_from_wal(int b);
  void push_event(sim_event e);
  std::uint64_t latency();

  const topology& topology_;
  const schema& schema_;
  const covering_index_factory& factory_;
  broker_options broker_opts_;
  fault_options opts_;
  std::vector<broker>& brokers_;
  network_metrics& metrics_;

  std::vector<broker_wal> wals_;
  rng rng_;
  std::uint64_t op_ = 0;  // current operation id (the records' `op` key)

  // Per-operation fabric state, reset by run_op.
  std::priority_queue<sim_event, std::vector<sim_event>, event_after> heap_;
  std::uint64_t now_ = 0;
  std::uint64_t order_ = 0;
  std::uint64_t next_uid_ = 0;
  std::map<std::uint64_t, pending_msg> pending_;
  std::vector<char> down_;
  std::vector<std::map<int, std::uint64_t>> next_expected_;  // receiver: from -> seq
  std::vector<std::map<int, std::uint64_t>> next_send_;      // sender: link -> seq
  std::vector<std::map<int, std::map<std::uint64_t, msg>>> buffers_;
  std::vector<sub_id> delivered_;
  std::vector<int> forwards_;  // handle_event scratch
};

}  // namespace subcover
