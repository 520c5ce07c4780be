// The broker reliability protocol, I/O-free: one broker's routing state,
// write-ahead log and per-link sequencing, driven by inputs and answering
// with outputs. It never touches a socket, a clock or a random number, so
// two drivers run the very same protocol:
//
//   * the TCP daemon (broker/transport.h) feeds it decoded frames and
//     connection up/down events, and writes its outputs to sockets;
//   * the seeded fault fabric (broker/fault_engine.h) feeds it messages
//     from simulated FIFO links that reset, delay and crash, which is
//     deterministic simulation testing of the daemon's protocol.
//
// Inputs: a client operation (client_op), a data or ack message from a
// peer link (receive), and link up/down events. Outputs (out()): sends
// of (link, wire_msg) to peers and client completions. Sends are emitted
// only on links that are up; the driver writes them in order.
//
// Reliability model:
//
//   * Links are ordered and gap-free while up (TCP, or the fabric's FIFO
//     links). A data message is the next expected seq of its (op, link)
//     channel (fresh), an earlier seq (duplicate — arises only from a
//     reconnect replay), or a protocol violation (wire_error).
//   * Every data message sent to a peer sits in that link's unacked
//     ledger until its ack arrives. There is no retransmission timer: a
//     link either delivers or goes down, and link_up replays the link's
//     whole ledger in order. The receiver suppresses duplicates by
//     (op, from, seq).
//   * Acks cascade: a broker acks its parent for (op, seq) only after its
//     OWN forwards for that message are all acked, and the ack aggregates
//     every subscription id delivered in that subtree. The origin's
//     client_done thus carries the cluster-wide delivered set —
//     byte-identical to the deterministic engine's publish() return — and
//     quiescence needs no global coordinator.
//   * WAL-append before ack. Every record carries its idempotency key
//     (op, from, seq); a restarted node rebuilds its duplicate-suppression
//     keys from the post-snapshot records plus the aux blob stored beside
//     its snapshot, so checkpoint compaction cannot widen the exactly-once
//     window.
//
// Crash recovery. A crash (SIGKILL, or the fabric discarding the node)
// takes the ledgers and op progress with it; a node rebuilt from its WAL
// recovers by deterministic re-emission:
//
//   * A duplicate data message whose record is still logged replays that
//     record's emissions (subscribe: forwarded_links; unsubscribe:
//     withdrawals then reforwards, original order) with regenerated
//     per-op per-link seqs — which match the originals, because each data
//     message's sends on a link continue after those the op's earlier
//     messages made there (one op can bring a node several messages: a
//     withdrawal that re-forwards). Those earlier send counts are kept per
//     message and carried across checkpoints in the aux blob.
//     Downstream nodes suppress what they already applied and re-ack.
//   * A duplicate publish re-runs handle_event with the event payload the
//     duplicate carries (events mutate no routing state and the cluster
//     runs one operation at a time, so the recompute sees the same
//     tables), re-emits, and re-aggregates the delivered set from its
//     children's re-acks.
//   * A duplicate whose record was checkpointed away means its subtree
//     completed before the checkpoint: subscribe/unsubscribe re-ack empty
//     at once; publish recomputes as above.
//   * Every logged subscribe/unsubscribe is resumed at construction:
//     re-emitted and kept in flight until its children re-ack. A
//     client-origin one has no parent to replay it, so this is what drives
//     a half-propagated client operation to cluster-wide completion (its
//     completion has no client to go to and is dropped). A peer-origin one
//     whose sends the crash lost must stay in flight — and so must not be
//     compacted away — until its subtree has them.
//
// Exactly-once applies to *state*; deliveries to local subscribers are
// at-least-once across client retries of an interrupted publish (the
// standard pub/sub contract). Duplicate-suppression keys and per-message
// send counts are kept for the node's lifetime and persisted across
// checkpoints; pruning them at ack watermarks is an open item
// (ROADMAP.md).
#pragma once

#include <compare>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "broker/broker.h"
#include "broker/wal.h"
#include "broker/wire.h"

namespace subcover {

class broker_node {
 public:
  // A client_done for the client tag an operation was started with.
  struct completion {
    std::uint64_t client = 0;
    wire_msg done;
  };
  // Everything the inputs so far produced, in order. The driver takes it
  // (std::exchange(node.out(), {})) after each input.
  struct outbox {
    std::vector<std::pair<int, wire_msg>> sends;  // (peer link, data or ack)
    std::vector<completion> completions;
  };

  // Rebuilds the node from `wal` (empty = a fresh broker), then resumes
  // its logged subscribe/unsubscribe records. Every link starts down. `wal` and `metrics`
  // are borrowed and outlive the node: the WAL is what survives a crash.
  // Snapshot-compacts the WAL at any quiescent moment with at least
  // `checkpoint_every` records since the last snapshot; 0 disables.
  broker_node(int id, const schema& s, const covering_index_factory& factory,
              broker_options options, const std::vector<int>& links,
              std::uint64_t checkpoint_every, broker_wal& wal, network_metrics& metrics);
  ~broker_node();
  broker_node(const broker_node&) = delete;
  broker_node& operator=(const broker_node&) = delete;

  // Starts one client operation (client_subscribe / client_unsubscribe /
  // client_publish) at this broker; its client_done is tagged `client`
  // (0 = nobody to tell). On malformed input (unknown id, bad event width)
  // the client is answered with status 1 and the exception propagates.
  void client_op(const wire_msg& m, std::uint64_t client);
  // A data (subscribe / unsubscribe / publish) or ack message from `link`.
  // Throws wire_error on a sequence gap: the link's history is corrupt and
  // the driver must drop it.
  void receive(int link, const wire_msg& m);
  // The link to `link` came up: replays its unacked ledger, oldest first.
  void link_up(int link);
  // The link to `link` went down: what was in flight on it is lost.
  void link_down(int link);
  // Snapshot-compacts the WAL if no operation is in flight (an orderly
  // shutdown's final checkpoint). Returns whether it did.
  bool checkpoint();

  [[nodiscard]] outbox& out() { return out_; }
  [[nodiscard]] const broker& state() const { return broker_; }
  // No operation in flight and every ledger acked.
  [[nodiscard]] bool quiescent() const;
  // Log records kept for duplicate replay (those since the last snapshot).
  [[nodiscard]] std::size_t logged_records() const { return records_.size(); }

 private:
  struct op_state;  // one in-flight data message's ack bookkeeping
  // The data message an op_state (and its WAL record) belongs to.
  struct msg_key {
    std::uint64_t op = 0;
    int from = 0;  // sender broker id, or kLocalLink for a client
    std::uint64_t seq = 0;
    auto operator<=>(const msg_key&) const = default;
  };
  struct ledger_entry {
    std::uint64_t op = 0;
    std::uint64_t seq = 0;
    wire_msg msg;
    msg_key owner;  // the in-flight state awaiting this send's ack
  };
  struct link_state {
    bool up = false;
    bool ever_up = false;               // a later link_up is a reconnect
    std::deque<ledger_entry> unacked;   // send order; replayed on link_up
  };

  void handle_data(int from, const wire_msg& m);
  void handle_ack(int from, const wire_msg& m);
  // Fresh processing of one data message.
  void process_fresh(int from, const wire_msg& m, op_state& st);
  // Re-emission for a duplicate (crash recovery).
  void replay_record(const wal_record& r, op_state& st);
  void replay_publish(int from, const wire_msg& m, op_state& st);
  void emit_data(std::uint64_t op, int link, wire_msg m, op_state& st);
  // Sends to `link` made by the data messages of `op` this node received
  // before st's — the first seq st's own sends there take.
  std::uint64_t earlier_sends(std::uint64_t op, const op_state& st, int link) const;
  // Logs `r` and makes its key and send counts known.
  void log_record(const wal_record& r);
  void remember(const wal_record& r);
  void finish(const msg_key& key, std::unique_ptr<op_state> st);
  void complete_op(std::uint64_t op, op_state& st);
  void maybe_checkpoint();
  void sync_wal_bytes();
  std::vector<std::uint8_t> aux_blob() const;
  void load_aux(const std::vector<std::uint8_t>& aux);
  void resume_records();

  int id_;
  schema schema_;
  std::uint64_t checkpoint_every_;
  broker_wal& wal_;
  network_metrics& metrics_;
  broker broker_;
  std::uint64_t wal_seen_ = 0;  // wal_.bytes_appended() already in metrics_
  std::map<int, link_state> links_;
  outbox out_;

  std::uint64_t op_counter_ = 0;  // client ops originated here
  // Duplicate suppression: op -> (from -> next expected seq).
  std::map<std::uint64_t, std::map<int, std::uint64_t>> applied_;
  // Per logged subscribe/unsubscribe message: sends per link, for
  // earlier_sends. Survives checkpoints (aux blob).
  std::map<msg_key, std::map<int, std::uint64_t>> sent_;
  // Post-snapshot records by data message, for duplicate replay; cleared
  // at checkpoint.
  std::map<msg_key, wal_record> records_;
  std::map<msg_key, std::unique_ptr<op_state>> active_;
  std::vector<int> forwards_;  // handle_event scratch
};

}  // namespace subcover
