// TCP transport: the network's fourth execution engine. One OS process per
// broker (broker_daemon), real sockets between them, and the same logical
// machinery the fault engine proved out in simulation — WAL-append before
// ack, (op, from, seq) idempotency keys, duplicate suppression — now
// defending against what the OS actually does: partial writes, torn
// frames, peer death, and SIGKILL.
//
// Topology and roles. The overlay is the usual acyclic broker tree; each
// daemon knows its own id and its neighbors' addresses. The higher-id
// endpoint of every edge initiates the connection (no simultaneous-connect
// glare); the first frame each way is `hello` carrying the sender's broker
// id. Anything else first is a protocol violation — the connection is
// dropped. Clients (the workload driver, the supervisor) connect to any
// broker and speak the client_* half of the protocol (broker/wire.h).
//
// Reliability model — what replaces the fault engine's fabric:
//
//   * TCP gives per-connection ordered, gap-free delivery, so the
//     out-of-order buffering of the simulated fabric disappears: a data
//     message is either the next expected seq (fresh), an earlier seq
//     (duplicate — possible only via reconnect replay), or a protocol
//     violation.
//   * Every inter-broker data message sits in the sender's per-link
//     unacked ledger until its ack arrives. There is no retransmission
//     timer: TCP either delivers or the connection dies, and on every
//     (re)connect the whole ledger for that link is replayed in order.
//     Duplicates therefore arise only from reconnect replay, and the
//     receiver suppresses them by (op, from, seq).
//   * Acks cascade: a broker acks its parent for (op, seq) only after its
//     OWN forwards for the op are all acked, and the ack aggregates every
//     subscription id delivered in that subtree. The origin's client_done
//     thus carries the cluster-wide delivered set — byte-identical to the
//     in-process deterministic engine's publish() return — and cluster
//     quiescence needs no global coordinator.
//   * WAL-append before ack, exactly as in the fault engine. A restarted
//     daemon rebuilds its duplicate-suppression keys from the post-snapshot
//     log records plus the aux blob the previous incarnation stored beside
//     its snapshot (broker_wal::write_snapshot aux — so checkpoint
//     compaction cannot widen the exactly-once window).
//
// Crash recovery — the part the fault engine deliberately left out
// ("sender-side transport state lives below the crash line"). Here nothing
// lives below the crash line: SIGKILL takes the ledgers and op progress
// with it. Recovery is by deterministic re-emission:
//
//   * A duplicate data message whose record is still in the log replays
//     that record's emissions (subscribe: forwarded_links; unsubscribe:
//     withdrawals then reforwards, original order) with regenerated
//     per-op per-link seq numbers — which match the originals, because
//     each data message's sends on a link continue after those the op's
//     earlier messages logged there, in deterministic order (one op can
//     bring a broker several messages: a withdrawal that re-forwards).
//     Downstream brokers suppress what they already applied and re-ack;
//     fresh receivers just process.
//   * A duplicate publish re-runs handle_event (events mutate no routing
//     state and the cluster runs one operation at a time, so the recompute
//     sees the same routing tables) using the event payload carried by the
//     duplicate itself, re-emits, and re-aggregates the delivered set from
//     its children's re-acks — reconstructing the exact ack payload the
//     crash destroyed, recursively.
//   * A duplicate whose record was checkpointed away (its key lives in the
//     aux blob) means the subtree completed before the checkpoint:
//     subscribe/unsubscribe re-ack empty immediately; publish recomputes
//     as above.
//   * Records with from == kLocalLink (client-origin) are resumed
//     spontaneously at startup — their client is gone, so nobody would
//     ever retransmit them — driving any half-propagated client operation
//     to cluster-wide completion. (The client_done for such an orphaned
//     operation is dropped; the driver that never got it reconnects and
//     re-probes or re-sends.)
//
// Exactly-once applies to *state*; deliveries to local subscribers are
// at-least-once across client retries of an interrupted publish (the
// standard pub/sub contract). Duplicate-suppression keys are kept for the
// daemon's lifetime and persisted across checkpoints; a production
// implementation would prune them with completion watermarks — out of
// scope here and documented in docs/ARCHITECTURE.md.
//
// Liveness: peer connections heartbeat after heartbeat_ms of send
// idleness; rx silence past peer_timeout_ms counts heartbeats_missed,
// drops the connection, and (on the initiating side) schedules a seeded
// exponential-backoff reconnect. Physical counters (reconnects,
// heartbeats_missed, bytes_on_wire, partial_writes) land in
// network_metrics but are excluded from same_counters.
#pragma once

#include <compare>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "broker/wal.h"
#include "broker/wire.h"
#include "util/random.h"

namespace subcover {

struct peer_addr {
  int id = 0;
  std::string host;
  int port = 0;
};

struct transport_options {
  int broker_id = 0;
  std::string listen_host = "127.0.0.1";
  int listen_port = 0;  // 0 = ephemeral (resolved port via listen_port())
  // A pre-bound, listening descriptor to adopt instead of binding
  // listen_host:listen_port. This is how the multi-process test gives a
  // SIGKILLed broker the *same* port back: the parent binds once and the
  // re-forked child inherits the fd.
  int listen_fd = -1;
  std::vector<peer_addr> peers;  // overlay neighbors
  std::string wal_dir;           // empty = in-memory WAL (no durability)
  wal_options wal;
  std::uint64_t seed = 1;  // reconnect-backoff jitter
  int heartbeat_ms = 500;
  int peer_timeout_ms = 2500;
  int connect_timeout_ms = 1000;
  int reconnect_base_ms = 25;
  int reconnect_cap_ms = 1600;
  std::uint64_t checkpoint_every = 64;  // records; 0 disables
  broker_options broker;
};

// One broker process: event loop, sockets, WAL, and the broker itself.
// Single-threaded; run() owns the calling thread until client_shutdown or
// stop(). step() exposes one poll iteration so in-process tests can
// interleave several daemons deterministically without threads.
class broker_daemon {
 public:
  broker_daemon(const schema& s, const covering_index_factory& factory,
                transport_options opts);
  ~broker_daemon();
  broker_daemon(const broker_daemon&) = delete;
  broker_daemon& operator=(const broker_daemon&) = delete;

  // The bound listening port (after construction resolves port 0).
  [[nodiscard]] int listen_port() const { return listen_port_; }
  // Poll loop until shutdown. `max_idle_ms` < 0 = forever.
  void run();
  // One poll iteration with the given timeout; returns false once
  // shutdown has been requested.
  bool step(int timeout_ms);
  void stop() { stopping_ = true; }

  [[nodiscard]] const network_metrics& metrics() const { return metrics_; }
  [[nodiscard]] const broker& state() const { return broker_; }

 private:
  struct conn;       // one socket: peer, client, or not-yet-identified
  struct op_state;   // one in-flight data message's ack bookkeeping
  // The data message an op_state (and its WAL record) belongs to. One
  // operation can bring a broker several data messages over the same link
  // — a withdrawal that re-forwards sends the unsubscribe and then the
  // re-forwarded subscribe — and each is acknowledged on its own.
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
  struct peer_slot {
    peer_addr addr;
    conn* c = nullptr;          // live identified connection, if any
    std::deque<ledger_entry> unacked;  // send order; replayed on reconnect
    int backoff_exp = 0;
    std::int64_t next_connect_ms = 0;  // earliest reconnect attempt
    bool ever_connected = false;
  };

  void open_listener();
  void poll_once(int timeout_ms);
  std::int64_t now_ms() const;
  void start_connects(std::int64_t now);
  void finish_connect(conn& c);
  void accept_ready();
  void read_ready(conn& c);
  void write_ready(conn& c);
  void close_conn(conn& c, const char* why);
  void identify_peer(conn& c, int peer_id);
  void queue_bytes(conn& c, const std::vector<std::uint8_t>& bytes);
  void send_to_peer(int peer_id, const wire_msg& m);
  void flush_ledger(peer_slot& p);
  void heartbeats(std::int64_t now);

  void handle_frame(conn& c, const std::vector<std::uint8_t>& payload);
  void handle_peer_msg(conn& c, const wire_msg& m);
  void handle_client_msg(conn& c, const wire_msg& m);
  void handle_data(int from, const wire_msg& m);
  void handle_ack(int from, const wire_msg& m);

  // Fresh processing of one data message (the fault engine's process()).
  void process_fresh(int from, const wire_msg& m, op_state& st);
  // Replay emissions for a duplicate (crash-recovery re-emission).
  void replay_record(const wal_record& r, op_state& st);
  void replay_publish(int from, const wire_msg& m, op_state& st);
  void emit_data(std::uint64_t op, int link, wire_msg m, op_state& st);
  // Sends to `link` made by the data messages of `op` this broker received
  // before st's — the first seq st's own sends there take.
  std::uint64_t earlier_sends(std::uint64_t op, const op_state& st, int link) const;
  void complete_op(std::uint64_t op, op_state& st);
  void note_applied(std::uint64_t op, int from, std::uint64_t seq);
  void maybe_checkpoint();
  std::vector<std::uint8_t> dedup_aux() const;
  void load_dedup_aux(const std::vector<std::uint8_t>& aux);
  void resume_client_ops();

  schema schema_;
  covering_index_factory factory_;
  transport_options opts_;
  broker_wal wal_;
  broker broker_;
  network_metrics metrics_;
  rng rng_;

  int listen_fd_ = -1;
  int listen_port_ = 0;
  bool stopping_ = false;
  std::vector<std::unique_ptr<conn>> conns_;
  std::map<int, peer_slot> peers_;  // by broker id

  std::uint64_t op_counter_ = 0;  // client ops originated here
  // Duplicate suppression: op -> (from -> next expected seq). Grows with
  // operation count (see header comment — lifetime-scoped by design).
  std::map<std::uint64_t, std::map<int, std::uint64_t>> applied_;
  // Post-snapshot records by data message, for duplicate-replay; cleared at
  // checkpoint.
  std::map<msg_key, wal_record> records_;
  std::map<msg_key, std::unique_ptr<op_state>> active_;
  std::vector<int> forwards_;  // handle_event scratch
};

// Blocking client used by drivers, tests, and the supervisor: connect to a
// daemon, inject client operations, await replies. Reconnects are the
// caller's policy (call connect() again).
class cluster_client {
 public:
  cluster_client() = default;
  ~cluster_client();
  cluster_client(const cluster_client&) = delete;
  cluster_client& operator=(const cluster_client&) = delete;

  // Connect with retry until `deadline_ms` elapses; throws wire_error on
  // failure. Safe to call on a dead client to reconnect.
  void connect(const std::string& host, int port, int deadline_ms);
  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  void close();

  void send(const wire_msg& m);
  // Next reply frame; nullopt on timeout. Throws wire_error if the
  // connection died (caller reconnects).
  std::optional<wire_msg> recv(int timeout_ms);
  // send + recv of the matching reply; throws wire_error on timeout/death.
  wire_msg request(const wire_msg& m, int timeout_ms);

 private:
  int fd_ = -1;
  frame_decoder decoder_;
};

}  // namespace subcover
