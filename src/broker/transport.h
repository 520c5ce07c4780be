// TCP transport: the network's third execution engine. One OS process per
// broker (broker_daemon), real sockets between them, defending against
// what the OS actually does: partial writes, torn frames, peer death, and
// SIGKILL.
//
// Topology and roles. The overlay is the usual acyclic broker tree; each
// daemon knows its own id and its neighbors' addresses. The higher-id
// endpoint of every edge initiates the connection (no simultaneous-connect
// glare); the first frame each way is `hello` carrying the sender's broker
// id. Anything else first is a protocol violation — the connection is
// dropped. Clients (the workload driver, the supervisor) connect to any
// broker and speak the client_* half of the protocol (broker/wire.h).
//
// The protocol itself — per-link sequencing, duplicate suppression,
// WAL-append before ack, ledger replay and crash recovery by re-emission
// — is broker_node (broker/broker_node.h), the same I/O-free core the
// seeded fault fabric drives. The daemon adds what the OS needs: poll(2),
// sockets, framing, heartbeats and reconnect backoff. A peer connection
// being identified is the core's link_up (which replays that link's
// ledger); its close for any reason (peer death, torn frame, sequence gap,
// missed heartbeats) is link_down. SIGKILL loses the core with the
// process; a restarted daemon rebuilds it from its WAL directory.
//
// Liveness: peer connections heartbeat after heartbeat_ms of send
// idleness; rx silence past peer_timeout_ms counts heartbeats_missed,
// drops the connection, and (on the initiating side) schedules a seeded
// exponential-backoff reconnect. Physical counters (reconnects,
// heartbeats_missed, bytes_on_wire, partial_writes) land in
// network_metrics but are excluded from same_counters.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "broker/broker_node.h"
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
  [[nodiscard]] const broker& state() const { return node_.state(); }

 private:
  struct conn;  // one socket: peer, client, or not-yet-identified
  struct peer_slot {
    peer_addr addr;
    conn* c = nullptr;  // live identified connection, if any
    int backoff_exp = 0;
    std::int64_t next_connect_ms = 0;  // earliest reconnect attempt
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
  void heartbeats(std::int64_t now);

  void handle_frame(conn& c, const std::vector<std::uint8_t>& payload);
  void handle_client_msg(conn& c, const wire_msg& m);
  // Writes what the core produced: sends to live peer connections,
  // completions to their (still connected) clients.
  void flush_outbox();

  transport_options opts_;
  broker_wal wal_;
  network_metrics metrics_;
  broker_node node_;
  rng rng_;

  int listen_fd_ = -1;
  int listen_port_ = 0;
  bool stopping_ = false;
  std::vector<std::unique_ptr<conn>> conns_;
  std::uint64_t next_conn_id_ = 0;  // client tags handed to the core
  std::map<int, peer_slot> peers_;  // by broker id
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
