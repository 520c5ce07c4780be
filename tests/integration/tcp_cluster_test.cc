// Multi-process TCP cluster test: three broker_daemon processes on real
// loopback sockets, driven through the client protocol and verified
// byte-for-byte against the in-process deterministic engine — including a
// SIGKILL of the middle broker with a client operation in flight, restart
// from its WAL directory, and convergence to one of the two legal outcomes
// (operation durably applied cluster-wide, or lost before its first WAL
// append — never anything in between).
//
// Process plumbing: the parent pre-binds every listening socket (port 0,
// resolved with getsockname) and each forked child adopts its own fd via
// transport_options::listen_fd while closing its siblings'. The parent
// keeps all listen fds open, so a SIGKILLed broker's port survives the
// crash and the re-forked child resumes accepting on the very same socket.
// Children _exit() so they never touch gtest's reporting or LSan's atexit
// hooks; all assertions run in the parent.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "subcover.h"
#include "workload/event_gen.h"

namespace subcover {
namespace {

constexpr int kBrokers = 3;

int bind_loopback_listener(int* port_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  EXPECT_EQ(::listen(fd, 32), 0);
  socklen_t len = sizeof addr;
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  *port_out = ntohs(addr.sin_port);
  return fd;
}

[[noreturn]] void broker_child(int id, const schema& s, const std::array<int, kBrokers>& fds,
                               const std::array<int, kBrokers>& ports,
                               const std::string& wal_root) {
  for (int b = 0; b < kBrokers; ++b)
    if (b != id) ::close(fds[b]);
  try {
    transport_options o;
    o.broker_id = id;
    o.listen_fd = fds[id];
    if (id > 0) o.peers.push_back({id - 1, "127.0.0.1", ports[id - 1]});
    if (id + 1 < kBrokers) o.peers.push_back({id + 1, "127.0.0.1", ports[id + 1]});
    o.wal_dir = wal_root + "/w" + std::to_string(id);
    o.seed = 1;
    o.heartbeat_ms = 100;
    o.peer_timeout_ms = 600;
    o.reconnect_base_ms = 10;
    o.reconnect_cap_ms = 200;
    o.checkpoint_every = 16;
    broker_daemon d(
        s, [](const schema& sc) { return std::make_unique<sfc_covering_index>(sc); }, o);
    d.run();
  } catch (...) {
    ::_exit(3);
  }
  ::_exit(0);
}

// Kills any child still alive when the test unwinds (assertion failures
// must not leave daemon processes behind).
struct child_reaper {
  std::array<pid_t, kBrokers>& pids;
  ~child_reaper() {
    for (auto& pid : pids)
      if (pid > 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        pid = -1;
      }
  }
};

std::vector<std::uint64_t> event_values(const event& e) {
  std::vector<std::uint64_t> v;
  v.reserve(static_cast<std::size_t>(e.attribute_count()));
  for (int i = 0; i < e.attribute_count(); ++i) v.push_back(e.value(i));
  return v;
}

// True iff every daemon's routing snapshot is byte-identical to the
// reference network's corresponding broker.
bool cluster_matches(std::array<cluster_client, kBrokers>& clients, const network& ref,
                     int timeout_ms) {
  wire_msg dump;
  dump.type = msg_type::client_dump;
  for (int b = 0; b < kBrokers; ++b) {
    const auto reply = clients[static_cast<std::size_t>(b)].request(dump, timeout_ms);
    if (reply.snapshot != encode_snapshot(ref.broker_at(b).snapshot())) return false;
  }
  return true;
}

TEST(TcpClusterTest, KillAndRecoverConvergesByteIdentical) {
  constexpr int kTimeoutMs = 20000;

  char wal_template[] = "/tmp/subcover-tcp-XXXXXX";
  ASSERT_NE(::mkdtemp(wal_template), nullptr);
  const std::string wal_root = wal_template;

  std::array<int, kBrokers> fds{};
  std::array<int, kBrokers> ports{};
  for (int b = 0; b < kBrokers; ++b) fds[b] = bind_loopback_listener(&ports[b]);

  const schema s = workload::make_sensor_schema();
  std::array<pid_t, kBrokers> pids{-1, -1, -1};
  child_reaper reaper{pids};
  const auto spawn = [&](int id) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) broker_child(id, s, fds, ports, wal_root);
    pids[static_cast<std::size_t>(id)] = pid;
  };
  for (int b = 0; b < kBrokers; ++b) spawn(b);

  std::array<cluster_client, kBrokers> clients;
  const auto connect_all = [&] {
    wire_msg probe;
    probe.type = msg_type::client_dump;
    for (int b = 0; b < kBrokers; ++b) {
      auto& c = clients[static_cast<std::size_t>(b)];
      c.close();
      c.connect("127.0.0.1", ports[static_cast<std::size_t>(b)], kTimeoutMs);
      (void)c.request(probe, kTimeoutMs);  // identify as a client immediately
    }
  };
  connect_all();

  // Two reference trajectories in lockstep: refA never sees the disputed
  // operation, refB does. Pre-dispute they are fed identically (same
  // deterministic engine, so they stay byte-identical and assign the same
  // subscription ids).
  network_options no;
  no.use_covering = true;
  const auto make_ref = [&] {
    return std::make_unique<network>(topology::line(kBrokers), s, no);
  };
  auto refA = make_ref();
  auto refB = make_ref();

  workload::subscription_gen_options wo;
  wo.kind = workload::workload_kind::clustered;
  wo.clusters = 5;
  workload::subscription_gen sgen(s, wo, 7);
  workload::event_gen egen(s, 8);
  rng pick(9);

  // --- phase 1: no faults — subscribe / unsubscribe / publish ---------------
  for (int i = 0; i < 60; ++i) {
    const int b = static_cast<int>(pick.index(kBrokers));
    const subscription sub = sgen.next();
    const sub_id id = refA->subscribe(b, sub);
    ASSERT_EQ(refB->subscribe(b, sub), id);
    wire_msg m;
    m.type = msg_type::client_subscribe;
    m.id = id;
    m.body = sub;
    const auto done = clients[static_cast<std::size_t>(b)].request(m, kTimeoutMs);
    ASSERT_EQ(done.type, msg_type::client_done);
    ASSERT_EQ(done.status, 0);
  }
  for (int i = 0; i < 10; ++i) {
    const auto id = pick.uniform(1, 60);
    const auto owner = refA->owner_broker(id);
    if (!owner) continue;
    refA->unsubscribe(id);
    refB->unsubscribe(id);
    wire_msg m;
    m.type = msg_type::client_unsubscribe;
    m.id = id;
    const auto done = clients[static_cast<std::size_t>(*owner)].request(m, kTimeoutMs);
    ASSERT_EQ(done.status, 0);
  }
  for (int i = 0; i < 12; ++i) {
    const int b = static_cast<int>(pick.index(kBrokers));
    const event ev = egen.next();
    const auto expect = refA->publish(b, ev);
    ASSERT_EQ(refB->publish(b, ev), expect);
    wire_msg m;
    m.type = msg_type::client_publish;
    m.values = event_values(ev);
    const auto done = clients[static_cast<std::size_t>(b)].request(m, kTimeoutMs);
    ASSERT_EQ(done.status, 0);
    EXPECT_EQ(done.delivered, expect) << "publish " << i;
  }

  // Phase-1 convergence: snapshots byte-identical, summed logical counters
  // equal (the physical TCP counters are excluded by same_counters).
  EXPECT_TRUE(cluster_matches(clients, *refA, kTimeoutMs));
  {
    network_metrics summed;
    wire_msg dump;
    dump.type = msg_type::client_dump;
    for (auto& c : clients) summed += c.request(dump, kTimeoutMs).metrics;
    EXPECT_TRUE(same_counters(summed, refA->metrics()));
  }

  // --- phase 2: SIGKILL broker 1 with a client operation in flight ----------
  const subscription disputed = sgen.next();
  const sub_id disputed_id = refB->subscribe(1, disputed);
  {
    wire_msg m;
    m.type = msg_type::client_subscribe;
    m.id = disputed_id;
    m.body = disputed;
    clients[1].send(m);  // no reply awaited — the kill races the processing
  }
  ASSERT_EQ(::kill(pids[1], SIGKILL), 0);
  ASSERT_EQ(::waitpid(pids[1], nullptr, 0), pids[1]);
  pids[1] = -1;

  // Restart broker 1 from its WAL directory on the same listening socket.
  // (waitpid above also guarantees the WAL lockfile's flock is released.)
  spawn(1);
  connect_all();

  // Converge to exactly one of the two legal outcomes. A transient
  // mid-resume state can match neither; a full match is stable because the
  // disputed operation is the only one outstanding.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  network* ref = nullptr;
  bool applied = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cluster_matches(clients, *refB, kTimeoutMs)) {
      ref = refB.get();
      applied = true;
      break;
    }
    if (cluster_matches(clients, *refA, kTimeoutMs)) {
      ref = refA.get();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ASSERT_NE(ref, nullptr) << "cluster matched neither with- nor without-op reference";
  if (applied) {
    // Keep the surviving reference's id allocator aligned with refB's.
    ASSERT_EQ(refA->subscribe(1, disputed), disputed_id);
  }

  // The restarted broker must have actually recovered from its WAL.
  {
    wire_msg dump;
    dump.type = msg_type::client_dump;
    EXPECT_GE(clients[1].request(dump, kTimeoutMs).metrics.recoveries, 1u);
  }

  // --- phase 3: keep driving through the recovered cluster ------------------
  for (int i = 0; i < 30; ++i) {
    const int b = static_cast<int>(pick.index(kBrokers));
    const subscription sub = sgen.next();
    const sub_id id = ref->subscribe(b, sub);
    wire_msg m;
    m.type = msg_type::client_subscribe;
    m.id = id;
    m.body = sub;
    const auto done = clients[static_cast<std::size_t>(b)].request(m, kTimeoutMs);
    ASSERT_EQ(done.status, 0);
  }
  for (int i = 0; i < 12; ++i) {
    const int b = static_cast<int>(pick.index(kBrokers));
    const event ev = egen.next();
    const auto expect = ref->publish(b, ev);
    wire_msg m;
    m.type = msg_type::client_publish;
    m.values = event_values(ev);
    const auto done = clients[static_cast<std::size_t>(b)].request(m, kTimeoutMs);
    ASSERT_EQ(done.status, 0);
    EXPECT_EQ(done.delivered, expect) << "post-recovery publish " << i;
  }
  EXPECT_TRUE(cluster_matches(clients, *ref, kTimeoutMs));

  // Orderly shutdown: every daemon checkpoints and exits 0.
  for (auto& c : clients) {
    wire_msg m;
    m.type = msg_type::client_shutdown;
    c.send(m);
  }
  for (int b = 0; b < kBrokers; ++b) {
    int status = 0;
    ASSERT_EQ(::waitpid(pids[b], &status, 0), pids[b]);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "broker " << b;
    pids[b] = -1;
  }
  for (const int fd : fds) ::close(fd);
  std::filesystem::remove_all(wal_root);
}

TEST(TcpClusterTest, WithdrawalThatReforwardsCompletes) {
  // At an end broker of the line: subscribe A, subscribe B (covered by A,
  // so suppressed), then withdraw A. The end broker sends its neighbor two
  // data messages under the one withdrawal op — the unsubscribe of A and
  // the re-forwarded subscribe of B — and each must be acknowledged on its
  // own for the client's operation to complete.
  constexpr int kTimeoutMs = 10000;

  char wal_template[] = "/tmp/subcover-tcp-XXXXXX";
  ASSERT_NE(::mkdtemp(wal_template), nullptr);
  const std::string wal_root = wal_template;

  std::array<int, kBrokers> fds{};
  std::array<int, kBrokers> ports{};
  for (int b = 0; b < kBrokers; ++b) fds[b] = bind_loopback_listener(&ports[b]);

  const schema s = workload::make_uniform_schema(2, 8);
  std::array<pid_t, kBrokers> pids{-1, -1, -1};
  child_reaper reaper{pids};
  for (int b = 0; b < kBrokers; ++b) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) broker_child(b, s, fds, ports, wal_root);
    pids[static_cast<std::size_t>(b)] = pid;
  }
  std::array<cluster_client, kBrokers> clients;
  wire_msg probe;
  probe.type = msg_type::client_dump;
  for (int b = 0; b < kBrokers; ++b) {
    auto& c = clients[static_cast<std::size_t>(b)];
    c.connect("127.0.0.1", ports[static_cast<std::size_t>(b)], kTimeoutMs);
    (void)c.request(probe, kTimeoutMs);  // identify as a client immediately
  }

  network_options no;
  no.use_covering = true;
  network ref(topology::line(kBrokers), s, no);
  constexpr int kEnd = kBrokers - 1;
  const auto subscribe = [&](std::uint64_t lo, std::uint64_t hi) {
    const subscription sub(s, {{lo, hi}, {lo, hi}});
    wire_msg m;
    m.type = msg_type::client_subscribe;
    m.id = ref.subscribe(kEnd, sub);
    m.body = sub;
    return std::pair{m.id, clients[kEnd].request(m, kTimeoutMs)};
  };
  const auto [outer, outer_done] = subscribe(10, 200);
  ASSERT_EQ(outer_done.status, 0);
  ASSERT_EQ(subscribe(50, 100).second.status, 0);

  ref.unsubscribe(outer);
  wire_msg m;
  m.type = msg_type::client_unsubscribe;
  m.id = outer;
  const auto done = clients[kEnd].request(m, kTimeoutMs);
  EXPECT_EQ(done.type, msg_type::client_done);
  EXPECT_EQ(done.status, 0);
  // The withdrawal really re-forwarded, and every broker converged.
  EXPECT_GE(ref.metrics().reforwards, 1u);
  EXPECT_TRUE(cluster_matches(clients, ref, kTimeoutMs));

  for (auto& c : clients) {
    wire_msg stop;
    stop.type = msg_type::client_shutdown;
    c.send(stop);
  }
  for (int b = 0; b < kBrokers; ++b) {
    int status = 0;
    ASSERT_EQ(::waitpid(pids[b], &status, 0), pids[b]);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "broker " << b;
    pids[b] = -1;
  }
  for (const int fd : fds) ::close(fd);
  std::filesystem::remove_all(wal_root);
}

}  // namespace
}  // namespace subcover
