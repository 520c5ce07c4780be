// Scripted schedules through the I/O-free broker core (broker_node): three
// nodes on a line P - B - C, messages moved by hand, and the final routing
// state compared with the deterministic engine's.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "broker/broker_node.h"
#include "broker/network.h"
#include "covering/sfc_covering_index.h"
#include "pubsub/parser.h"
#include "workload/subscription_gen.h"

namespace subcover {
namespace {

covering_index_factory factory() {
  return [](const schema& sc) { return std::make_unique<sfc_covering_index>(sc); };
}

struct line_cluster {
  static constexpr int kP = 0, kB = 1, kC = 2;
  schema s;
  topology t = topology::line(3);
  std::vector<broker_wal> wals;
  network_metrics metrics;
  std::vector<std::unique_ptr<broker_node>> nodes;
  std::deque<std::tuple<int, int, wire_msg>> wire;  // (from, to, msg), send order

  explicit line_cluster(const schema& sc) : s(sc) {
    wals.reserve(3);
    for (int b = 0; b < 3; ++b) wals.emplace_back();
    for (int b = 0; b < 3; ++b) start(b);
    connect(kP, kB);
    connect(kB, kC);
  }
  void start(int b) {
    nodes.resize(3);
    nodes[static_cast<std::size_t>(b)] = std::make_unique<broker_node>(
        b, s, factory(), broker_options{}, t.neighbors(b), 1, wals[static_cast<std::size_t>(b)],
        metrics);
  }
  broker_node& node(int b) { return *nodes[static_cast<std::size_t>(b)]; }
  void collect(int b) {
    auto out = std::exchange(node(b).out(), {});
    for (auto& [to, m] : out.sends) wire.emplace_back(b, to, std::move(m));
  }
  void connect(int a, int b) {
    node(a).link_up(b);
    node(b).link_up(a);
    collect(a);
    collect(b);
  }
  // Loses everything in flight between a and b, then reconnects them.
  void reset(int a, int b) {
    std::erase_if(wire, [&](const auto& w) {
      const auto [f, to, m] = w;
      return (f == a && to == b) || (f == b && to == a);
    });
    node(a).link_down(b);
    node(b).link_down(a);
    connect(a, b);
  }
  // Delivers in send order, skipping (and keeping) messages between the
  // `held` pair, until only those are left.
  void pump(std::pair<int, int> held = {-1, -1}) {
    for (;;) {
      auto it = std::find_if(wire.begin(), wire.end(), [&](const auto& w) {
        const int f = std::get<0>(w), to = std::get<1>(w);
        return !((f == held.first && to == held.second) || (f == held.second && to == held.first));
      });
      if (it == wire.end()) return;
      auto [f, to, m] = std::move(*it);
      wire.erase(it);
      node(to).receive(f, m);
      collect(to);
    }
  }
  // Delivers the oldest message from `from` to `to` alone.
  void deliver_next(int from, int to) {
    auto it = std::find_if(wire.begin(), wire.end(), [&](const auto& w) {
      return std::get<0>(w) == from && std::get<1>(w) == to;
    });
    ASSERT_NE(it, wire.end());
    auto [f, t2, m] = std::move(*it);
    wire.erase(it);
    node(to).receive(f, m);
    collect(to);
  }
  void client(int b, msg_type type, sub_id id, const subscription& body) {
    wire_msg m;
    m.type = type;
    m.id = id;
    m.body = body;
    node(b).client_op(m, 1);
    collect(b);
  }
};

void expect_matches(line_cluster& c, const network& det) {
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(c.node(i).state().table(), det.broker_at(i).table()) << "broker " << i;
    for (int j = 0; j < 3; ++j)
      EXPECT_EQ(c.node(i).state().forwarded_ids(j), det.broker_at(i).forwarded_ids(j))
          << "broker " << i << " link " << j;
    EXPECT_TRUE(c.node(i).quiescent()) << "broker " << i;
  }
}

// P holds s1 (forwarded to B and on to C) and s2 (covered by s1, so never
// forwarded). Withdrawing s1 brings B two messages of one op from P: the
// withdrawal, then the re-forward of s2.
struct withdrawal_setup {
  schema s = workload::make_uniform_schema(1, 8);
  subscription s1 = parse_subscription(s, "attr0 <= 200");
  subscription s2 = parse_subscription(s, "attr0 <= 100");
  network det{topology::line(3), s, network_options{}};
  withdrawal_setup() {
    (void)det.subscribe(0, s1);
    (void)det.subscribe(0, s2);
    EXPECT_TRUE(det.unsubscribe(1));
  }
};

TEST(BrokerNode, CheckpointBetweenTwoMessagesOfOneOpKeepsSeqs) {
  withdrawal_setup w;
  line_cluster c(w.s);
  c.client(0, msg_type::client_subscribe, 1, w.s1);
  c.pump();
  c.client(0, msg_type::client_subscribe, 2, w.s2);
  c.pump();
  c.client(0, msg_type::client_unsubscribe, 1, subscription{});
  // B applies the withdrawal and its subtree completes (checkpoint_every =
  // 1 compacts B's log) while the re-forward is still in flight; then a
  // P-B reset loses it, and P replays both.
  c.deliver_next(line_cluster::kP, line_cluster::kB);
  c.pump({line_cluster::kP, line_cluster::kB});
  c.reset(line_cluster::kP, line_cluster::kB);
  c.pump();
  expect_matches(c, w.det);
  EXPECT_GT(c.metrics.duplicates_suppressed, 0U);
}

TEST(BrokerNode, RestartKeepsLoggedMessagesInFlightUntilReacked) {
  withdrawal_setup w;
  line_cluster c(w.s);
  c.client(0, msg_type::client_subscribe, 1, w.s1);
  c.pump();
  c.client(0, msg_type::client_subscribe, 2, w.s2);
  c.pump();
  c.client(0, msg_type::client_unsubscribe, 1, subscription{});
  // B logs both messages, then dies before anything it sent leaves.
  c.deliver_next(line_cluster::kP, line_cluster::kB);
  c.deliver_next(line_cluster::kP, line_cluster::kB);
  std::erase_if(c.wire, [](const auto& w) {
    return std::get<0>(w) == line_cluster::kB || std::get<1>(w) == line_cluster::kB;
  });
  c.node(line_cluster::kP).link_down(line_cluster::kB);
  c.node(line_cluster::kC).link_down(line_cluster::kB);
  c.start(line_cluster::kB);  // rebuilt from its WAL
  c.connect(line_cluster::kP, line_cluster::kB);
  c.connect(line_cluster::kB, line_cluster::kC);
  // The withdrawal's replay completes first; the re-forward's replay
  // arrives only after B could have checkpointed.
  c.deliver_next(line_cluster::kP, line_cluster::kB);
  c.pump({line_cluster::kP, line_cluster::kB});
  c.pump();
  expect_matches(c, w.det);
  EXPECT_GT(c.metrics.recoveries, 0U);
}

}  // namespace
}  // namespace subcover
