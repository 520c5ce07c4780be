#include "broker/network.h"

#include <gtest/gtest.h>

#include "broker/broker.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "covering/linear_covering_index.h"
#include "covering/sfc_covering_index.h"
#include "pubsub/parser.h"
#include "workload/event_gen.h"
#include "workload/subscription_gen.h"

namespace subcover {
namespace {

network_options with_linear(bool covering, double eps = 0.0) {
  network_options o;
  o.use_covering = covering;
  o.epsilon = eps;
  o.factory = [](const schema& s) { return std::make_unique<linear_covering_index>(s); };
  return o;
}

TEST(Network, SingleBrokerDelivery) {
  const schema s = workload::make_uniform_schema(1, 8);
  network net(topology::line(1), s, with_linear(true));
  const auto id = net.subscribe(0, parse_subscription(s, "attr0 <= 10"));
  const auto delivered = net.publish(0, event(s, {5}));
  EXPECT_EQ(delivered, (std::vector<sub_id>{id}));
  EXPECT_TRUE(net.publish(0, event(s, {50})).empty());
}

TEST(Network, DeliveryAcrossLine) {
  const schema s = workload::make_uniform_schema(1, 8);
  network net(topology::line(3), s, with_linear(true));
  const auto id = net.subscribe(2, parse_subscription(s, "attr0 >= 100"));
  const auto delivered = net.publish(0, event(s, {200}));
  EXPECT_EQ(delivered, (std::vector<sub_id>{id}));
  // Two broker-to-broker hops for the subscription and for the event.
  EXPECT_EQ(net.metrics().subscription_messages, 2U);
  EXPECT_EQ(net.metrics().event_messages, 2U);
}

TEST(Network, EventsOnlyTravelWhereSubscriptionsLead) {
  const schema s = workload::make_uniform_schema(1, 8);
  network net(topology::star(4), s, with_linear(true));
  (void)net.subscribe(1, parse_subscription(s, "attr0 <= 10"));
  net.mutable_metrics().reset_traffic();
  (void)net.publish(2, event(s, {200}));  // matches nothing
  // Event goes 2 -> 0 (star center)? No: center has no matching table entry
  // for any link, so it stops at the publisher.
  EXPECT_EQ(net.metrics().event_messages, 0U);
  (void)net.publish(2, event(s, {5}));
  // 2 -> 0 -> 1: two hops.
  EXPECT_EQ(net.metrics().event_messages, 2U);
}

TEST(Network, CoveringReducesSubscriptionTraffic) {
  const schema s = workload::make_uniform_schema(1, 8);
  network with_cov(topology::line(5), s, with_linear(true));
  network without(topology::line(5), s, with_linear(false));
  // A broad subscription then many narrow ones from the same broker.
  (void)with_cov.subscribe(0, parse_subscription(s, "attr0 <= 200"));
  (void)without.subscribe(0, parse_subscription(s, "attr0 <= 200"));
  for (int i = 0; i < 10; ++i) {
    const auto narrow = parse_subscription(s, "attr0 <= " + std::to_string(100 - i));
    (void)with_cov.subscribe(0, narrow);
    (void)without.subscribe(0, narrow);
  }
  EXPECT_EQ(with_cov.metrics().subscription_messages, 4U);  // only the broad one travels
  EXPECT_EQ(without.metrics().subscription_messages, 44U);  // 11 subs * 4 hops
  EXPECT_LT(with_cov.total_routing_entries(), without.total_routing_entries());
}

TEST(Network, DeliveryCompletenessWithCovering) {
  // The safety property: covering (exact or approximate) must not lose
  // deliveries. Randomized workload on a tree, validated against ground
  // truth.
  const schema s = workload::make_uniform_schema(2, 8);
  workload::subscription_gen_options wopts;
  wopts.kind = workload::workload_kind::clustered;
  for (const double eps : {0.0, 0.1, 0.5}) {
    network_options nopts;
    nopts.use_covering = true;
    nopts.epsilon = eps;
    nopts.factory = [](const schema& sc) {
      // Small budget: completeness must hold even when many checks settle.
      sfc_covering_options so;
      so.max_cubes = 2048;
      return std::make_unique<sfc_covering_index>(sc, so);
    };
    network net(topology::balanced_tree(2, 3), s, nopts);
    workload::subscription_gen subs(s, wopts, 515);
    workload::event_gen events(s, 616);
    rng broker_pick(717);
    for (int i = 0; i < 120; ++i)
      (void)net.subscribe(static_cast<int>(broker_pick.index(15)), subs.next());
    for (int e = 0; e < 60; ++e) {
      const auto ev = events.next();
      const auto publisher = static_cast<int>(broker_pick.index(15));
      const auto delivered = net.publish(publisher, ev);
      EXPECT_EQ(delivered, net.expected_recipients(ev)) << "eps=" << eps;
    }
  }
}

TEST(Network, UnsubscribeRestoresForwardingState) {
  const schema s = workload::make_uniform_schema(1, 8);
  network net(topology::line(3), s, with_linear(true));
  const auto broad = net.subscribe(0, parse_subscription(s, "attr0 <= 200"));
  const auto narrow = net.subscribe(0, parse_subscription(s, "attr0 <= 100"));
  // While the broad subscription lives, narrow events still reach broker 0.
  EXPECT_EQ(net.publish(2, event(s, {50})).size(), 2U);
  // Withdraw the coverer: the narrow subscription must be re-forwarded so
  // deliveries continue.
  EXPECT_TRUE(net.unsubscribe(broad));
  EXPECT_GT(net.metrics().reforwards, 0U);
  const auto delivered = net.publish(2, event(s, {50}));
  EXPECT_EQ(delivered, (std::vector<sub_id>{narrow}));
  // And the broad subscription no longer exists anywhere.
  EXPECT_TRUE(net.publish(2, event(s, {150})).empty());
}

TEST(Network, UnsubscribeUnknownReturnsFalse) {
  const schema s = workload::make_uniform_schema(1, 8);
  network net(topology::line(2), s, with_linear(true));
  EXPECT_FALSE(net.unsubscribe(12345));
}

TEST(Network, RandomizedChurnKeepsCompleteness) {
  // Interleave subscribes, unsubscribes, and publishes; deliveries must
  // always match ground truth.
  const schema s = workload::make_uniform_schema(2, 6);
  network net(topology::balanced_tree(3, 2), s, with_linear(true));
  workload::subscription_gen subs(s, {}, 818);
  workload::event_gen events(s, 919);
  rng gen(1020);
  std::vector<sub_id> active;
  for (int step = 0; step < 300; ++step) {
    const auto roll = gen.uniform(0, 9);
    if (roll < 4 || active.empty()) {
      active.push_back(net.subscribe(static_cast<int>(gen.index(13)), subs.next()));
    } else if (roll < 6) {
      const auto pick = gen.index(active.size());
      EXPECT_TRUE(net.unsubscribe(active[pick]));
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const auto ev = events.next();
      EXPECT_EQ(net.publish(static_cast<int>(gen.index(13)), ev),
                net.expected_recipients(ev))
          << "step " << step;
    }
  }
}

TEST(Network, OwnerBrokerTracked) {
  const schema s = workload::make_uniform_schema(1, 8);
  network net(topology::line(3), s, with_linear(true));
  const auto id = net.subscribe(2, subscription::match_all(s));
  EXPECT_EQ(net.owner_broker(id), 2);
  EXPECT_FALSE(net.owner_broker(id + 1).has_value());
  EXPECT_EQ(net.active_subscriptions(), 1U);
}

TEST(Network, BadBrokerIdsThrow) {
  const schema s = workload::make_uniform_schema(1, 8);
  network net(topology::line(2), s, with_linear(true));
  EXPECT_THROW((void)net.subscribe(2, subscription::match_all(s)), std::invalid_argument);
  EXPECT_THROW((void)net.publish(-1, event(s, {0})), std::invalid_argument);
  EXPECT_THROW((void)net.broker_at(5), std::invalid_argument);
}

// --- throwing covering handlers ---------------------------------------------
//
// The exception contract (network.h): a handler that throws fails only its
// own message's forwards; every other shard and in-flight message completes,
// and the post-throw state is deterministic.

namespace {

// Exact linear index that throws from find_covering while a sentinel "bomb"
// subscription is stored in this shard. Arming happens via the broker's own
// propagation (insert runs after the shard's covering check, so the bomb's
// own subscribe completes cleanly); every later check on an armed shard
// fails. Used to pin which forwards a throwing subscribe still performs.
class bomb_index final : public covering_index {
 public:
  bomb_index(const schema& s, subscription bomb)
      : covering_index(s), inner_(s), bomb_(std::move(bomb)) {}

  void insert(sub_id id, const subscription& s) override {
    inner_.insert(id, s);
    if (s == bomb_) armed_.insert(id);
  }
  bool erase(sub_id id) override {
    armed_.erase(id);
    return inner_.erase(id);
  }
  [[nodiscard]] std::optional<sub_id> find_covering(
      const subscription& s, double epsilon,
      covering_check_stats* stats = nullptr) const override {
    if (!armed_.empty()) throw std::runtime_error("armed covering shard");
    return inner_.find_covering(s, epsilon, stats);
  }
  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  [[nodiscard]] std::string_view name() const override { return "bomb"; }
  [[nodiscard]] std::size_t memory_footprint() const override {
    return inner_.memory_footprint();
  }

 private:
  linear_covering_index inner_;
  subscription bomb_;
  std::set<sub_id> armed_;
};

}  // namespace

TEST(Network, ThrowingShardStillForwardsOnCleanShards) {
  // line(3): a bomb subscribed at broker 2 arms broker 2's shard toward 1 and
  // broker 1's shard toward 0. A later subscribe at broker 1 then fails its
  // covering check toward broker 0 but not toward broker 2 — the contract
  // says the clean shard's forward still happens.
  const schema s = workload::make_uniform_schema(1, 8);
  const auto bomb = parse_subscription(s, "attr0 >= 100");
  network_options o;
  o.use_covering = true;
  o.factory = [bomb](const schema& sc) { return std::make_unique<bomb_index>(sc, bomb); };
  network net(topology::line(3), s, o);
  const auto bomb_id = net.subscribe(2, bomb);  // arms; must not throw
  const auto before0 = net.broker_at(1).forwarded_ids(0);
  const auto before2 = net.broker_at(1).forwarded_ids(2);
  EXPECT_THROW((void)net.subscribe(1, parse_subscription(s, "attr0 <= 50")),
               std::runtime_error);
  // The armed shard's forward (toward broker 0) was skipped...
  EXPECT_EQ(net.broker_at(1).forwarded_ids(0), before0);
  // ...but the clean shard's forward (toward broker 2) completed.
  EXPECT_EQ(net.broker_at(1).forwarded_ids(2).size(), before2.size() + 1);
  // The network stays live: events still route through the bomb's path.
  EXPECT_EQ(net.publish(0, event(s, {150})), (std::vector<sub_id>{bomb_id}));
}

// --- batch unsubscribe -------------------------------------------------------
//
// handle_unsubscribe_batch's contract (broker.h): one covering-index
// erase_batch plus one re-forward sweep per shard, completeness-preserving,
// and a batch of one id is exactly handle_unsubscribe.

namespace {

covering_index_factory sfc_sorted_vector_factory() {
  return [](const schema& sc) {
    sfc_covering_options so;
    so.array = sfc_array_kind::sorted_vector;  // deferred-tombstone erase path
    return std::make_unique<sfc_covering_index>(sc, so);
  };
}

// Feeds the same clustered subscriptions (local clients plus one upstream
// link) to a broker; records every body in `bodies`.
void feed_broker(broker& b, const schema& s, std::uint64_t seed,
                 std::map<sub_id, std::pair<int, subscription>>* bodies,
                 network_metrics& metrics) {
  workload::subscription_gen_options wo;
  wo.kind = workload::workload_kind::clustered;
  workload::subscription_gen gen(s, wo, seed);
  for (sub_id id = 0; id < 40; ++id) {
    const subscription sub = gen.next();
    (void)b.handle_subscribe(kLocalLink, id, sub, metrics);
    bodies->emplace(id, std::pair<int, subscription>{kLocalLink, sub});
  }
  for (sub_id id = 100; id < 120; ++id) {
    const subscription sub = gen.next();
    (void)b.handle_subscribe(1, id, sub, metrics);
    bodies->emplace(id, std::pair<int, subscription>{1, sub});
  }
}

// The broker completeness invariant: every live subscription is, on every
// link other than its origin, either forwarded or covered by a forwarded
// subscription.
void expect_forwarding_complete(const broker& b,
                                const std::map<sub_id, std::pair<int, subscription>>& bodies,
                                const std::vector<int>& links) {
  for (const int link : links) {
    const std::vector<sub_id> fwd = b.forwarded_ids(link);
    const std::set<sub_id> fwd_set(fwd.begin(), fwd.end());
    for (const auto& [id, origin_body] : bodies) {
      if (origin_body.first == link) continue;
      if (fwd_set.count(id) > 0) continue;
      const bool covered =
          std::any_of(fwd_set.begin(), fwd_set.end(), [&](const sub_id fid) {
            return bodies.at(fid).second.covers(origin_body.second);
          });
      EXPECT_TRUE(covered) << "sub " << id << " neither forwarded nor covered on link "
                           << link;
    }
  }
}

}  // namespace

TEST(Broker, UnsubscribeBatchOfOneEqualsSingle) {
  const schema s = workload::make_uniform_schema(2, 8);
  const std::vector<int> links{1, 2};
  broker single(0, s, links, sfc_sorted_vector_factory(), {});
  broker batch(0, s, links, sfc_sorted_vector_factory(), {});
  network_metrics ms;
  network_metrics mb;
  std::map<sub_id, std::pair<int, subscription>> bodies_s;
  std::map<sub_id, std::pair<int, subscription>> bodies_b;
  feed_broker(single, s, 333, &bodies_s, ms);
  feed_broker(batch, s, 333, &bodies_b, mb);
  for (const sub_id victim : {sub_id{3}, sub_id{17}, sub_id{29}}) {
    const auto sa = single.handle_unsubscribe(kLocalLink, victim, ms);
    const auto ba = batch.handle_unsubscribe_batch(kLocalLink, {victim}, mb);
    // Identical forwards (batch shape: one (link, {victim}) pair per link)...
    std::vector<std::pair<int, std::vector<sub_id>>> want;
    for (const int link : sa.forward_links) want.push_back({link, {victim}});
    EXPECT_EQ(ba.forward_links, want);
    // ...identical reforwards...
    ASSERT_EQ(ba.reforwards.size(), sa.reforwards.size());
    for (std::size_t i = 0; i < sa.reforwards.size(); ++i) {
      EXPECT_EQ(ba.reforwards[i].first, sa.reforwards[i].first);
      EXPECT_EQ(ba.reforwards[i].second.first, sa.reforwards[i].second.first);
      EXPECT_EQ(ba.reforwards[i].second.second, sa.reforwards[i].second.second);
    }
    // ...identical state.
    EXPECT_EQ(single.table(), batch.table());
    for (const int link : links)
      EXPECT_EQ(single.forwarded_ids(link), batch.forwarded_ids(link));
  }
}

TEST(Broker, UnsubscribeBatchPreservesCompleteness) {
  const schema s = workload::make_uniform_schema(2, 8);
  const std::vector<int> links{1, 2, 3};
  broker b(0, s, links, sfc_sorted_vector_factory(), {});
  network_metrics m;
  std::map<sub_id, std::pair<int, subscription>> bodies;
  feed_broker(b, s, 444, &bodies, m);
  expect_forwarding_complete(b, bodies, links);

  // Withdraw a third of the local subscriptions in one batch.
  std::vector<sub_id> cohort;
  for (sub_id id = 0; id < 40; id += 3) cohort.push_back(id);
  const std::size_t before_entries = b.routing_entries();
  const auto action = b.handle_unsubscribe_batch(kLocalLink, cohort, m);
  EXPECT_EQ(b.routing_entries(), before_entries - cohort.size());

  // Every batch id is gone from every shard, and the per-link forward lists
  // carry exactly the ids that were forwarded there (a subset of the batch).
  std::set<sub_id> cohort_set(cohort.begin(), cohort.end());
  for (const int link : links) {
    const std::vector<sub_id> fwd = b.forwarded_ids(link);
    for (const sub_id id : fwd) EXPECT_EQ(cohort_set.count(id), 0U);
  }
  for (const auto& [link, withdrawn] : action.forward_links) {
    EXPECT_FALSE(withdrawn.empty());
    for (const sub_id id : withdrawn) EXPECT_EQ(cohort_set.count(id), 1U);
  }
  for (const sub_id id : cohort) bodies.erase(id);
  // The re-forward sweep restored completeness against the post-batch state.
  expect_forwarding_complete(b, bodies, links);
  // Reforwarded subscriptions are now really forwarded.
  for (const auto& [link, rf] : action.reforwards) {
    const std::vector<sub_id> fwd = b.forwarded_ids(link);
    EXPECT_NE(std::find(fwd.begin(), fwd.end(), rf.first), fwd.end());
  }
}

TEST(Broker, UnsubscribeBatchUnknownIdFailsLoudly) {
  const schema s = workload::make_uniform_schema(1, 8);
  broker b(0, s, {1}, sfc_sorted_vector_factory(), {});
  network_metrics m;
  (void)b.handle_subscribe(kLocalLink, 7, subscription::match_all(s), m);
  EXPECT_THROW((void)b.handle_unsubscribe_batch(kLocalLink, {7, 8}, m), std::logic_error);
}

TEST(Network, DefaultFactoryIsSfc) {
  const schema s = workload::make_uniform_schema(1, 8);
  network net(topology::line(2), s, {});
  const auto id = net.subscribe(1, parse_subscription(s, "attr0 >= 7"));
  EXPECT_EQ(net.publish(0, event(s, {9})), (std::vector<sub_id>{id}));
}

}  // namespace
}  // namespace subcover
