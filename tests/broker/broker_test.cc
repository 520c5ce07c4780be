#include "broker/broker.h"

#include <gtest/gtest.h>

#include "covering/linear_covering_index.h"
#include "covering/sfc_covering_index.h"
#include "pubsub/parser.h"
#include "workload/subscription_gen.h"

namespace subcover {
namespace {

covering_index_factory linear_factory() {
  return [](const schema& s) { return std::make_unique<linear_covering_index>(s); };
}

class BrokerTest : public ::testing::Test {
 protected:
  schema s_ = workload::make_uniform_schema(1, 8);
  network_metrics m_;

  [[nodiscard]] broker make_broker(std::vector<int> links, bool covering = true) const {
    broker_options o;
    o.use_covering = covering;
    return {0, s_, links, linear_factory(), o};
  }
  [[nodiscard]] subscription sub(const std::string& text) const {
    return parse_subscription(s_, text);
  }
};

TEST_F(BrokerTest, LocalSubscriptionForwardsToAllLinks) {
  broker b = make_broker({1, 2, 3});
  const auto action = b.handle_subscribe(kLocalLink, 1, sub("attr0 <= 10"), m_);
  EXPECT_EQ(action.forward_links, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(b.routing_entries(), 1U);
}

TEST_F(BrokerTest, NeighborSubscriptionNotForwardedBack) {
  broker b = make_broker({1, 2});
  const auto action = b.handle_subscribe(1, 1, sub("attr0 <= 10"), m_);
  EXPECT_EQ(action.forward_links, (std::vector<int>{2}));
}

TEST_F(BrokerTest, CoveredSubscriptionSuppressed) {
  broker b = make_broker({1});
  (void)b.handle_subscribe(kLocalLink, 1, sub("attr0 <= 100"), m_);
  const auto action = b.handle_subscribe(kLocalLink, 2, sub("attr0 <= 50"), m_);
  EXPECT_TRUE(action.forward_links.empty());
  EXPECT_EQ(m_.covering_hits, 1U);
  // Routing table still records the covered subscription locally.
  EXPECT_EQ(b.routing_entries(), 2U);
  EXPECT_EQ(b.forwarded_to(1), 1U);
}

TEST_F(BrokerTest, FloodingModeForwardsEverything) {
  broker b = make_broker({1}, /*covering=*/false);
  (void)b.handle_subscribe(kLocalLink, 1, sub("attr0 <= 100"), m_);
  const auto action = b.handle_subscribe(kLocalLink, 2, sub("attr0 <= 50"), m_);
  EXPECT_EQ(action.forward_links, (std::vector<int>{1}));
  EXPECT_EQ(m_.covering_checks, 0U);
}

TEST_F(BrokerTest, EventRoutedToMatchingLinksOnly) {
  broker b = make_broker({1, 2});
  (void)b.handle_subscribe(1, 1, sub("attr0 <= 10"), m_);
  (void)b.handle_subscribe(2, 2, sub("attr0 >= 200"), m_);
  (void)b.handle_subscribe(kLocalLink, 3, sub("attr0 = 5"), m_);
  std::vector<int> forwards;
  std::vector<sub_id> deliveries;
  b.handle_event(kLocalLink, event(s_, {5}), forwards, deliveries);
  EXPECT_EQ(forwards, (std::vector<int>{1}));
  EXPECT_EQ(deliveries, (std::vector<sub_id>{3}));
}

TEST_F(BrokerTest, EventNotSentBackToSource) {
  broker b = make_broker({1, 2});
  (void)b.handle_subscribe(1, 1, sub("attr0 <= 10"), m_);
  (void)b.handle_subscribe(2, 2, sub("attr0 <= 10"), m_);
  std::vector<int> forwards;
  std::vector<sub_id> deliveries;
  b.handle_event(1, event(s_, {5}), forwards, deliveries);
  EXPECT_EQ(forwards, (std::vector<int>{2}));
  EXPECT_TRUE(deliveries.empty());
}

// One scratch pair reused across events, as the network's publish loop
// reuses it: forwards are replaced per event, deliveries accumulate, and
// an event matching nothing adds neither.
TEST_F(BrokerTest, EventScratchReusedAcrossEvents) {
  broker b = make_broker({1, 2, 3});
  (void)b.handle_subscribe(1, 1, sub("attr0 <= 10"), m_);
  (void)b.handle_subscribe(2, 2, sub("attr0 <= 20"), m_);
  (void)b.handle_subscribe(3, 3, sub("attr0 >= 200"), m_);
  (void)b.handle_subscribe(kLocalLink, 4, sub("attr0 <= 10"), m_);
  (void)b.handle_subscribe(kLocalLink, 5, sub("attr0 in [5, 6]"), m_);
  std::vector<int> forwards;
  std::vector<sub_id> deliveries;
  b.handle_event(kLocalLink, event(s_, {5}), forwards, deliveries);
  EXPECT_EQ(forwards, (std::vector<int>{1, 2}));
  EXPECT_EQ(deliveries, (std::vector<sub_id>{4, 5}));
  b.handle_event(2, event(s_, {100}), forwards, deliveries);
  EXPECT_TRUE(forwards.empty());
  EXPECT_EQ(deliveries, (std::vector<sub_id>{4, 5}));
  b.handle_event(1, event(s_, {250}), forwards, deliveries);
  EXPECT_EQ(forwards, (std::vector<int>{3}));
  EXPECT_EQ(deliveries, (std::vector<sub_id>{4, 5}));
  b.handle_event(3, event(s_, {6}), forwards, deliveries);
  EXPECT_EQ(forwards, (std::vector<int>{1, 2}));
  EXPECT_EQ(deliveries, (std::vector<sub_id>{4, 5, 4, 5}));
}

// A schema mismatch anywhere throws before any local delivery is appended,
// even when the local subscriptions match and are of the event's schema.
TEST_F(BrokerTest, SchemaMismatchLeavesNoPartialDeliveries) {
  broker b = make_broker({1, 2});
  (void)b.handle_subscribe(kLocalLink, 1, sub("attr0 <= 10"), m_);
  // Link 1 ends up holding a two-attribute entry (the routing table
  // records it before any shard sees it, whatever the shards make of it).
  const schema wide = workload::make_uniform_schema(2, 8);
  try {
    (void)b.handle_subscribe(1, 2, subscription::match_all(wide), m_);
  } catch (const std::exception&) {
  }
  ASSERT_EQ(b.table().entries_on(1), 1U);
  std::vector<int> forwards;
  std::vector<sub_id> deliveries{7};
  EXPECT_THROW(b.handle_event(2, event(s_, {5}), forwards, deliveries), std::invalid_argument);
  EXPECT_EQ(deliveries, (std::vector<sub_id>{7}));
  // The wide event matches link 1 but not the local link's schema.
  EXPECT_THROW(b.handle_event(2, event(wide, {5, 5}), forwards, deliveries),
               std::invalid_argument);
  EXPECT_EQ(deliveries, (std::vector<sub_id>{7}));
  // From link 1 itself nothing mismatches the one-attribute event.
  b.handle_event(1, event(s_, {5}), forwards, deliveries);
  EXPECT_TRUE(forwards.empty());
  EXPECT_EQ(deliveries, (std::vector<sub_id>{7, 1}));
}

TEST_F(BrokerTest, UnsubscribeWithdrawsAndReforwards) {
  broker b = make_broker({1});
  (void)b.handle_subscribe(kLocalLink, 1, sub("attr0 <= 100"), m_);
  (void)b.handle_subscribe(kLocalLink, 2, sub("attr0 <= 50"), m_);  // covered by 1
  EXPECT_EQ(b.forwarded_to(1), 1U);
  const auto action = b.handle_unsubscribe(kLocalLink, 1, m_);
  EXPECT_EQ(action.forward_links, (std::vector<int>{1}));
  ASSERT_EQ(action.reforwards.size(), 1U);
  EXPECT_EQ(action.reforwards[0].first, 1);
  EXPECT_EQ(action.reforwards[0].second.first, 2U);
  EXPECT_EQ(b.forwarded_to(1), 1U);
  EXPECT_EQ(b.routing_entries(), 1U);
}

TEST_F(BrokerTest, UnsubscribeOfSuppressedSubscriptionSendsNothing) {
  broker b = make_broker({1});
  (void)b.handle_subscribe(kLocalLink, 1, sub("attr0 <= 100"), m_);
  (void)b.handle_subscribe(kLocalLink, 2, sub("attr0 <= 50"), m_);
  const auto action = b.handle_unsubscribe(kLocalLink, 2, m_);
  EXPECT_TRUE(action.forward_links.empty());
  EXPECT_TRUE(action.reforwards.empty());
  EXPECT_EQ(b.forwarded_to(1), 1U);
}

TEST_F(BrokerTest, UnsubscribeUnknownThrows) {
  broker b = make_broker({1});
  EXPECT_THROW((void)b.handle_unsubscribe(kLocalLink, 99, m_), std::logic_error);
}

TEST_F(BrokerTest, BootstrapForwardedSuppressesCoveredArrivals) {
  // A broker restored from persisted routing state must behave as if the
  // forwarded subscriptions had arrived through handle_subscribe.
  const std::map<int, std::vector<std::pair<sub_id, subscription>>> state{
      {1, {{1, sub("attr0 <= 100")}}}};
  broker_options o;
  broker restored(0, s_, {1, 2}, linear_factory(), o, state);
  EXPECT_EQ(restored.forwarded_to(1), 1U);
  EXPECT_EQ(restored.forwarded_to(2), 0U);
  // Covered by the bootstrapped subscription on link 1; link 2 is empty so
  // the forward still goes there.
  const auto action = restored.handle_subscribe(kLocalLink, 2, sub("attr0 <= 50"), m_);
  EXPECT_EQ(action.forward_links, (std::vector<int>{2}));
  EXPECT_EQ(m_.covering_hits, 1U);
}

TEST_F(BrokerTest, BootstrapMatchesSequentialForwarding) {
  // Bootstrapping with the SFC index (bulk insert_batch path) and feeding
  // the same subscriptions sequentially must leave identical forwarding
  // behavior.
  const covering_index_factory sfc_factory = [](const schema& s) {
    sfc_covering_options o;
    o.array = sfc_array_kind::sorted_vector;
    return std::make_unique<sfc_covering_index>(s, o);
  };
  std::vector<std::pair<sub_id, subscription>> subs;
  for (sub_id id = 1; id <= 20; ++id)
    subs.emplace_back(id, sub("attr0 <= " + std::to_string(id * 10)));

  broker_options o;
  broker sequential(0, s_, {1}, sfc_factory, o);
  std::vector<std::pair<sub_id, subscription>> forwarded;
  for (const auto& [id, body] : subs) {
    const auto action = sequential.handle_subscribe(kLocalLink, id, body, m_);
    if (!action.forward_links.empty()) forwarded.emplace_back(id, body);
  }
  broker restored(0, s_, {1}, sfc_factory, o, {{1, forwarded}});
  ASSERT_EQ(restored.forwarded_to(1), sequential.forwarded_to(1));
  // Both brokers must now suppress/forward identically.
  network_metrics ma;
  network_metrics mb;
  for (sub_id id = 100; id < 120; ++id) {
    const auto body = sub("attr0 <= " + std::to_string((id - 100) * 11 + 3));
    const auto a = sequential.handle_subscribe(kLocalLink, id, body, ma);
    const auto b = restored.handle_subscribe(kLocalLink, id, body, mb);
    EXPECT_EQ(a.forward_links, b.forward_links) << "id=" << id;
  }
}

TEST_F(BrokerTest, BootstrapUnknownLinkThrows) {
  broker b = make_broker({1});
  EXPECT_THROW(b.bootstrap_forwarded(9, {{1, sub("attr0 <= 10")}}), std::invalid_argument);
}

TEST_F(BrokerTest, BootstrapDuplicateIdIsAllOrNothing) {
  broker b = make_broker({1});
  (void)b.handle_subscribe(kLocalLink, 1, sub("attr0 <= 10"), m_);
  ASSERT_EQ(b.forwarded_to(1), 1U);
  // Id 1 is already forwarded on link 1: the whole batch must be rejected
  // without touching the covering index (id 2 must not be half-forwarded).
  EXPECT_THROW(b.bootstrap_forwarded(1, {{2, sub("attr0 <= 200")}, {1, sub("attr0 <= 10")}}),
               std::invalid_argument);
  EXPECT_EQ(b.forwarded_to(1), 1U);
  // A subscription covered by the rejected batch's id 2 must still forward.
  const auto action = b.handle_subscribe(kLocalLink, 3, sub("attr0 <= 150"), m_);
  EXPECT_EQ(action.forward_links, (std::vector<int>{1}));
}

TEST_F(BrokerTest, CoveringChecksCountedInMetrics) {
  broker b = make_broker({1, 2});
  (void)b.handle_subscribe(kLocalLink, 1, sub("attr0 <= 100"), m_);
  EXPECT_EQ(m_.covering_checks, 2U);  // one per outgoing link
  (void)b.handle_subscribe(kLocalLink, 2, sub("attr0 <= 50"), m_);
  EXPECT_EQ(m_.covering_checks, 4U);
  EXPECT_EQ(m_.covering_hits, 2U);
}

}  // namespace
}  // namespace subcover
