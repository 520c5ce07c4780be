#include "broker/routing_table.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "pubsub/matching.h"
#include "pubsub/parser.h"
#include "util/random.h"
#include "workload/event_gen.h"
#include "workload/subscription_gen.h"

namespace subcover {
namespace {

// Fresh-vector views of the out-param matching API.
std::vector<int> links_matching(const routing_table& t, const event& e, int exclude_link) {
  std::vector<int> out;
  t.matching_links(e, exclude_link, out);
  return out;
}

std::vector<sub_id> subs_matching(const routing_table& t, int link, const event& e) {
  std::vector<sub_id> out;
  t.matching_subs(link, e, out);
  return out;
}

class RoutingTableTest : public ::testing::Test {
 protected:
  schema s_ = workload::make_uniform_schema(1, 8);
  routing_table t_;

  [[nodiscard]] subscription sub(const std::string& text) const {
    return parse_subscription(s_, text);
  }
};

TEST_F(RoutingTableTest, AddRemoveContains) {
  t_.add(1, 100, sub("attr0 <= 10"));
  EXPECT_TRUE(t_.contains(1, 100));
  EXPECT_FALSE(t_.contains(2, 100));
  EXPECT_TRUE(t_.remove(1, 100));
  EXPECT_FALSE(t_.contains(1, 100));
  EXPECT_FALSE(t_.remove(1, 100));
}

TEST_F(RoutingTableTest, DuplicateAddThrows) {
  t_.add(1, 100, sub("attr0 <= 10"));
  EXPECT_THROW(t_.add(1, 100, sub("attr0 <= 20")), std::invalid_argument);
  // Same id on a different link is fine (arrives over multiple links).
  t_.add(2, 100, sub("attr0 <= 10"));
}

TEST_F(RoutingTableTest, EntryCounts) {
  EXPECT_EQ(t_.total_entries(), 0U);
  t_.add(kLocalLink, 1, sub("attr0 <= 10"));
  t_.add(1, 2, sub("attr0 >= 5"));
  t_.add(1, 3, sub("attr0 = 7"));
  EXPECT_EQ(t_.total_entries(), 3U);
  EXPECT_EQ(t_.entries_on(1), 2U);
  EXPECT_EQ(t_.entries_on(kLocalLink), 1U);
  EXPECT_EQ(t_.entries_on(9), 0U);
}

TEST_F(RoutingTableTest, MatchingLinks) {
  t_.add(1, 10, sub("attr0 <= 10"));
  t_.add(2, 20, sub("attr0 >= 200"));
  t_.add(3, 30, sub("attr0 in [5, 8]"));
  const event e(s_, {7});
  EXPECT_EQ(links_matching(t_, e, /*exclude_link=*/-99), (std::vector<int>{1, 3}));
  // Excluded link is skipped even if it matches.
  EXPECT_EQ(links_matching(t_, e, 1), (std::vector<int>{3}));
}

TEST_F(RoutingTableTest, MatchingSubs) {
  t_.add(kLocalLink, 10, sub("attr0 <= 10"));
  t_.add(kLocalLink, 11, sub("attr0 >= 5"));
  t_.add(1, 12, sub("attr0 = 7"));
  EXPECT_EQ(subs_matching(t_, kLocalLink, event(s_, {7})), (std::vector<sub_id>{10, 11}));
  EXPECT_EQ(subs_matching(t_, kLocalLink, event(s_, {3})), (std::vector<sub_id>{10}));
  EXPECT_TRUE(subs_matching(t_, 5, event(s_, {3})).empty());
}

TEST_F(RoutingTableTest, SubsNotFrom) {
  t_.add(1, 10, sub("attr0 <= 10"));
  t_.add(2, 20, sub("attr0 >= 5"));
  t_.add(kLocalLink, 30, sub("attr0 = 7"));
  const auto not_from_1 = t_.subs_not_from(1);
  ASSERT_EQ(not_from_1.size(), 2U);
  EXPECT_EQ(not_from_1[0].first, 30U);  // local link (-1) sorts first
  EXPECT_EQ(not_from_1[1].first, 20U);
}

TEST_F(RoutingTableTest, RemoveCleansEmptyLink) {
  t_.add(1, 10, sub("attr0 <= 10"));
  EXPECT_TRUE(t_.remove(1, 10));
  EXPECT_EQ(t_.total_entries(), 0U);
  EXPECT_TRUE(links_matching(t_, event(s_, {5}), -99).empty());
}

// Reference model: the node-based map of maps, scanned with matches().
class reference_table {
 public:
  bool add(int link, sub_id id, const subscription& s) {
    return received_[link].emplace(id, s).second;
  }
  bool remove(int link, sub_id id) {
    const auto it = received_.find(link);
    if (it == received_.end()) return false;
    const bool erased = it->second.erase(id) > 0;
    if (it->second.empty()) received_.erase(it);
    return erased;
  }
  [[nodiscard]] bool contains(int link, sub_id id) const {
    const auto it = received_.find(link);
    return it != received_.end() && it->second.count(id) > 0;
  }
  [[nodiscard]] std::size_t total_entries() const {
    std::size_t n = 0;
    for (const auto& entry : received_) n += entry.second.size();
    return n;
  }
  [[nodiscard]] std::size_t entries_on(int link) const {
    const auto it = received_.find(link);
    return it == received_.end() ? 0 : it->second.size();
  }
  [[nodiscard]] std::vector<int> matching_links(const event& e, int exclude) const {
    std::vector<int> out;
    for (const auto& [link, subs] : received_) {
      if (link == exclude) continue;
      for (const auto& entry : subs) {
        if (matches(entry.second, e)) {
          out.push_back(link);
          break;
        }
      }
    }
    return out;
  }
  [[nodiscard]] std::vector<sub_id> matching_subs(int link, const event& e) const {
    std::vector<sub_id> out;
    const auto it = received_.find(link);
    if (it == received_.end()) return out;
    for (const auto& [id, s] : it->second)
      if (matches(s, e)) out.push_back(id);
    return out;
  }
  [[nodiscard]] std::vector<std::pair<sub_id, subscription>> subs_not_from(int exclude) const {
    std::vector<std::pair<sub_id, subscription>> out;
    for (const auto& [link, subs] : received_)
      if (link != exclude) out.insert(out.end(), subs.begin(), subs.end());
    return out;
  }
  [[nodiscard]] std::map<int, std::vector<std::pair<sub_id, subscription>>> snapshot() const {
    std::map<int, std::vector<std::pair<sub_id, subscription>>> out;
    for (const auto& [link, subs] : received_) out[link].assign(subs.begin(), subs.end());
    return out;
  }

 private:
  std::map<int, std::map<sub_id, subscription>> received_;
};

// Seeded random add/remove/query sequence over a few links and a small id
// space (so duplicates, misses and links that empty and refill all occur),
// every ordered output compared exactly against the reference model.
TEST(RoutingTableDifferential, MatchesMapReferenceModel) {
  const schema s = workload::make_uniform_schema(3, 6);
  workload::subscription_gen_options so;
  so.mean_width = 0.5;
  so.wildcard_prob = 0.1;
  workload::subscription_gen subs(s, so, 31);
  workload::event_gen events(s, 37);
  rng gen(41);
  routing_table t;
  reference_table ref;
  const std::size_t empty_bytes = t.memory_footprint();
  const int links[] = {kLocalLink, 0, 1, 2, 5};
  const auto pick_link = [&] { return links[gen.index(std::size(links))]; };
  std::vector<int> link_scratch;
  std::vector<sub_id> sub_scratch;
  for (int step = 0; step < 6000; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    const int link = pick_link();
    const auto id = static_cast<sub_id>(gen.uniform(0, 40));
    switch (gen.index(8)) {
      case 0:
      case 1:
      case 2: {
        const subscription body = subs.next();
        if (ref.add(link, id, body)) {
          t.add(link, id, body);
        } else {
          EXPECT_THROW(t.add(link, id, body), std::invalid_argument);
        }
        break;
      }
      case 3:
      case 4:
        ASSERT_EQ(t.remove(link, id), ref.remove(link, id));
        break;
      case 5: {
        // One reused scratch pair across the whole sequence, as the
        // publish path uses it.
        const event e = events.next();
        const int exclude = gen.bernoulli(0.5) ? pick_link() : -99;
        link_scratch.clear();
        t.matching_links(e, exclude, link_scratch);
        ASSERT_EQ(link_scratch, ref.matching_links(e, exclude));
        sub_scratch.clear();
        t.matching_subs(link, e, sub_scratch);
        ASSERT_EQ(sub_scratch, ref.matching_subs(link, e));
        break;
      }
      case 6:
        ASSERT_EQ(t.subs_not_from(link), ref.subs_not_from(link));
        break;
      default:
        ASSERT_EQ(t.snapshot(), ref.snapshot());
        break;
    }
    ASSERT_EQ(t.contains(link, id), ref.contains(link, id));
    ASSERT_EQ(t.entries_on(link), ref.entries_on(link));
    ASSERT_EQ(t.total_entries(), ref.total_entries());
    // The columns hold at least one id and one range per attribute for
    // every entry, and nothing once the table is empty.
    const std::size_t bytes = t.memory_footprint();
    ASSERT_GE(bytes, empty_bytes + ref.total_entries() *
                                       (sizeof(sub_id) + s.attribute_count() * sizeof(attr_range)));
    if (ref.total_entries() == 0) {
      ASSERT_EQ(bytes, empty_bytes);
    }
  }
  // Drain every link: the table is empty again, then a drained link
  // reappears.
  for (const auto& [link, entries] : ref.snapshot())
    for (const auto& entry : entries) ASSERT_TRUE(t.remove(link, entry.first));
  EXPECT_EQ(t.total_entries(), 0U);
  EXPECT_EQ(t.memory_footprint(), empty_bytes);
  EXPECT_EQ(t, routing_table{});
  t.add(1, 7, subs.next());
  EXPECT_EQ(t.entries_on(1), 1U);
  EXPECT_EQ(t.snapshot().size(), 1U);
}

TEST(RoutingTableDifferential, LinkThatEmptiesReappearsWithItsOwnSchema) {
  const schema two = workload::make_uniform_schema(2, 8);
  const schema three = workload::make_uniform_schema(3, 8);
  routing_table t;
  t.add(1, 10, subscription::match_all(two));
  EXPECT_TRUE(t.remove(1, 10));
  EXPECT_EQ(t.entries_on(1), 0U);
  // An emptied link keeps no schema: it comes back with whatever it holds.
  t.add(1, 10, subscription::match_all(three));
  EXPECT_EQ(subs_matching(t, 1, event(three, {1, 2, 3})), (std::vector<sub_id>{10}));
  EXPECT_EQ(t.snapshot().at(1).front().second, subscription::match_all(three));
}

TEST(RoutingTableDifferential, SchemaMismatchThrows) {
  const schema two = workload::make_uniform_schema(2, 8);
  const schema one = workload::make_uniform_schema(1, 8);
  routing_table t;
  t.add(1, 10, subscription::match_all(two));
  // A subscription of another schema cannot join the link's columns...
  EXPECT_THROW(t.add(1, 11, subscription::match_all(one)), std::invalid_argument);
  EXPECT_FALSE(t.contains(1, 11));
  EXPECT_EQ(t.entries_on(1), 1U);
  // ...but may sit on a different link.
  t.add(2, 11, subscription::match_all(one));
  // An event of the wrong schema throws on every scanned link, as matches()
  // does, before appending anything; an excluded link is never scanned.
  const event e1(one, {3});
  std::vector<int> links{42};
  std::vector<sub_id> ids{42};
  EXPECT_THROW(t.matching_subs(1, e1, ids), std::invalid_argument);
  EXPECT_THROW(t.matching_links(e1, /*exclude_link=*/2, links), std::invalid_argument);
  EXPECT_EQ(links, (std::vector<int>{42}));
  EXPECT_EQ(ids, (std::vector<sub_id>{42}));
  // Link 1 matches this event and sorts before the mismatched link 2: the
  // throw still comes before link 1 is appended.
  EXPECT_THROW(t.matching_links(event(two, {1, 2}), /*exclude_link=*/-99, links),
               std::invalid_argument);
  EXPECT_EQ(links, (std::vector<int>{42}));
  EXPECT_EQ(links_matching(t, e1, /*exclude_link=*/1), (std::vector<int>{2}));
  EXPECT_EQ(subs_matching(t, 2, e1), (std::vector<sub_id>{11}));
}

// The matching calls append to caller-owned scratch: earlier contents
// stay, and the new answers follow in order.
TEST_F(RoutingTableTest, MatchingAppendsToScratch) {
  t_.add(kLocalLink, 10, sub("attr0 <= 10"));
  t_.add(kLocalLink, 11, sub("attr0 >= 5"));
  t_.add(1, 12, sub("attr0 = 7"));
  t_.add(2, 13, sub("attr0 >= 200"));
  std::vector<int> links{99};
  t_.matching_links(event(s_, {7}), /*exclude_link=*/-99, links);
  EXPECT_EQ(links, (std::vector<int>{99, kLocalLink, 1}));
  std::vector<sub_id> ids{99};
  t_.matching_subs(kLocalLink, event(s_, {7}), ids);
  t_.matching_subs(2, event(s_, {7}), ids);
  t_.matching_subs(kLocalLink, event(s_, {3}), ids);
  EXPECT_EQ(ids, (std::vector<sub_id>{99, 10, 11, 10}));
}

}  // namespace
}  // namespace subcover
