// memory_footprint() audits: the reported bytes must track actual growth
// and shrinkage at every layer — SFC array backends, the dominance index,
// the covering indexes, and the broker/routing-table aggregate.
#include <gtest/gtest.h>

#include <vector>

#include "broker/broker.h"
#include "covering/linear_covering_index.h"
#include "covering/sfc_covering_index.h"
#include "dominance/dominance_index.h"
#include "pubsub/parser.h"
#include "sfcarray/skiplist_array.h"
#include "sfcarray/sorted_vector_array.h"
#include "util/random.h"
#include "workload/subscription_gen.h"

namespace subcover {
namespace {

TEST(MemoryFootprint, BackendsGrowWithInsertAndShrinkWithErase) {
  for (const sfc_array_kind kind :
       {sfc_array_kind::skiplist, sfc_array_kind::sorted_vector}) {
    const auto a = make_basic_sfc_array<std::uint64_t>(kind);
    const std::size_t empty = a->memory_footprint();
    EXPECT_GE(empty, sizeof(void*));  // at least the object itself

    for (std::uint64_t i = 0; i < 1000; ++i) a->insert(i * 3, i);
    const std::size_t full = a->memory_footprint();
    // Growth must be at least the raw payload of the new entries.
    EXPECT_GE(full, empty + 1000 * sizeof(basic_sfc_array<std::uint64_t>::entry));

    for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_TRUE(a->erase(i * 3, i));
    // The skiplist frees nodes eagerly; the sorted vector keeps capacity.
    // Either way the report must never grow past the high-water mark.
    EXPECT_LE(a->memory_footprint(), full);
    if (kind == sfc_array_kind::skiplist) {
      EXPECT_LT(a->memory_footprint(), full);
    }
  }
}

TEST(MemoryFootprint, SortedVectorReportsAtLeastPayload) {
  basic_sorted_vector_array<std::uint64_t> a;
  for (std::uint64_t i = 0; i < 500; ++i) a.insert(i, i);
  EXPECT_GE(a.memory_footprint(),
            a.size() * sizeof(basic_sfc_array<std::uint64_t>::entry));
}

TEST(MemoryFootprint, SkiplistReleasesNodeBytesOnErase) {
  basic_skiplist_array<std::uint64_t> a;
  const std::size_t empty = a.memory_footprint();
  a.insert(10, 1);
  a.insert(20, 2);
  const std::size_t two = a.memory_footprint();
  EXPECT_GT(two, empty);
  EXPECT_TRUE(a.erase(10, 1));
  const std::size_t one = a.memory_footprint();
  EXPECT_LT(one, two);
  EXPECT_GT(one, empty);
  EXPECT_TRUE(a.erase(20, 2));
  EXPECT_EQ(a.memory_footprint(), empty);
}

TEST(MemoryFootprint, DominanceIndexTracksGrowthAtEveryWidth) {
  // u64, u128 and u512 pipelines all report through the same virtual.
  for (const universe u : {universe(4, 8), universe(6, 16), universe(16, 16)}) {
    dominance_index idx(u);
    const std::size_t empty = idx.memory_footprint();
    rng gen(99);
    for (std::uint64_t i = 0; i < 200; ++i) {
      point p(u.dims());
      for (int d = 0; d < u.dims(); ++d)
        p[d] = static_cast<std::uint32_t>(gen.uniform(0, u.coord_max()));
      idx.insert(p, i);
    }
    EXPECT_GT(idx.memory_footprint(), empty);
  }
}

TEST(MemoryFootprint, TieredDominanceIndexReportsBothTiers) {
  const universe u(4, 8);
  dominance_options tiered_opts;
  tiered_opts.tier_hot_capacity = 16;
  dominance_index tiered(u, tiered_opts);
  dominance_index resident(u);
  rng gen(5);
  std::vector<std::pair<point, std::uint64_t>> batch;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    point p(u.dims());
    for (int d = 0; d < u.dims(); ++d)
      p[d] = static_cast<std::uint32_t>(gen.uniform(0, u.coord_max()));
    batch.emplace_back(p, i);
  }
  tiered.insert_batch(batch);
  resident.insert_batch(batch);
  EXPECT_EQ(tiered.size(), resident.size());
  // The bulk load lands cold (compressed); the report must reflect that.
  EXPECT_LT(tiered.memory_footprint(), resident.memory_footprint());
}

TEST(MemoryFootprint, CoveringIndexesTrackSubscriptions) {
  const schema s = workload::make_uniform_schema(2, 8);
  linear_covering_index linear(s);
  sfc_covering_index sfc(s);
  const std::size_t linear_empty = linear.memory_footprint();
  const std::size_t sfc_empty = sfc.memory_footprint();

  workload::subscription_gen gen(s, {}, 77);
  for (sub_id id = 0; id < 100; ++id) {
    const subscription sub = gen.next();
    linear.insert(id, sub);
    sfc.insert(id, sub);
  }
  // Both must grow at least by the stored subscription payloads.
  const std::size_t payload = 100 * 2 * sizeof(attr_range);
  EXPECT_GE(linear.memory_footprint(), linear_empty + payload);
  EXPECT_GE(sfc.memory_footprint(), sfc_empty + payload);
  // The SFC index additionally owns the dominance array.
  EXPECT_GT(sfc.memory_footprint() - sfc_empty,
            linear.memory_footprint() - linear_empty);
}

TEST(MemoryFootprint, RoutingTableTracksAddAndRemove) {
  const schema s = workload::make_uniform_schema(1, 8);
  routing_table t;
  const std::size_t empty = t.memory_footprint();
  const subscription sub = parse_subscription(s, "attr0 <= 10");
  for (sub_id id = 0; id < 50; ++id) t.add(/*link=*/1, id, sub);
  const std::size_t full = t.memory_footprint();
  EXPECT_GE(full, empty + 50 * sizeof(attr_range));
  for (sub_id id = 0; id < 50; ++id) EXPECT_TRUE(t.remove(1, id));
  EXPECT_EQ(t.memory_footprint(), empty);
}

TEST(MemoryFootprint, BrokerAggregatesTableAndShards) {
  const schema s = workload::make_uniform_schema(1, 8);
  broker_options o;
  broker b(0, s, {1, 2},
           [](const schema& sc) { return std::make_unique<sfc_covering_index>(sc); }, o);
  const std::size_t empty = b.memory_footprint();
  network_metrics m;
  workload::subscription_gen gen(s, {}, 11);
  for (sub_id id = 0; id < 50; ++id)
    (void)b.handle_subscribe(kLocalLink, id, gen.next(), m);
  const std::size_t full = b.memory_footprint();
  // The broker stores each forwarded subscription once per link plus the
  // routing-table entry: growth must dominate the raw payloads.
  EXPECT_GT(full, empty);
  EXPECT_GE(full - empty, b.routing_entries() * sizeof(attr_range));
  // The aggregate includes its parts.
  EXPECT_GT(full, b.table().memory_footprint());
}

}  // namespace
}  // namespace subcover
