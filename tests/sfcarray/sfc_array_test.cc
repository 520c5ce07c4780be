// Behavioural equivalence of all sfc_array implementations.
#include "sfcarray/sfc_array.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/random.h"

namespace subcover {
namespace {

class SfcArrayBehaviour : public ::testing::TestWithParam<sfc_array_kind> {
 protected:
  [[nodiscard]] std::unique_ptr<sfc_array> make() const { return make_sfc_array(GetParam()); }
};

TEST_P(SfcArrayBehaviour, InsertEraseLookup) {
  auto a = make();
  a->insert(u512(10), 1);
  a->insert(u512(20), 2);
  a->insert(u512(30), 3);
  EXPECT_EQ(a->size(), 3U);
  auto hit = a->first_in({u512(15), u512(25)});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->id, 2U);
  EXPECT_TRUE(a->erase(u512(20), 2));
  EXPECT_FALSE(a->first_in({u512(15), u512(25)}).has_value());
}

TEST_P(SfcArrayBehaviour, CountIn) {
  auto a = make();
  for (std::uint64_t i = 0; i < 100; ++i) a->insert(u512(i), i);
  EXPECT_EQ(a->count_in({u512(10), u512(19)}), 10U);
  EXPECT_EQ(a->count_in({u512(200), u512(300)}), 0U);
}

TEST_P(SfcArrayBehaviour, ImplementationsAgreeUnderRandomOps) {
  auto a = make();
  auto reference = make_sfc_array(sfc_array_kind::sorted_vector);
  rng gen(123);
  for (int op = 0; op < 2000; ++op) {
    const std::uint64_t key = gen.uniform(0, 300);
    const std::uint64_t id = gen.uniform(0, 10);
    switch (gen.uniform(0, 2)) {
      case 0:
        a->insert(u512(key), id);
        reference->insert(u512(key), id);
        break;
      case 1:
        EXPECT_EQ(a->erase(u512(key), id), reference->erase(u512(key), id));
        break;
      default: {
        const std::uint64_t lo = gen.uniform(0, 300);
        const std::uint64_t hi = gen.uniform(lo, 300);
        const key_range r{u512(lo), u512(hi)};
        const auto x = a->first_in(r);
        const auto y = reference->first_in(r);
        ASSERT_EQ(x.has_value(), y.has_value());
        if (x.has_value()) {
          EXPECT_EQ(x->key, y->key);
          EXPECT_EQ(x->id, y->id);
        }
        EXPECT_EQ(a->count_in(r), reference->count_in(r));
        break;
      }
    }
  }
  EXPECT_EQ(a->size(), reference->size());
}

TEST_P(SfcArrayBehaviour, ForEachVisitsAllInOrder) {
  auto a = make();
  rng gen(9);
  for (int i = 0; i < 300; ++i) a->insert(u512(gen.uniform(0, 1000)), static_cast<std::uint64_t>(i));
  std::size_t n = 0;
  u512 prev = 0;
  a->for_each([&](const sfc_array::entry& e) {
    EXPECT_LE(prev, e.key);
    prev = e.key;
    ++n;
  });
  EXPECT_EQ(n, a->size());
}

TEST_P(SfcArrayBehaviour, BulkLoadEquivalentToInserts) {
  auto bulk = make();
  auto loop = make();
  rng gen(17);
  std::vector<sfc_array::entry> entries;
  for (std::uint64_t i = 0; i < 500; ++i)
    entries.push_back({u512(gen.uniform(0, 400)), gen.uniform(0, 8)});
  for (const auto& e : entries) loop->insert(e.key, e.id);
  bulk->reserve(entries.size());
  bulk->bulk_load(entries);
  ASSERT_EQ(bulk->size(), loop->size());
  std::vector<sfc_array::entry> a;
  std::vector<sfc_array::entry> b;
  bulk->for_each([&](const sfc_array::entry& e) { a.push_back(e); });
  loop->for_each([&](const sfc_array::entry& e) { b.push_back(e); });
  EXPECT_EQ(a, b);
}

TEST_P(SfcArrayBehaviour, BulkLoadMergesIntoExistingEntries) {
  auto a = make();
  auto reference = make();
  rng gen(23);
  for (int round = 0; round < 4; ++round) {
    std::vector<sfc_array::entry> batch;
    for (std::uint64_t i = 0; i < 100; ++i)
      batch.push_back({u512(gen.uniform(0, 300)), gen.uniform(0, 5)});
    a->bulk_load(batch);
    for (const auto& e : batch) reference->insert(e.key, e.id);
  }
  ASSERT_EQ(a->size(), reference->size());
  for (std::uint64_t lo = 0; lo < 300; lo += 7) {
    const key_range r{u512(lo), u512(lo + 11)};
    const auto x = a->first_in(r);
    const auto y = reference->first_in(r);
    ASSERT_EQ(x.has_value(), y.has_value());
    if (x.has_value()) {
      EXPECT_EQ(*x, *y);
    }
  }
}

TEST_P(SfcArrayBehaviour, HintedProbeAgreesWithPlainProbe) {
  auto a = make();
  rng gen(31);
  for (std::uint64_t i = 0; i < 400; ++i) a->insert(u512(gen.uniform(0, 1000)), i);
  sfc_array::probe_hint hint;
  for (int q = 0; q < 500; ++q) {
    // Mix nearby probes (exercising short gallops in both directions) with
    // occasional far jumps (stale cursor).
    const std::uint64_t lo = q % 10 == 0 ? gen.uniform(0, 1000)
                                         : std::min<std::uint64_t>(gen.uniform(0, 40) + q, 1000);
    const std::uint64_t hi = std::min<std::uint64_t>(lo + gen.uniform(0, 50), 1000);
    const key_range r{u512(lo), u512(hi)};
    const auto plain = a->first_in(r);
    const auto hinted = a->first_in(r, &hint);
    ASSERT_EQ(plain.has_value(), hinted.has_value()) << "lo=" << lo << " hi=" << hi;
    if (plain.has_value()) {
      EXPECT_EQ(*plain, *hinted);
    }
  }
}

TEST_P(SfcArrayBehaviour, HintSurvivesMutation) {
  // A stale cursor must stay correct (only slower) after inserts and erases.
  auto a = make();
  rng gen(37);
  sfc_array::probe_hint hint;
  for (int op = 0; op < 1000; ++op) {
    const std::uint64_t key = gen.uniform(0, 200);
    if (gen.uniform(0, 3) == 0) {
      (void)a->erase(u512(key), 0);
    } else {
      a->insert(u512(key), 0);
    }
    const std::uint64_t lo = gen.uniform(0, 200);
    const std::uint64_t hi = gen.uniform(lo, 200);
    const key_range r{u512(lo), u512(hi)};
    const auto plain = a->first_in(r);
    const auto hinted = a->first_in(r, &hint);
    ASSERT_EQ(plain.has_value(), hinted.has_value());
    if (plain.has_value()) {
      EXPECT_EQ(*plain, *hinted);
    }
  }
}

TEST_P(SfcArrayBehaviour, EraseThenReinsertSameKeyCycles) {
  // Deferred-erase backends must resurrect (or re-add) an entry that is
  // reinserted while its tombstone is still pending — the size/probe
  // answers may never show a phantom or a duplicate.
  auto a = make();
  a->set_compaction_policy(0.0);  // never compact: tombstones stay pending
  for (std::uint64_t i = 0; i < 50; ++i) a->insert(u512(i * 2), i);
  const key_range at{u512(40), u512(40)};
  for (int cycle = 0; cycle < 5; ++cycle) {
    EXPECT_TRUE(a->erase(u512(40), 20));
    EXPECT_FALSE(a->erase(u512(40), 20));
    EXPECT_FALSE(a->first_in(at).has_value());
    EXPECT_EQ(a->count_in(at), 0U);
    EXPECT_EQ(a->size(), 49U);
    a->insert(u512(40), 20);
    const auto back = a->first_in(at);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->id, 20U);
    EXPECT_EQ(a->count_in(at), 1U);
    EXPECT_EQ(a->size(), 50U);
  }
  // for_each sees exactly one occurrence, in order, dead entries skipped.
  std::size_t hits = 0;
  a->for_each([&](const sfc_array::entry& e) {
    if (e.key == u512(40)) ++hits;
  });
  EXPECT_EQ(hits, 1U);
  // The ledger never purges more than it added.
  const auto m = a->maintenance();
  EXPECT_LE(m.tombstones_purged, m.tombstones_added);
}

TEST_P(SfcArrayBehaviour, EraseBatchMatchesLoopErase) {
  auto batch = make();
  auto loop = make();
  rng gen(41);
  std::vector<sfc_array::entry> entries;
  for (std::uint64_t i = 0; i < 400; ++i)
    entries.push_back({u512(gen.uniform(0, 200)), gen.uniform(0, 6)});
  batch->bulk_load(entries);
  loop->bulk_load(entries);
  // Victims: mostly present entries (some listed twice — only one occurrence
  // per listing may go), some absent.
  std::vector<sfc_array::entry> victims;
  for (int i = 0; i < 150; ++i) victims.push_back(entries[gen.index(entries.size())]);
  for (int i = 0; i < 30; ++i) victims.push_back({u512(gen.uniform(300, 400)), 99});
  std::size_t want = 0;
  for (const auto& v : victims) want += loop->erase(v.key, v.id) ? 1 : 0;
  EXPECT_EQ(batch->erase_batch(victims), want);
  ASSERT_EQ(batch->size(), loop->size());
  std::vector<sfc_array::entry> a;
  std::vector<sfc_array::entry> b;
  batch->for_each([&](const sfc_array::entry& e) { a.push_back(e); });
  loop->for_each([&](const sfc_array::entry& e) { b.push_back(e); });
  EXPECT_EQ(a, b);
}

TEST_P(SfcArrayBehaviour, CompactionPolicyNeverChangesAnswers) {
  // Eager (1.0), default (0.5) and never (0.0) compaction give identical
  // probe answers under churn; only the maintenance ledger differs.
  auto eager = make();
  auto deferred = make();
  eager->set_compaction_policy(1.0);
  deferred->set_compaction_policy(0.0);
  rng gen(43);
  std::vector<sfc_array::entry> live;
  for (int op = 0; op < 3000; ++op) {
    if (gen.uniform(0, 3) != 0 || live.empty()) {
      const sfc_array::entry e{u512(gen.uniform(0, 500)), gen.uniform(0, 8)};
      eager->insert(e.key, e.id);
      deferred->insert(e.key, e.id);
      live.push_back(e);
    } else {
      const std::size_t victim = gen.index(live.size());
      const auto e = live[victim];
      EXPECT_TRUE(eager->erase(e.key, e.id));
      EXPECT_TRUE(deferred->erase(e.key, e.id));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    const std::uint64_t lo = gen.uniform(0, 500);
    const std::uint64_t hi = gen.uniform(lo, 500);
    const key_range r{u512(lo), u512(hi)};
    const auto x = eager->first_in(r);
    const auto y = deferred->first_in(r);
    ASSERT_EQ(x.has_value(), y.has_value());
    if (x.has_value()) {
      EXPECT_EQ(*x, *y);
    }
    EXPECT_EQ(eager->count_in(r), deferred->count_in(r));
    EXPECT_EQ(eager->size(), deferred->size());
    if (op % 500 == 0) deferred->maintain();  // no-op at threshold 0.0
  }
  if (GetParam() == sfc_array_kind::sorted_vector) {
    // The vector backend defers: same erase count, opposite ledgers.
    EXPECT_GT(deferred->maintenance().tombstones_added, 0U);
    EXPECT_EQ(deferred->maintenance().compactions, 0U);
    EXPECT_EQ(eager->maintenance().tombstones_added,
              deferred->maintenance().tombstones_added);
    EXPECT_GT(eager->maintenance().compactions, 0U);
    // Eager mode compacts inside every erase, so nothing is ever pending at
    // insert time and the ledger balances exactly.
    EXPECT_EQ(eager->maintenance().tombstones_purged,
              eager->maintenance().tombstones_added);
    // Deferred tombstones can also leave via insert-resurrection (which is
    // not a purge), so after a forced compaction the ledger only bounds.
    deferred->set_compaction_policy(1.0);
    deferred->maintain();
    EXPECT_GT(deferred->maintenance().compactions, 0U);
    EXPECT_LE(deferred->maintenance().tombstones_purged,
              deferred->maintenance().tombstones_added);
    EXPECT_EQ(deferred->size(), eager->size());
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SfcArrayBehaviour,
                         ::testing::Values(sfc_array_kind::skiplist,
                                           sfc_array_kind::sorted_vector),
                         [](const ::testing::TestParamInfo<sfc_array_kind>& info) {
                           return info.param == sfc_array_kind::skiplist ? "skiplist"
                                                                         : "sorted_vector";
                         });

}  // namespace
}  // namespace subcover
