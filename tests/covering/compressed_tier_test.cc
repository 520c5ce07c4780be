// Tiering is invisible: an sfc_covering_index with the compressed cold tier
// enabled must return byte-identical results and byte-identical *logical*
// query stats to the classic resident index over the same workload — only
// the physical tier_* counters may differ (and must be nonzero, proving the
// cold tier actually served probes).
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "covering/sfc_covering_index.h"
#include "workload/subscription_gen.h"

namespace subcover {
namespace {

// The logical half of query_stats: everything the paper's cost model and
// the eps guarantee talk about. Physical probe-work counters (frontier_*,
// probes_*, tier_*) are execution details and excluded.
void expect_logical_stats_equal(const covering_check_stats& tiered,
                                const covering_check_stats& resident) {
  EXPECT_EQ(tiered.found, resident.found);
  EXPECT_EQ(tiered.candidates_checked, resident.candidates_checked);
  const query_stats& t = tiered.dominance;
  const query_stats& r = resident.dominance;
  EXPECT_EQ(t.cubes_enumerated, r.cubes_enumerated);
  EXPECT_EQ(t.runs_in_plan, r.runs_in_plan);
  EXPECT_EQ(t.runs_probed, r.runs_probed);
  EXPECT_EQ(t.truncation_m, r.truncation_m);
  EXPECT_EQ(t.volume_fraction_planned, r.volume_fraction_planned);
  EXPECT_EQ(t.volume_fraction_searched, r.volume_fraction_searched);
  EXPECT_EQ(t.found, r.found);
  EXPECT_EQ(t.budget_exhausted, r.budget_exhausted);
}

struct tier_totals {
  std::uint64_t cold_probes = 0;
  std::uint64_t summary_answers = 0;
  std::uint64_t decoded = 0;
  void add(const query_stats& s) {
    cold_probes += s.tier_cold_probes;
    summary_answers += s.tier_summary_answers;
    decoded += s.tier_blocks_decoded;
  }
};

void run_equivalence(const schema& s, int n_subs, int n_queries,
                     std::uint64_t seed) {
  sfc_covering_options tiered_opts;
  tiered_opts.tier_hot_capacity = 24;  // small: most entries live cold
  tiered_opts.tier_block_entries = 8;
  sfc_covering_index tiered(s, tiered_opts);
  sfc_covering_index resident(s);

  workload::subscription_gen_options wo;
  wo.kind = workload::workload_kind::clustered;  // covering-rich
  workload::subscription_gen gen(s, wo, seed);

  std::vector<std::pair<sub_id, subscription>> batch;
  for (sub_id id = 0; id < static_cast<sub_id>(n_subs); ++id)
    batch.emplace_back(id, gen.next());
  // Half through the bulk path (lands cold immediately on the tiered side),
  // half through single inserts (lands hot, demoted on overflow).
  const auto half = batch.begin() + n_subs / 2;
  tiered.insert_batch({batch.begin(), half});
  resident.insert_batch({batch.begin(), half});
  for (auto it = half; it != batch.end(); ++it) {
    tiered.insert(it->first, it->second);
    resident.insert(it->first, it->second);
  }

  tier_totals totals;
  sub_id next_erase = 0;
  for (int q = 0; q < n_queries; ++q) {
    const subscription probe = gen.next();
    for (const double eps : {0.0, 0.05, 0.2}) {
      covering_check_stats ts;
      covering_check_stats rs;
      const std::optional<sub_id> th = tiered.find_covering(probe, eps, &ts);
      const std::optional<sub_id> rh = resident.find_covering(probe, eps, &rs);
      ASSERT_EQ(th.has_value(), rh.has_value()) << "query " << q << " eps " << eps;
      if (th.has_value()) {
        EXPECT_EQ(*th, *rh);
      }
      expect_logical_stats_equal(ts, rs);
      EXPECT_EQ(rs.dominance.tier_cold_probes, 0U);  // resident side never tiers
      totals.add(ts.dominance);
    }
    // Interleave erases so both sides mutate mid-stream (cold-tier block
    // splices on the tiered side).
    if (q % 4 == 3 && next_erase < static_cast<sub_id>(n_subs)) {
      EXPECT_EQ(tiered.erase(next_erase), resident.erase(next_erase));
      ++next_erase;
    }
  }
  EXPECT_EQ(tiered.size(), resident.size());
  // The cold tier must have carried real probe traffic for the comparison
  // to mean anything.
  EXPECT_GT(totals.cold_probes, 0U);
  EXPECT_GT(totals.summary_answers + totals.decoded, 0U);
}

TEST(CoveringIndex, CompressedTierIsByteIdenticalToResident) {
  // u64-width pipeline: 2 attributes x 8 bits -> 4-dim, 32-bit keys.
  run_equivalence(workload::make_uniform_schema(2, 8), /*n_subs=*/300,
                  /*n_queries=*/120, /*seed=*/1234);
}

TEST(CoveringIndex, CompressedTierIsByteIdenticalToResidentU128) {
  // 3 attributes x 16 bits -> 6-dim, 96-bit keys.
  run_equivalence(workload::make_uniform_schema(3, 16), /*n_subs=*/150,
                  /*n_queries=*/60, /*seed=*/77);
}

TEST(CoveringIndex, CompressedTierIsByteIdenticalToResidentU512) {
  // 8 attributes x 16 bits -> 16-dim, 256-bit keys.
  run_equivalence(workload::make_uniform_schema(8, 16), /*n_subs=*/80,
                  /*n_queries=*/25, /*seed=*/9);
}

TEST(CoveringIndex, TierCountersSurfaceInCheckStats) {
  const schema s = workload::make_uniform_schema(2, 8);
  sfc_covering_options o;
  o.tier_hot_capacity = 4;
  o.tier_block_entries = 4;
  sfc_covering_index idx(s, o);
  workload::subscription_gen gen(s, {}, 3);
  std::vector<std::pair<sub_id, subscription>> batch;
  for (sub_id id = 0; id < 64; ++id) batch.emplace_back(id, gen.next());
  idx.insert_batch(batch);

  std::uint64_t cold = 0;
  for (int q = 0; q < 20; ++q) {
    covering_check_stats stats;
    (void)idx.find_covering(gen.next(), 0.0, &stats);
    cold += stats.dominance.tier_cold_probes;
  }
  EXPECT_GT(cold, 0U);
}

}  // namespace
}  // namespace subcover
