// Cross-validation of covering_index implementations against the linear-scan
// ground truth, over several workloads.
#include "covering/covering_index.h"

#include <gtest/gtest.h>

#include "covering/linear_covering_index.h"
#include "covering/sfc_covering_index.h"
#include "pubsub/parser.h"
#include "workload/subscription_gen.h"

namespace subcover {
namespace {

TEST(CoveringIndex, FactoryProducesAllKinds) {
  const schema s = workload::make_uniform_schema(2, 8);
  EXPECT_EQ(make_covering_index(covering_index_kind::sfc, s)->name(), "sfc-z");
  EXPECT_EQ(make_covering_index(covering_index_kind::linear, s)->name(), "linear-scan");
  EXPECT_EQ(make_covering_index(covering_index_kind::sampled, s)->name(), "mc-sampled");
}

TEST(CoveringIndex, StockScenario) {
  // The introduction's example on a coarse quote schema (4-bit symbol,
  // 6-bit volume/price buckets) where exhaustive detection is tractable.
  const schema s({
      {"stock", attribute_type::categorical, 4, {"IBM", "AAPL", "MSFT", "GOOG"}},
      {"volume", attribute_type::numeric, 6, {}},
      {"price", attribute_type::numeric, 6, {}},
  });
  sfc_covering_options so;
  so.max_cubes = std::uint64_t{1} << 23;
  so.settle_on_budget = false;
  sfc_covering_index idx(s, so);
  idx.insert(1, parse_subscription(s, "stock = IBM, volume >= 10"));
  idx.insert(2, parse_subscription(s, "stock = AAPL"));
  // Narrower IBM subscription is covered by id 1.
  const auto hit = idx.find_covering(parse_subscription(s, "stock = IBM, volume >= 50"), 0.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 1U);
  // A subscription matching all stocks is not covered by either.
  EXPECT_FALSE(idx.find_covering(parse_subscription(s, "volume >= 50"), 0.0).has_value());
}

TEST(CoveringIndex, DuplicateIdThrows) {
  const schema s = workload::make_uniform_schema(2, 8);
  for (const auto kind :
       {covering_index_kind::sfc, covering_index_kind::linear, covering_index_kind::sampled}) {
    auto idx = make_covering_index(kind, s);
    idx->insert(1, subscription::match_all(s));
    EXPECT_THROW(idx->insert(1, subscription::match_all(s)), std::invalid_argument)
        << idx->name();
  }
}

TEST(CoveringIndex, EraseUnknownReturnsFalse) {
  const schema s = workload::make_uniform_schema(2, 8);
  for (const auto kind :
       {covering_index_kind::sfc, covering_index_kind::linear, covering_index_kind::sampled}) {
    auto idx = make_covering_index(kind, s);
    EXPECT_FALSE(idx->erase(99)) << idx->name();
  }
}

TEST(CoveringIndex, InvalidEpsilonThrows) {
  const schema s = workload::make_uniform_schema(2, 8);
  for (const auto kind :
       {covering_index_kind::sfc, covering_index_kind::linear, covering_index_kind::sampled}) {
    auto idx = make_covering_index(kind, s);
    EXPECT_THROW((void)idx->find_covering(subscription::match_all(s), -0.5),
                 std::invalid_argument);
    EXPECT_THROW((void)idx->find_covering(subscription::match_all(s), 1.0),
                 std::invalid_argument);
  }
}

using cross_case = std::tuple<workload::workload_kind, int>;

std::string cross_case_name(const ::testing::TestParamInfo<cross_case>& info) {
  const char* names[] = {"uniform", "clustered", "zipf"};
  return std::string(names[static_cast<int>(std::get<0>(info.param))]) + "_" +
         std::to_string(std::get<1>(info.param)) + "attrs";
}

class CoveringCrossValidation : public ::testing::TestWithParam<cross_case> {};

// Exhaustive (eps = 0) cross-validation needs universes small enough that
// the full decomposition fits the cube budget — Theorem 4.1 makes larger
// ones combinatorially explosive, which E5/E9 measure instead.
int bits_for(int attrs) { return attrs == 2 ? 6 : attrs == 3 ? 4 : 3; }

TEST_P(CoveringCrossValidation, SfcExhaustiveAgreesWithLinearScan) {
  const auto [kind, attrs] = GetParam();
  const schema s = workload::make_uniform_schema(attrs, bits_for(attrs));
  workload::subscription_gen_options opts;
  opts.kind = kind;
  workload::subscription_gen gen(s, opts, 101);

  linear_covering_index oracle(s);
  // Exhaustive agreement requires the full decomposition to fit the budget;
  // disable settling so any overrun fails loudly instead of silently missing.
  sfc_covering_options so;
  so.max_cubes = std::uint64_t{1} << 23;
  so.settle_on_budget = false;
  sfc_covering_index sfc(s, so);
  for (sub_id id = 0; id < 250; ++id) {
    const auto sub = gen.next();
    oracle.insert(id, sub);
    sfc.insert(id, sub);
  }
  int found = 0;
  for (int q = 0; q < 150; ++q) {
    const auto query = gen.next();
    const bool expected = oracle.find_covering(query, 0.0).has_value();
    covering_check_stats st;
    const auto hit = sfc.find_covering(query, 0.0, &st);
    ASSERT_FALSE(st.dominance.budget_exhausted) << query.to_string(s);
    ASSERT_EQ(hit.has_value(), expected) << query.to_string(s);
    if (hit.has_value()) ++found;
  }
  // Clustered/zipf workloads must produce actual covering hits for the test
  // to be meaningful; uniform may produce few.
  if (kind != workload::workload_kind::uniform) {
    EXPECT_GT(found, 0);
  }
}

TEST_P(CoveringCrossValidation, ApproximateIsSoundAndMostlyComplete) {
  const auto [kind, attrs] = GetParam();
  const schema s = workload::make_uniform_schema(attrs, bits_for(attrs));
  workload::subscription_gen_options opts;
  opts.kind = kind;
  workload::subscription_gen gen(s, opts, 202);

  linear_covering_index oracle(s);
  sfc_covering_index sfc(s);
  for (sub_id id = 0; id < 250; ++id) {
    const auto sub = gen.next();
    oracle.insert(id, sub);
    sfc.insert(id, sub);
  }
  int true_covered = 0;
  int detected = 0;
  for (int q = 0; q < 200; ++q) {
    const auto query = gen.next();
    const bool expected = oracle.find_covering(query, 0.0).has_value();
    const auto hit = sfc.find_covering(query, 0.05);
    // One-sided error: a hit implies true covering.
    if (hit.has_value()) {
      EXPECT_TRUE(expected);
    }
    true_covered += expected ? 1 : 0;
    detected += hit.has_value() ? 1 : 0;
  }
  if (true_covered >= 20) {
    // Detection rate should be high (the paper's "most of the benefits").
    EXPECT_GE(static_cast<double>(detected), 0.7 * static_cast<double>(true_covered));
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, CoveringCrossValidation,
                         ::testing::Values(cross_case{workload::workload_kind::uniform, 2},
                                           cross_case{workload::workload_kind::uniform, 3},
                                           cross_case{workload::workload_kind::clustered, 2},
                                           cross_case{workload::workload_kind::clustered, 4},
                                           cross_case{workload::workload_kind::zipf, 2},
                                           cross_case{workload::workload_kind::zipf, 3}),
                         cross_case_name);

}  // namespace
}  // namespace subcover
