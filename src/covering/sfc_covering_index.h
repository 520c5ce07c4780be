// The paper's covering detector: subscriptions are mapped to points in the
// 2*beta-dimensional dominance universe (EO82 transform) and indexed on a
// space filling curve; find_covering(s, eps) runs the eps-approximate point
// dominance query of Section 5 with p(s) as the query point.
//
// Every dominance hit is re-verified against the stored subscription before
// being returned (defense in depth; the geometric construction already
// guarantees it), so a returned id always truly covers `s` for any eps.
//
// find_covering routes through the dominance index's reusable query plan
// (dominance/query_plan.h): the covering hot path performs no per-check
// heap allocation once warm. The plan is per-index scratch, so concurrent
// find_covering calls on one sfc_covering_index are not safe; a broker
// keeps one index per link, which serializes naturally.
#pragma once

#include <map>

#include "covering/covering_index.h"
#include "dominance/dominance_index.h"

namespace subcover {

// The dominance index's options with two production defaults of their own.
// Covering queries for subscriptions with wildcard or open-ended
// constraints produce degenerate (unit-thickness, huge-aspect-ratio)
// dominance regions — the paper's "M x 1" worst case — whose full
// decomposition is astronomically large. Covering detection is therefore
// best-effort within a smaller cube budget: the search probes the largest
// cubes it could enumerate and reports budget_exhausted in the stats.
// Detection stays one-sided (hits are always real coverings); only
// completeness degrades on degenerate queries. The key width `automatic`
// picks for the 2*beta-dimensional dominance universe fits most schemas in
// 128 bits (util/key_traits.h).
struct sfc_covering_options : dominance_options {
  sfc_covering_options() {
    max_cubes = std::uint64_t{1} << 16;
    settle_on_budget = true;
  }
};

class sfc_covering_index final : public covering_index {
 public:
  explicit sfc_covering_index(const schema& s, sfc_covering_options options = {});

  void insert(sub_id id, const subscription& s) override;
  // Bulk path: one EO82 transform pass + one dominance-array bulk load
  // (sort + merge) instead of per-subscription index descents.
  void insert_batch(const std::vector<std::pair<sub_id, subscription>>& subs) override;
  bool erase(sub_id id) override;
  // Bulk withdrawal: one EO82 transform pass + one dominance-array batch
  // erase, paying tombstone/compaction machinery once instead of per id.
  // Unknown ids are skipped (covering_index contract).
  std::size_t erase_batch(const std::vector<sub_id>& ids) override;
  void maintain() override { index_.maintain(); }
  [[nodiscard]] std::optional<sub_id> find_covering(
      const subscription& s, double epsilon,
      covering_check_stats* stats = nullptr) const override;
  [[nodiscard]] std::size_t size() const override { return subs_.size(); }
  [[nodiscard]] std::string_view name() const override;
  [[nodiscard]] std::size_t memory_footprint() const override {
    return sizeof(*this) + index_.memory_footprint() + subscription_map_footprint(subs_);
  }

  [[nodiscard]] const dominance_index& index() const { return index_; }

 private:
  dominance_index index_;
  std::map<sub_id, subscription> subs_;  // for verification and erase
};

}  // namespace subcover
