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

struct sfc_covering_options {
  curve_kind curve = curve_kind::z_order;
  sfc_array_kind array = sfc_array_kind::skiplist;
  // Key width of the dominance pipeline; `automatic` picks the narrowest
  // type that fits the 2*beta-dimensional dominance universe (most schemas
  // fit 128 bits — see util/key_traits.h).
  key_width width = key_width::automatic;
  bool merge_runs = true;
  // Batched frontier probing (see dominance_options::batched_probe): answer
  // each level's run frontier with one resumed probe_frontier sweep instead
  // of per-run descents. Identical detection results either way.
  bool batched_probe = true;
  // Head-probe depth before the frontier sweep engages (see
  // dominance_options::head_probe): 1 = the pinned scan-only head, > 1 =
  // fixed deeper head. Identical detection results for every setting.
  int head_probe = 1;
  // SIMD policy for the dominance plan's level-frontier kernels (see
  // dominance_options::simd / util/simd.h). Identical detection results and
  // logical stats for every setting; only speed moves.
  simd_mode simd = simd_mode::automatic;
  // Covering queries for subscriptions with wildcard or open-ended
  // constraints produce degenerate (unit-thickness, huge-aspect-ratio)
  // dominance regions — the paper's "M x 1" worst case — whose full
  // decomposition is astronomically large. Production behaviour is
  // best-effort within a cube budget: the search probes the largest cubes it
  // could enumerate and reports budget_exhausted in the stats. Detection
  // stays one-sided (hits are always real coverings); only completeness
  // degrades on degenerate queries.
  std::uint64_t max_cubes = std::uint64_t{1} << 16;
  bool settle_on_budget = true;
  // Hot/cold tiering of the dominance array (see
  // dominance_options::tier_hot_capacity): 0 = classic resident array (the
  // default, byte-for-byte today's behavior); > 0 = keep at most this many
  // recently inserted / recently hit entries in the probe-ready hot
  // backend and the rest delta/varint-compressed. Detection results and
  // logical query_stats are identical either way.
  std::size_t tier_hot_capacity = 0;
  std::size_t tier_block_entries = 64;
  // Compaction threshold for deferred erase in the dominance array (see
  // dominance_options::compact_live_fraction): 1.0 = eager per-erase
  // compaction (the naive churn baseline), 0.0 = never. Detection results
  // and logical query_stats are identical for every setting.
  double compact_live_fraction = 0.5;
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
  sfc_covering_options options_;
  dominance_index index_;
  std::map<sub_id, subscription> subs_;  // for verification and erase
};

}  // namespace subcover
