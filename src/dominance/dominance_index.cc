#include "dominance/dominance_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "dominance/query_plan.h"
#include "sfcarray/tiered_sfc_array.h"
#include "util/bitops.h"

namespace subcover {

namespace {

// Engine array factory honoring the tiering options: plain backend when
// tiering is off (the default), hot/cold tiered array when on.
template <class K>
std::unique_ptr<basic_sfc_array<K>> make_engine_array(const dominance_options& o) {
  if (o.tier_hot_capacity == 0) {
    auto a = make_basic_sfc_array<K>(o.array);
    a->set_compaction_policy(o.compact_live_fraction);
    return a;
  }
  tiered_array_options t;
  t.hot_backend = o.array;
  t.hot_capacity = o.tier_hot_capacity;
  t.block_entries = o.tier_block_entries;
  t.min_live_fraction = o.compact_live_fraction;
  return std::make_unique<basic_tiered_sfc_array<K>>(t);
}

// Read-only u512 adapter over a narrow array: keys are widened on the way
// out and truncated (with clamping for over-wide probe ranges) on the way
// in, so external callers of dominance_index::array() see the reference
// width whatever the engine runs on. Mutations forward too, keeping the
// view coherent — though the owning index only hands out const references.
template <class K>
class widening_array_view final : public sfc_array {
 public:
  explicit widening_array_view(basic_sfc_array<K>& inner) : inner_(&inner) {}

  void insert(const u512& key, std::uint64_t id) override {
    inner_->insert(narrow_key(key), id);
  }
  bool erase(const u512& key, std::uint64_t id) override {
    return inner_->erase(narrow_key(key), id);
  }
  std::size_t erase_batch(const std::vector<entry>& entries) override {
    std::vector<typename basic_sfc_array<K>::entry> narrow;
    narrow.reserve(entries.size());
    for (const entry& e : entries) narrow.push_back({narrow_key(e.key), e.id});
    return inner_->erase_batch(narrow);
  }
  void maintain() override { inner_->maintain(); }
  [[nodiscard]] maintenance_counters maintenance() const override {
    return inner_->maintenance();
  }
  void set_compaction_policy(double min_live_fraction) override {
    inner_->set_compaction_policy(min_live_fraction);
  }
  void reserve(std::size_t n) override { inner_->reserve(n); }
  void bulk_load(std::vector<entry> entries) override {
    std::vector<typename basic_sfc_array<K>::entry> narrow;
    narrow.reserve(entries.size());
    for (const entry& e : entries) narrow.push_back({narrow_key(e.key), e.id});
    inner_->bulk_load(std::move(narrow));
  }
  [[nodiscard]] std::optional<entry> first_in(const key_range& r) const override {
    return first_in(r, nullptr);
  }
  [[nodiscard]] std::optional<entry> first_in(const key_range& r,
                                              probe_hint* hint) const override {
    basic_key_range<K> nr;
    if (!narrow_range(r, &nr)) return std::nullopt;
    typename basic_sfc_array<K>::probe_hint nh;
    if (hint != nullptr) nh.pos = hint->pos;
    const auto hit = inner_->first_in(nr, hint != nullptr ? &nh : nullptr);
    if (hint != nullptr) hint->pos = nh.pos;
    if (!hit.has_value()) return std::nullopt;
    return entry{key_traits<K>::widen(hit->key), hit->id};
  }
  void probe_frontier(std::span<const key_range> frontier,
                      frontier_sink& sink) const override {
    // Narrow the frontier and forward to the inner batched sweep, widening
    // each answer on the way out. Frontier lows are non-decreasing, so the
    // ranges that fall entirely above the narrow key domain form a suffix:
    // the prefix maps 1:1 onto an inner sweep (clamping hi preserves the
    // answers, exactly as first_in does), the suffix is reported as misses
    // in order. Unlike the backends this adapter allocates (the narrowed
    // prefix); it is a convenience view, not the query hot path — the plan
    // binds to the inner array directly.
    std::vector<basic_key_range<K>> narrowed;
    narrowed.reserve(frontier.size());
    for (const key_range& r : frontier) {
      basic_key_range<K> nr;
      if (!narrow_range(r, &nr)) break;
      narrowed.push_back(nr);
    }
    struct widening_sink final : basic_sfc_array<K>::frontier_sink {
      sfc_array::frontier_sink* out;
      bool stopped = false;
      bool on_probe(std::size_t index,
                    const typename basic_sfc_array<K>::entry* hit) override {
        bool keep_going;
        if (hit != nullptr) {
          const sfc_array::entry widened{key_traits<K>::widen(hit->key), hit->id};
          keep_going = out->on_probe(index, &widened);
        } else {
          keep_going = out->on_probe(index, nullptr);
        }
        if (!keep_going) stopped = true;
        return keep_going;
      }
    };
    widening_sink ws;
    ws.out = &sink;
    inner_->probe_frontier(std::span<const basic_key_range<K>>(narrowed), ws);
    if (ws.stopped) return;
    for (std::size_t i = narrowed.size(); i < frontier.size(); ++i) {
      if (!sink.on_probe(i, nullptr)) return;
    }
  }
  [[nodiscard]] std::uint64_t count_in(const key_range& r) const override {
    basic_key_range<K> nr;
    if (!narrow_range(r, &nr)) return 0;
    return inner_->count_in(nr);
  }
  [[nodiscard]] std::size_t size() const override { return inner_->size(); }
  void for_each(const std::function<void(const entry&)>& fn) const override {
    inner_->for_each([&](const typename basic_sfc_array<K>::entry& e) {
      fn(entry{key_traits<K>::widen(e.key), e.id});
    });
  }
  [[nodiscard]] std::size_t memory_footprint() const override {
    // The view owns nothing; report the viewed array so callers holding the
    // facade see the real storage cost.
    return inner_->memory_footprint();
  }

 private:
  static K narrow_key(const u512& key) {
    const K k = key_traits<K>::truncate(key);
    if (key_traits<K>::widen(k) != key)
      throw std::invalid_argument("sfc_array: key wider than the index's key type");
    return k;
  }
  // Clamps [r.lo, r.hi] to the narrow key domain; false if empty there.
  static bool narrow_range(const key_range& r, basic_key_range<K>* out) {
    const u512 nmax = key_traits<K>::widen(key_traits<K>::max());
    if (r.lo > nmax) return false;
    out->lo = key_traits<K>::truncate(r.lo);
    out->hi = r.hi > nmax ? key_traits<K>::max() : key_traits<K>::truncate(r.hi);
    return true;
  }

  basic_sfc_array<K>* inner_;
};

}  // namespace

dominance_index::dominance_index(const universe& u, dominance_options options)
    : universe_(u),
      options_(options),
      width_(options.width == key_width::automatic ? select_key_width(u.key_bits())
                                                   : options.width) {
  if (options_.max_cubes > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("dominance_index: max_cubes must be <= UINT32_MAX");
  switch (width_) {
    case key_width::w64:
      engine_.emplace<engine<std::uint64_t>>(
          engine<std::uint64_t>{make_basic_curve<std::uint64_t>(options.curve, u),
                                make_engine_array<std::uint64_t>(options_)});
      break;
    case key_width::w128:
      engine_.emplace<engine<u128>>(engine<u128>{make_basic_curve<u128>(options.curve, u),
                                                 make_engine_array<u128>(options_)});
      break;
    case key_width::w512:
    case key_width::automatic:
      width_ = key_width::w512;
      engine_.emplace<engine<u512>>(engine<u512>{make_basic_curve<u512>(options.curve, u),
                                                 make_engine_array<u512>(options_)});
      break;
  }
  // Narrow engines get u512 facades so sfc()/array() keep their reference-
  // width signatures.
  std::visit(
      [&](auto& e) {
        using K = typename std::decay_t<decltype(*e.curve)>::key_type;
        if constexpr (!std::is_same_v<K, u512>) {
          facade_curve_ = make_curve(options_.curve, universe_);
          facade_array_ = std::make_unique<widening_array_view<K>>(*e.array);
        }
      },
      engine_);
  plan_ = std::make_unique<query_plan>(*this);
}

dominance_index::~dominance_index() = default;

const curve& dominance_index::sfc() const {
  if (facade_curve_ != nullptr) return *facade_curve_;
  return *std::get<engine<u512>>(engine_).curve;
}

const sfc_array& dominance_index::array() const {
  if (facade_array_ != nullptr) return *facade_array_;
  return *std::get<engine<u512>>(engine_).array;
}

std::size_t dominance_index::size() const {
  return std::visit([](const auto& e) { return e.array->size(); }, engine_);
}

std::size_t dominance_index::memory_footprint() const {
  return std::visit([](const auto& e) { return e.array->memory_footprint(); }, engine_);
}

void dominance_index::insert(const point& p, std::uint64_t id) {
  if (!p.inside(universe_))
    throw std::invalid_argument("dominance_index::insert: point outside universe");
  std::visit([&](auto& e) { e.array->insert(e.curve->cell_key(p), id); }, engine_);
}

void dominance_index::insert_batch(const std::vector<std::pair<point, std::uint64_t>>& items) {
  for (const auto& [p, id] : items) {
    (void)id;
    if (!p.inside(universe_))
      throw std::invalid_argument("dominance_index::insert_batch: point outside universe");
  }
  std::visit(
      [&](auto& e) {
        using Array = std::decay_t<decltype(*e.array)>;
        std::vector<typename Array::entry> entries;
        entries.reserve(items.size());
        for (const auto& [p, id] : items) entries.push_back({e.curve->cell_key(p), id});
        e.array->bulk_load(std::move(entries));
      },
      engine_);
}

bool dominance_index::erase(const point& p, std::uint64_t id) {
  if (!p.inside(universe_))
    throw std::invalid_argument("dominance_index::erase: point outside universe");
  return std::visit([&](auto& e) { return e.array->erase(e.curve->cell_key(p), id); }, engine_);
}

std::size_t dominance_index::erase_batch(
    const std::vector<std::pair<point, std::uint64_t>>& items) {
  for (const auto& [p, id] : items) {
    (void)id;
    if (!p.inside(universe_))
      throw std::invalid_argument("dominance_index::erase_batch: point outside universe");
  }
  return std::visit(
      [&](auto& e) {
        using Array = std::decay_t<decltype(*e.array)>;
        std::vector<typename Array::entry> entries;
        entries.reserve(items.size());
        for (const auto& [p, id] : items) entries.push_back({e.curve->cell_key(p), id});
        return e.array->erase_batch(entries);
      },
      engine_);
}

void dominance_index::maintain() {
  std::visit([](auto& e) { e.array->maintain(); }, engine_);
}

maintenance_counters dominance_index::maintenance() const {
  return std::visit([](const auto& e) { return e.array->maintenance(); }, engine_);
}

int dominance_index::truncation_m(double epsilon) const {
  if (epsilon <= 0) return 0;
  const double d = universe_.dims();
  const int m = static_cast<int>(std::ceil(std::log2(2.0 * d / epsilon)));
  // Side lengths have at most k+1 bits (l = 2^k); truncating to more bits
  // than that is the identity, so clamp for a meaningful stat.
  return std::min(m, universe_.bits() + 1);
}

std::optional<std::uint64_t> dominance_index::query(const point& x, double epsilon,
                                                    query_stats* stats) const {
  return plan_->run(x, epsilon, stats);
}

std::vector<std::optional<std::uint64_t>> dominance_index::query_batch(
    const std::vector<point>& xs, double epsilon, std::vector<query_stats>* stats) const {
  std::vector<std::optional<std::uint64_t>> results;
  results.reserve(xs.size());
  if (stats != nullptr) stats->resize(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    results.push_back(plan_->run(xs[i], epsilon, stats != nullptr ? &(*stats)[i] : nullptr));
  return results;
}

}  // namespace subcover
