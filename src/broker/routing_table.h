// Per-broker routing state: for every link (neighbor broker, or the local
// client port), the set of subscriptions received over that link. Events are
// forwarded toward a link iff some subscription received from it matches —
// the standard reverse-path content routing of Siena-style systems.
//
// Layout (the publish path is a flat scan): each link stores its entries as
// two columns — the subscription ids, kept ascending, and their attribute
// ranges flattened entry by entry — so matching an event walks contiguous
// memory instead of chasing tree nodes and a heap range vector per entry.
// add/remove/contains binary-search the id column and insert or erase in
// place. Every entry on a link has the same attribute count (one schema per
// network); iteration is ascending by link, then by id, exactly the order
// the exported views (snapshot, subs_not_from, matching_subs) report.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "covering/covering_index.h"
#include "pubsub/event.h"
#include "pubsub/subscription.h"

namespace subcover {

// Link id of the broker's local clients.
inline constexpr int kLocalLink = -1;

class routing_table {
 public:
  // Throws std::invalid_argument if the id is already present on the link,
  // or if the subscription's attribute count differs from the entries the
  // link already holds (schema mismatch).
  void add(int link, sub_id id, const subscription& s);
  bool remove(int link, sub_id id);

  [[nodiscard]] bool contains(int link, sub_id id) const;
  // Number of (link, subscription) entries — the table-size metric.
  [[nodiscard]] std::size_t total_entries() const;
  [[nodiscard]] std::size_t entries_on(int link) const;

  // The publish path fills caller-owned scratch, so a warm caller routes an
  // event without allocating. Both append to `out` and throw
  // std::invalid_argument, before appending anything, if a scanned link's
  // entries have a different attribute count than the event.
  //
  // Appends the links (ascending, excluding `exclude_link`) holding at
  // least one subscription that matches the event.
  void matching_links(const event& e, int exclude_link, std::vector<int>& out) const;
  // Appends the ids of subscriptions on `link` matching the event (local
  // delivery), ascending.
  void matching_subs(int link, const event& e, std::vector<sub_id>& out) const;

  // All (id, subscription) pairs received over links other than `exclude`.
  [[nodiscard]] std::vector<std::pair<sub_id, subscription>> subs_not_from(int exclude) const;

  // Full export as link -> (id, subscription) pairs, ids ascending within
  // each link — the routing payload of a broker_snapshot (broker/wal.h).
  [[nodiscard]] std::map<int, std::vector<std::pair<sub_id, subscription>>> snapshot() const;

  // Bytes the table owns: one directory slot per live link plus each
  // link's two columns, counted by capacity.
  [[nodiscard]] std::size_t memory_footprint() const;

  // Full-state equality (same links, same ids, same subscription bodies) —
  // what the engine-equivalence and recovery tests compare.
  friend bool operator==(const routing_table&, const routing_table&) = default;

 private:
  // One link's entries: ids ascending, and `width` ranges per entry in the
  // same order (entry n's ranges are ranges[n * width, (n + 1) * width)).
  struct link_entries {
    int link = 0;
    int width = 0;
    std::vector<sub_id> ids;
    std::vector<attr_range> ranges;

    [[nodiscard]] subscription body(std::size_t n) const;
    // True iff entry n's rectangle contains the event's point; the event
    // must have `width` values.
    [[nodiscard]] bool matches(std::size_t n, const event& e) const;
    // Throws std::invalid_argument unless the event has `width` values.
    void check_event(const event& e) const;

    friend bool operator==(const link_entries&, const link_entries&) = default;
  };

  [[nodiscard]] const link_entries* find(int link) const;

  std::vector<link_entries> links_;  // ascending by link; no link is empty
};

}  // namespace subcover
