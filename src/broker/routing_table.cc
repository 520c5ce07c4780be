#include "broker/routing_table.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace subcover {

namespace {

// Position of `link` in the ascending link directory, or of its insertion
// point.
template <class Links>
auto link_position(Links& links, int link) {
  return std::lower_bound(links.begin(), links.end(), link,
                          [](const auto& l, int key) { return l.link < key; });
}

}  // namespace

subscription routing_table::link_entries::body(std::size_t n) const {
  const auto w = static_cast<std::size_t>(width);
  const auto first = ranges.begin() + static_cast<std::ptrdiff_t>(n * w);
  return subscription::from_raw_ranges({first, first + static_cast<std::ptrdiff_t>(w)});
}

bool routing_table::link_entries::matches(std::size_t n, const event& e) const {
  // Branch-free over the attributes: an entry's outcome is one branch.
  const attr_range* r = ranges.data() + n * static_cast<std::size_t>(width);
  bool in = true;
  for (int a = 0; a < width; ++a) {
    const std::uint64_t v = e.value(a);
    in &= (v >= r[a].lo) & (v <= r[a].hi);
  }
  return in;
}

void routing_table::link_entries::check_event(const event& e) const {
  if (e.attribute_count() != width)
    throw std::invalid_argument("routing_table: event has " +
                                std::to_string(e.attribute_count()) + " attributes, link " +
                                std::to_string(link) + " holds subscriptions of " +
                                std::to_string(width));
}

const routing_table::link_entries* routing_table::find(int link) const {
  const auto it = link_position(links_, link);
  return it != links_.end() && it->link == link ? &*it : nullptr;
}

void routing_table::add(int link, sub_id id, const subscription& s) {
  auto it = link_position(links_, link);
  if (it == links_.end() || it->link != link) {
    it = links_.insert(it, link_entries{});
    it->link = link;
    it->width = s.attribute_count();
  } else if (s.attribute_count() != it->width) {
    throw std::invalid_argument("routing_table: subscription " + std::to_string(id) + " has " +
                                std::to_string(s.attribute_count()) + " attributes, link " +
                                std::to_string(link) + " holds subscriptions of " +
                                std::to_string(it->width));
  }
  link_entries& l = *it;
  const auto pos = std::lower_bound(l.ids.begin(), l.ids.end(), id);
  if (pos != l.ids.end() && *pos == id)
    throw std::invalid_argument("routing_table: subscription " + std::to_string(id) +
                                " already present on link " + std::to_string(link));
  const auto first = l.ranges.insert(l.ranges.begin() + (pos - l.ids.begin()) * l.width,
                                     static_cast<std::size_t>(l.width), attr_range{});
  for (int a = 0; a < l.width; ++a) first[a] = s.range(a);
  l.ids.insert(pos, id);
}

bool routing_table::remove(int link, sub_id id) {
  const auto it = link_position(links_, link);
  if (it == links_.end() || it->link != link) return false;
  link_entries& l = *it;
  const auto pos = std::lower_bound(l.ids.begin(), l.ids.end(), id);
  if (pos == l.ids.end() || *pos != id) return false;
  const auto w = static_cast<std::ptrdiff_t>(l.width);
  const auto first = l.ranges.begin() + (pos - l.ids.begin()) * w;
  l.ranges.erase(first, first + w);
  l.ids.erase(pos);
  if (l.ids.empty()) links_.erase(it);
  return true;
}

bool routing_table::contains(int link, sub_id id) const {
  const link_entries* l = find(link);
  return l != nullptr && std::binary_search(l->ids.begin(), l->ids.end(), id);
}

std::size_t routing_table::total_entries() const {
  std::size_t n = 0;
  for (const auto& l : links_) n += l.ids.size();
  return n;
}

std::size_t routing_table::entries_on(int link) const {
  const link_entries* l = find(link);
  return l == nullptr ? 0 : l->ids.size();
}

void routing_table::matching_links(const event& e, int exclude_link,
                                   std::vector<int>& out) const {
  for (const auto& l : links_)
    if (l.link != exclude_link) l.check_event(e);
  for (const auto& l : links_) {
    if (l.link == exclude_link) continue;
    for (std::size_t n = 0; n < l.ids.size(); ++n) {
      if (l.matches(n, e)) {
        out.push_back(l.link);
        break;
      }
    }
  }
}

void routing_table::matching_subs(int link, const event& e, std::vector<sub_id>& out) const {
  const link_entries* l = find(link);
  if (l == nullptr) return;
  l->check_event(e);
  for (std::size_t n = 0; n < l->ids.size(); ++n)
    if (l->matches(n, e)) out.push_back(l->ids[n]);
}

std::size_t routing_table::memory_footprint() const {
  // One directory slot per live link (a handful per broker), then each
  // link's two columns by capacity.
  std::size_t total = sizeof(*this) + links_.size() * sizeof(link_entries);
  for (const auto& l : links_)
    total += l.ids.capacity() * sizeof(sub_id) + l.ranges.capacity() * sizeof(attr_range);
  return total;
}

std::vector<std::pair<sub_id, subscription>> routing_table::subs_not_from(int exclude) const {
  std::vector<std::pair<sub_id, subscription>> out;
  for (const auto& l : links_) {
    if (l.link == exclude) continue;
    for (std::size_t n = 0; n < l.ids.size(); ++n) out.emplace_back(l.ids[n], l.body(n));
  }
  return out;
}

std::map<int, std::vector<std::pair<sub_id, subscription>>> routing_table::snapshot() const {
  std::map<int, std::vector<std::pair<sub_id, subscription>>> out;
  for (const auto& l : links_) {
    auto& entries = out[l.link];
    entries.reserve(l.ids.size());
    for (std::size_t n = 0; n < l.ids.size(); ++n) entries.emplace_back(l.ids[n], l.body(n));
  }
  return out;
}

}  // namespace subcover
