#include "broker/fault_engine.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/check.h"

namespace subcover {

namespace {

void check_prob(double p, const char* name) {
  if (p < 0.0 || p > 1.0)
    throw std::invalid_argument(std::string("fault_engine: ") + name + " must be in [0, 1]");
}

struct event_after {
  template <class E>
  bool operator()(const E& a, const E& b) const {
    return a.time != b.time ? a.time > b.time : a.order > b.order;
  }
};

constexpr std::uint64_t kClient = 1;  // the network's client tag at every origin

}  // namespace

fault_engine::fault_engine(const topology& t, const schema& s,
                           const covering_index_factory& factory, broker_options broker_opts,
                           fault_options opts, network_metrics& metrics)
    : topology_(t),
      schema_(s),
      factory_(factory),
      broker_opts_(broker_opts),
      opts_(opts),
      metrics_(metrics),
      rng_(opts.seed) {
  check_prob(opts_.drop_prob, "drop_prob");
  check_prob(opts_.delay_prob, "delay_prob");
  check_prob(opts_.crash_prob, "crash_prob");
  if (opts_.max_delay == 0) throw std::invalid_argument("fault_engine: max_delay must be >= 1");
  const auto n = static_cast<std::size_t>(topology_.size());
  wals_.reserve(n);  // nodes borrow their WALs: no reallocation after this
  for (std::size_t i = 0; i < n; ++i) wals_.emplace_back();
  for (int b = 0; b < topology_.size(); ++b)
    for (const int nb : topology_.neighbors(b))
      if (b < nb) {
        link_index_[{b, nb}] = links_.size();
        links_.push_back(link{{b, nb}});
      }
  nodes_.resize(n);
  for (int b = 0; b < topology_.size(); ++b) restart(b);
}

const broker& fault_engine::broker_at(int b) const {
  const auto& node = nodes_.at(static_cast<std::size_t>(b));
  SUBCOVER_CHECK(node != nullptr, "fault_engine: broker is down");
  return node->state();
}

broker_wal& fault_engine::wal_of(int b) { return wals_.at(static_cast<std::size_t>(b)); }

std::size_t fault_engine::recover_broker(int b) {
  SUBCOVER_CHECK(b >= 0 && b < topology_.size(), "fault_engine: bad broker id");
  heal();
  nodes_[static_cast<std::size_t>(b)].reset();
  for (const int nb : topology_.neighbors(b)) take_down(link_between(b, nb));
  restart(b);
  const std::size_t replayed = nodes_[static_cast<std::size_t>(b)]->logged_records();
  // The rebuilt node resumes its client-origin records; let that settle.
  run_to_quiescence();
  return replayed;
}

void fault_engine::run_subscribe(int origin, sub_id id, const subscription& s) {
  wire_msg m;
  m.type = msg_type::client_subscribe;
  m.id = id;
  m.body = s;
  (void)run_op(origin, m);
}

void fault_engine::run_unsubscribe(int origin, sub_id id) {
  wire_msg m;
  m.type = msg_type::client_unsubscribe;
  m.id = id;
  (void)run_op(origin, m);
}

std::vector<sub_id> fault_engine::run_publish(int origin, const event& e) {
  wire_msg m;
  m.type = msg_type::client_publish;
  m.values.reserve(static_cast<std::size_t>(e.attribute_count()));
  for (int i = 0; i < e.attribute_count(); ++i) m.values.push_back(e.value(i));
  return run_op(origin, m);
}

std::vector<sub_id> fault_engine::run_op(int origin, const wire_msg& m) {
  heal();
  origin_ = origin;
  done_.reset();
  broker_node& node = *nodes_[static_cast<std::size_t>(origin)];
  try {
    node.client_op(m, kClient);
  } catch (...) {
    node.out() = {};  // the status-1 completion: the exception says it all
    throw;
  }
  flush(origin);
  run_to_quiescence();
  SUBCOVER_CHECK(done_.has_value(), "fault_engine: quiescent without the client's completion");
  return std::move(done_->delivered);
}

void fault_engine::run_to_quiescence() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), event_after{});
    const sim_event e = std::move(heap_.back());
    heap_.pop_back();
    now_ = e.time;
    switch (e.k) {
      case sim_event::kind::deliver:
        deliver(e);
        break;
      case sim_event::kind::reconnect: {
        const link& l = links_[e.link];
        // A later reset or crash owns the link now; a crashed end's
        // restart brings it up.
        if (l.up || e.epoch != l.epoch) break;
        if (nodes_[static_cast<std::size_t>(l.end[0])] == nullptr ||
            nodes_[static_cast<std::size_t>(l.end[1])] == nullptr)
          break;
        bring_up(e.link);
        break;
      }
      case sim_event::kind::recover:
        restart(e.to);
        break;
    }
  }
  for (const auto& node : nodes_)
    SUBCOVER_CHECK(node != nullptr && node->quiescent(),
                   "fault_engine: quiescent with unacked messages");
}

void fault_engine::heal() {
  // A previous operation that threw may have left events, crashed brokers
  // and down links behind.
  heap_.clear();
  for (int b = 0; b < topology_.size(); ++b)
    if (nodes_[static_cast<std::size_t>(b)] == nullptr) restart(b);
  for (std::size_t l = 0; l < links_.size(); ++l) {
    links_[l].resets = 0;
    if (!links_[l].up) bring_up(l);
  }
}

void fault_engine::deliver(const sim_event& e) {
  link& l = links_[e.link];
  if (e.epoch != l.epoch) return;  // lost in a reset
  const int from = l.end[0] == e.to ? l.end[1] : l.end[0];
  broker_node& node = *nodes_[static_cast<std::size_t>(e.to)];
  if (e.msg.type == msg_type::ack) {
    l.resets = 0;
  } else if (e.to != origin_ && rng_.bernoulli(opts_.crash_prob)) {
    // Crash after the record is durable (the replay then takes the
    // duplicate path) or before processing (the message is lost).
    if (rng_.bernoulli(0.5)) node.receive(from, e.msg);
    note_reset(e.link);
    crash(e.to);
    return;
  }
  node.receive(from, e.msg);
  flush(e.to);
}

void fault_engine::flush(int b) {
  auto out = std::exchange(nodes_[static_cast<std::size_t>(b)]->out(), {});
  for (auto& [to, m] : out.sends) transmit(b, to, std::move(m));
  for (auto& c : out.completions) done_ = std::move(c.done);
}

void fault_engine::transmit(int from, int to, wire_msg m) {
  const std::size_t idx = link_between(from, to);
  link& l = links_[idx];
  if (!l.up) return;  // reset earlier in this flush: lost with the link
  if (rng_.bernoulli(opts_.drop_prob)) {
    note_reset(idx);
    take_down(idx);
    sim_event e;
    e.k = sim_event::kind::reconnect;
    e.time = now_ + latency();
    e.link = idx;
    e.epoch = l.epoch;
    push_event(std::move(e));
    return;
  }
  const int dir = l.end[0] == from ? 0 : 1;
  l.last_arrival[dir] = std::max(now_ + latency(), l.last_arrival[dir]);
  sim_event e;
  e.k = sim_event::kind::deliver;
  e.time = l.last_arrival[dir];
  e.link = idx;
  e.epoch = l.epoch;
  e.to = to;
  e.msg = std::move(m);
  push_event(std::move(e));
}

void fault_engine::note_reset(std::size_t idx) {
  link& l = links_[idx];
  if (++l.resets > kMaxLinkResets)
    throw std::runtime_error("fault_engine: link " + std::to_string(l.end[0]) + "-" +
                             std::to_string(l.end[1]) + " reset " +
                             std::to_string(kMaxLinkResets) +
                             " times without an ack getting through");
}

void fault_engine::take_down(std::size_t idx) {
  link& l = links_[idx];
  ++l.epoch;
  l.up = false;
  for (int i = 0; i < 2; ++i)
    if (auto& node = nodes_[static_cast<std::size_t>(l.end[i])]; node != nullptr)
      node->link_down(l.end[1 - i]);
}

void fault_engine::bring_up(std::size_t idx) {
  link& l = links_[idx];
  l.up = true;
  for (int i = 0; i < 2; ++i) nodes_[static_cast<std::size_t>(l.end[i])]->link_up(l.end[1 - i]);
  for (const int b : l.end) flush(b);
}

void fault_engine::crash(int b) {
  nodes_[static_cast<std::size_t>(b)].reset();
  for (const int nb : topology_.neighbors(b)) take_down(link_between(b, nb));
  sim_event e;
  e.k = sim_event::kind::recover;
  e.time = now_ + opts_.recovery_delay;
  e.to = b;
  push_event(std::move(e));
}

void fault_engine::restart(int b) {
  nodes_[static_cast<std::size_t>(b)] = std::make_unique<broker_node>(
      b, schema_, factory_, broker_opts_, topology_.neighbors(b), opts_.checkpoint_every,
      wals_[static_cast<std::size_t>(b)], metrics_);
  for (const int nb : topology_.neighbors(b)) {
    const std::size_t idx = link_between(b, nb);
    if (nodes_[static_cast<std::size_t>(nb)] != nullptr) bring_up(idx);
    // else: the neighbor's own restart brings the link up.
  }
}

std::size_t fault_engine::link_between(int a, int b) const {
  return link_index_.at({std::min(a, b), std::max(a, b)});
}

void fault_engine::push_event(sim_event e) {
  e.order = order_++;
  heap_.push_back(std::move(e));
  std::push_heap(heap_.begin(), heap_.end(), event_after{});
}

std::uint64_t fault_engine::latency() {
  std::uint64_t ticks = 1;
  if (rng_.bernoulli(opts_.delay_prob)) ticks += rng_.uniform(1, opts_.max_delay);
  return ticks;
}

}  // namespace subcover
