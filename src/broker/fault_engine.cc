#include "broker/fault_engine.h"

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

}  // namespace

fault_engine::fault_engine(const topology& t, const schema& s,
                           const covering_index_factory& factory, broker_options broker_opts,
                           fault_options opts, std::vector<broker>& brokers,
                           network_metrics& metrics)
    : topology_(t),
      schema_(s),
      factory_(factory),
      broker_opts_(broker_opts),
      opts_(opts),
      brokers_(brokers),
      metrics_(metrics),
      rng_(opts.seed) {
  check_prob(opts_.drop_prob, "drop_prob");
  check_prob(opts_.duplicate_prob, "duplicate_prob");
  check_prob(opts_.delay_prob, "delay_prob");
  check_prob(opts_.crash_prob, "crash_prob");
  if (opts_.max_retries < 0)
    throw std::invalid_argument("fault_engine: max_retries must be >= 0");
  if (opts_.ack_timeout == 0)
    throw std::invalid_argument("fault_engine: ack_timeout must be >= 1");
  if (opts_.max_delay == 0) throw std::invalid_argument("fault_engine: max_delay must be >= 1");
  const auto n = brokers_.size();
  wals_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) wals_.emplace_back();
  down_.assign(n, 0);
  next_expected_.resize(n);
  next_send_.resize(n);
  buffers_.resize(n);
}

broker_wal& fault_engine::wal_of(int b) {
  return wals_.at(static_cast<std::size_t>(b));
}

std::size_t fault_engine::recover_broker(int b) {
  SUBCOVER_CHECK(b >= 0 && static_cast<std::size_t>(b) < brokers_.size(),
                 "fault_engine: bad broker id");
  return rebuild_from_wal(b);
}

std::size_t fault_engine::rebuild_from_wal(int b) {
  const auto rec = wals_[static_cast<std::size_t>(b)].recover();
  brokers_[static_cast<std::size_t>(b)] =
      broker::recover(b, schema_, topology_.neighbors(b), factory_, broker_opts_, rec);
  ++metrics_.recoveries;
  // Re-derive the receive-side dedup positions for the operation in flight
  // from the records' idempotency keys: anything the WAL holds was applied,
  // so its retransmission must be suppressed, not re-applied.
  auto& ne = next_expected_[static_cast<std::size_t>(b)];
  for (const auto& r : rec.records) {
    if (r.op != op_) continue;
    auto& pos = ne[r.from];
    if (r.seq + 1 > pos) pos = r.seq + 1;
  }
  return rec.records.size();
}

void fault_engine::run_subscribe(int origin, sub_id id, const subscription& s) {
  msg m;
  m.k = msg::kind::subscribe;
  m.id = id;
  m.body = s;
  run_op(origin, std::move(m));
}

void fault_engine::run_unsubscribe(int origin, sub_id id) {
  msg m;
  m.k = msg::kind::unsubscribe;
  m.id = id;
  run_op(origin, std::move(m));
}

std::vector<sub_id> fault_engine::run_publish(int origin, const event& e) {
  msg m;
  m.k = msg::kind::publish;
  m.ev = &e;
  run_op(origin, std::move(m));
  return std::move(delivered_);
}

void fault_engine::run_op(int origin, msg m) {
  ++op_;
  now_ = 0;
  order_ = 0;
  next_uid_ = 0;
  heap_ = {};
  pending_.clear();
  delivered_.clear();
  for (auto& ne : next_expected_) ne.clear();
  for (auto& ns : next_send_) ns.clear();
  for (auto& buf : buffers_) buf.clear();
  // A previous operation that threw (retry exhaustion) may have abandoned a
  // broker mid-recovery; restart it before injecting new work.
  for (std::size_t b = 0; b < down_.size(); ++b) {
    if (down_[b] == 0) continue;
    rebuild_from_wal(static_cast<int>(b));
    down_[b] = 0;
  }

  // The client -> broker hop is reliable and immediate: faults are a
  // property of the inter-broker overlay links.
  m.from = kLocalLink;
  m.to = origin;
  m.seq = 0;
  m.uid = 0;
  sim_event inject;
  inject.k = sim_event::kind::deliver;
  inject.m = std::move(m);
  push_event(std::move(inject));

  while (!heap_.empty()) {
    sim_event e = heap_.top();
    heap_.pop();
    now_ = e.time;
    dispatch(e);
  }
  SUBCOVER_CHECK(pending_.empty(), "fault_engine: quiescent with unacked messages");

  if (opts_.checkpoint_every > 0) {
    for (std::size_t b = 0; b < brokers_.size(); ++b) {
      if (wals_[b].records_since_snapshot() >= opts_.checkpoint_every)
        brokers_[b].checkpoint(wals_[b]);
    }
  }
  std::uint64_t total = 0;
  for (const auto& w : wals_) total += w.bytes_appended();
  metrics_.wal_bytes = total;
}

void fault_engine::push_event(sim_event e) {
  e.order = order_++;
  heap_.push(std::move(e));
}

std::uint64_t fault_engine::latency() {
  std::uint64_t ticks = 1;
  if (rng_.bernoulli(opts_.delay_prob)) ticks += rng_.uniform(1, opts_.max_delay);
  return ticks;
}

void fault_engine::dispatch(const sim_event& e) {
  switch (e.k) {
    case sim_event::kind::deliver:
      deliver(e.m);
      break;
    case sim_event::kind::ack:
      pending_.erase(e.uid);  // absent = a duplicate's redundant ack
      break;
    case sim_event::kind::timeout: {
      const auto it = pending_.find(e.uid);
      if (it == pending_.end()) break;  // acked in the meantime
      if (it->second.retries >= opts_.max_retries)
        throw std::runtime_error(
            "fault_engine: retries exhausted for message to broker " +
            std::to_string(it->second.m.to));
      ++it->second.retries;
      ++metrics_.retries;
      transmit(it->second.m);
      sim_event next;
      next.k = sim_event::kind::timeout;
      next.uid = e.uid;
      next.time = now_ + (opts_.ack_timeout << it->second.retries);
      push_event(std::move(next));
      break;
    }
    case sim_event::kind::recover:
      rebuild_from_wal(e.broker);
      down_[static_cast<std::size_t>(e.broker)] = 0;
      break;
  }
}

void fault_engine::send_data(msg m) {
  m.seq = next_send_[static_cast<std::size_t>(m.from)][m.to]++;
  m.uid = ++next_uid_;
  pending_.emplace(m.uid, pending_msg{m, 0});
  sim_event timeout;
  timeout.k = sim_event::kind::timeout;
  timeout.uid = m.uid;
  timeout.time = now_ + opts_.ack_timeout;
  push_event(std::move(timeout));
  transmit(m);
}

void fault_engine::transmit(const msg& m) {
  if (!rng_.bernoulli(opts_.drop_prob)) {
    sim_event e;
    e.k = sim_event::kind::deliver;
    e.time = now_ + latency();
    e.m = m;
    push_event(std::move(e));
  }
  if (rng_.bernoulli(opts_.duplicate_prob)) {
    sim_event e;
    e.k = sim_event::kind::deliver;
    e.time = now_ + latency();
    e.m = m;
    push_event(std::move(e));
  }
}

void fault_engine::send_ack(const msg& m) {
  if (m.from == kLocalLink) return;  // client hop: nothing pending
  if (rng_.bernoulli(opts_.drop_prob)) return;  // lost ack: sender retries
  sim_event e;
  e.k = sim_event::kind::ack;
  e.uid = m.uid;
  e.time = now_ + latency();
  push_event(std::move(e));
}

void fault_engine::crash(int b) {
  down_[static_cast<std::size_t>(b)] = 1;
  // Fail-stop: receive-side dedup positions and the out-of-order buffer die
  // with the broker. Buffered messages were never acked, so their senders
  // are still retransmitting them; the dedup positions come back from the
  // WAL's idempotency keys at restart.
  next_expected_[static_cast<std::size_t>(b)].clear();
  buffers_[static_cast<std::size_t>(b)].clear();
  sim_event e;
  e.k = sim_event::kind::recover;
  e.broker = b;
  e.time = now_ + opts_.recovery_delay;
  push_event(std::move(e));
}

void fault_engine::deliver(const msg& m) {
  if (down_[static_cast<std::size_t>(m.to)] != 0) return;  // lost; sender retries

  bool crash_before = false;
  bool crash_after = false;
  if (m.from != kLocalLink && rng_.bernoulli(opts_.crash_prob)) {
    if (rng_.bernoulli(0.5))
      crash_before = true;  // the message goes down with the broker
    else
      crash_after = true;  // records durable, ack lost: the dedup path
  }
  if (crash_before) {
    crash(m.to);
    return;
  }

  auto& ne = next_expected_[static_cast<std::size_t>(m.to)][m.from];
  if (m.seq < ne) {
    // Already applied (a duplicate, or a retransmission whose ack was
    // lost): suppress, but re-ack so the sender stops.
    ++metrics_.duplicates_suppressed;
    send_ack(m);
    return;
  }
  auto& buf = buffers_[static_cast<std::size_t>(m.to)][m.from];
  if (m.seq > ne) {
    buf.emplace(m.seq, m);  // no ack: the sender keeps it retransmittable
    return;
  }

  process(m);
  ++ne;
  if (crash_after) {
    crash(m.to);
    return;
  }
  send_ack(m);
  for (auto it = buf.find(ne); it != buf.end(); it = buf.find(ne)) {
    const msg next = std::move(it->second);
    buf.erase(it);
    process(next);
    ++ne;
    send_ack(next);
  }
}

void fault_engine::process(const msg& m) {
  broker& br = brokers_[static_cast<std::size_t>(m.to)];
  broker_wal& wal = wals_[static_cast<std::size_t>(m.to)];
  switch (m.k) {
    case msg::kind::subscribe: {
      const auto action = br.handle_subscribe(m.from, m.id, m.body, metrics_);
      wal_record r;
      r.k = wal_record::kind::subscribe;
      r.op = op_;
      r.from = m.from;
      r.seq = m.seq;
      r.id = m.id;
      r.body = m.body;
      r.forwarded_links = action.forward_links;
      wal.append(r);
      for (const int link : action.forward_links) {
        ++metrics_.subscription_messages;
        msg out;
        out.k = msg::kind::subscribe;
        out.from = m.to;
        out.to = link;
        out.id = m.id;
        out.body = m.body;
        send_data(std::move(out));
      }
      break;
    }
    case msg::kind::unsubscribe: {
      const auto action = br.handle_unsubscribe(m.from, m.id, metrics_);
      wal_record r;
      r.k = wal_record::kind::unsubscribe;
      r.op = op_;
      r.from = m.from;
      r.seq = m.seq;
      r.id = m.id;
      r.withdrawn_links = action.forward_links;
      r.reforwards = action.reforwards;
      wal.append(r);
      for (const int link : action.forward_links) {
        ++metrics_.unsubscription_messages;
        msg out;
        out.k = msg::kind::unsubscribe;
        out.from = m.to;
        out.to = link;
        out.id = m.id;
        send_data(std::move(out));
      }
      for (const auto& [link, sub_pair] : action.reforwards) {
        ++metrics_.subscription_messages;
        ++metrics_.reforwards;
        msg out;
        out.k = msg::kind::subscribe;
        out.from = m.to;
        out.to = link;
        out.id = sub_pair.first;
        out.body = sub_pair.second;
        send_data(std::move(out));
      }
      break;
    }
    case msg::kind::publish: {
      const std::size_t before = delivered_.size();
      br.handle_event(m.from, *m.ev, forwards_, delivered_);
      // Events mutate no routing state, but their channel position must
      // survive a crash: without the receipt, a retransmission of an
      // already-delivered event would deliver (and count) it twice.
      wal_record r;
      r.k = wal_record::kind::event_receipt;
      r.op = op_;
      r.from = m.from;
      r.seq = m.seq;
      wal.append(r);
      metrics_.deliveries += delivered_.size() - before;
      for (const int link : forwards_) {
        ++metrics_.event_messages;
        msg out;
        out.k = msg::kind::publish;
        out.from = m.to;
        out.to = link;
        out.ev = m.ev;
        send_data(std::move(out));
      }
      break;
    }
  }
}

}  // namespace subcover
