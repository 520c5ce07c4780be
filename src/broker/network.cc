#include "broker/network.h"

#include <algorithm>
#include <deque>
#include <exception>
#include <stdexcept>

#include "covering/sfc_covering_index.h"
#include "pubsub/matching.h"
#include "util/check.h"

namespace subcover {

namespace {

covering_index_factory default_factory() {
  return [](const schema& s) { return std::make_unique<sfc_covering_index>(s); };
}

}  // namespace

network::network(topology t, schema s, network_options options)
    : topology_(std::move(t)), schema_(std::move(s)), options_(std::move(options)) {
  if (!options_.factory) options_.factory = default_factory();
  broker_options bo;
  bo.use_covering = options_.use_covering;
  bo.epsilon = options_.epsilon;
  if (options_.faults.has_value()) {
    faults_ = std::make_unique<fault_engine>(topology_, schema_, options_.factory, bo,
                                             *options_.faults, metrics_);
    return;
  }
  brokers_.reserve(static_cast<std::size_t>(topology_.size()));
  for (int i = 0; i < topology_.size(); ++i)
    brokers_.emplace_back(i, schema_, topology_.neighbors(i), options_.factory, bo);
}

sub_id network::subscribe(int broker_id, const subscription& s) {
  if (broker_id < 0 || broker_id >= topology_.size())
    throw std::invalid_argument("network::subscribe: bad broker id");
  const sub_id id = next_id_++;
  owners_.emplace(id, sub_record{broker_id, s});

  if (faults_ != nullptr) {
    faults_->run_subscribe(broker_id, id, s);
    return id;
  }

  struct pending {
    int broker;
    int from_link;
  };
  std::deque<pending> queue{{broker_id, kLocalLink}};
  std::exception_ptr first_error;
  while (!queue.empty()) {
    const auto [b, from] = queue.front();
    queue.pop_front();
    try {
      const auto action =
          brokers_[static_cast<std::size_t>(b)].handle_subscribe(from, id, s, metrics_);
      for (const int link : action.forward_links) {
        ++metrics_.subscription_messages;
        queue.push_back({link, b});
      }
    } catch (...) {
      // Fail this message only: skip its forwards, finish the rest of the
      // FIFO, surface the first error after quiescence (see network.h).
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return id;
}

bool network::unsubscribe(sub_id id) {
  const auto rec = owners_.find(id);
  if (rec == owners_.end()) return false;
  const int origin = rec->second.broker;
  owners_.erase(rec);

  if (faults_ != nullptr) {
    faults_->run_unsubscribe(origin, id);
    return true;
  }

  struct pending {
    int broker;
    int from_link;
    bool is_unsub;          // unsubscription or a re-forwarded subscription
    sub_id sid;
    subscription body;      // used when !is_unsub
  };
  std::deque<pending> queue;
  queue.push_back({origin, kLocalLink, true, id, subscription{}});

  std::exception_ptr first_error;
  while (!queue.empty()) {
    const auto msg = queue.front();
    queue.pop_front();
    auto& b = brokers_[static_cast<std::size_t>(msg.broker)];
    try {
      if (msg.is_unsub) {
        const auto action = b.handle_unsubscribe(msg.from_link, msg.sid, metrics_);
        for (const int link : action.forward_links) {
          ++metrics_.unsubscription_messages;
          queue.push_back({link, msg.broker, true, msg.sid, subscription{}});
        }
        for (const auto& [link, sub_pair] : action.reforwards) {
          ++metrics_.subscription_messages;
          ++metrics_.reforwards;
          queue.push_back({link, msg.broker, false, sub_pair.first, sub_pair.second});
        }
      } else {
        const auto action = b.handle_subscribe(msg.from_link, msg.sid, msg.body, metrics_);
        for (const int link : action.forward_links) {
          ++metrics_.subscription_messages;
          queue.push_back({link, msg.broker, false, msg.sid, msg.body});
        }
      }
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return true;
}

std::vector<sub_id> network::publish(int broker_id, const event& e) {
  if (broker_id < 0 || broker_id >= topology_.size())
    throw std::invalid_argument("network::publish: bad broker id");
  std::vector<sub_id> delivered;

  if (faults_ != nullptr) {
    delivered = faults_->run_publish(broker_id, e);
  } else {
    // Breadth-first over the reused vector FIFO: each broker's matching
    // local subscriptions land straight in `delivered`.
    publish_fifo_.assign(1, {broker_id, kLocalLink});
    std::exception_ptr first_error;
    for (std::size_t head = 0; head < publish_fifo_.size(); ++head) {
      const auto [b, from] = publish_fifo_[head];  // a copy: push_back may reallocate
      try {
        const std::size_t before = delivered.size();
        brokers_[static_cast<std::size_t>(b)].handle_event(from, e, publish_forwards_,
                                                           delivered);
        metrics_.deliveries += delivered.size() - before;
        for (const int link : publish_forwards_) {
          ++metrics_.event_messages;
          publish_fifo_.emplace_back(link, b);
        }
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }
  std::sort(delivered.begin(), delivered.end());
  // Tree routing visits each broker at most once, so ids cannot repeat; keep
  // the guarantee explicit for callers.
  SUBCOVER_DCHECK(std::adjacent_find(delivered.begin(), delivered.end()) == delivered.end(),
                  "network::publish: duplicate delivery");
  return delivered;
}

std::vector<sub_id> network::expected_recipients(const event& e) const {
  std::vector<sub_id> out;
  for (const auto& [id, rec] : owners_)
    if (matches(rec.s, e)) out.push_back(id);
  return out;
}

std::size_t network::total_routing_entries() const {
  std::size_t n = 0;
  for (int i = 0; i < topology_.size(); ++i) n += broker_at(i).routing_entries();
  return n;
}

const broker& network::broker_at(int id) const {
  if (id < 0 || id >= topology_.size())
    throw std::invalid_argument("network::broker_at: bad broker id");
  if (faults_ != nullptr) return faults_->broker_at(id);
  return brokers_[static_cast<std::size_t>(id)];
}

broker_wal& network::wal_of(int broker_id) {
  if (faults_ == nullptr)
    throw std::logic_error("network::wal_of: only available in faults mode");
  if (broker_id < 0 || broker_id >= topology_.size())
    throw std::invalid_argument("network::wal_of: bad broker id");
  return faults_->wal_of(broker_id);
}

std::size_t network::recover_broker(int broker_id) {
  if (faults_ == nullptr)
    throw std::logic_error("network::recover_broker: only available in faults mode");
  if (broker_id < 0 || broker_id >= topology_.size())
    throw std::invalid_argument("network::recover_broker: bad broker id");
  return faults_->recover_broker(broker_id);
}

std::optional<int> network::owner_broker(sub_id id) const {
  const auto it = owners_.find(id);
  if (it == owners_.end()) return std::nullopt;
  return it->second.broker;
}

}  // namespace subcover
