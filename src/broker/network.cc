#include "broker/network.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <stdexcept>

#include "broker/worker_pool.h"
#include "covering/sfc_covering_index.h"
#include "pubsub/matching.h"
#include "util/check.h"

namespace subcover {

namespace {

covering_index_factory default_factory() {
  return [](const schema& s) { return std::make_unique<sfc_covering_index>(s); };
}

}  // namespace

// One broker-to-broker (or client-to-broker) message of the async loop.
// `ev` points into the publish() caller's frame, which outlives the
// operation's quiescence wait.
struct network::net_msg {
  enum class kind : std::uint8_t { subscribe, unsubscribe, publish };
  kind k;
  int from_link;
  sub_id id = 0;          // subscribe / unsubscribe
  subscription body;      // subscribe
  const event* ev = nullptr;  // publish
};

// The parallel engine. Brokers are actors: each owns an MPSC inbox and is
// scheduled onto the pool while its inbox is non-empty (the `scheduled`
// flag, flipped under the inbox mutex, guarantees at most one drain job per
// broker at a time — that serialization is what makes broker state safe
// without per-broker locks). Quiescence is an in-flight message count:
// every enqueue increments, every fully-processed message decrements, and
// the operation thread sleeps until it reaches zero. Workers write metrics
// and deliveries only into their current broker's slot, so the only shared
// mutable state is the queues and the counter.
struct network::async_state {
  async_state(int workers, std::size_t brokers)
      : inboxes(brokers),
        broker_metrics(brokers),
        broker_deliveries(brokers),
        broker_forwards(brokers),
        pool(workers) {}

  struct inbox {
    std::mutex mu;
    std::deque<net_msg> q;
    bool scheduled = false;  // a drain job is queued or running
  };

  std::vector<inbox> inboxes;
  // Per-broker accumulators: a broker's drain job is the only writer of its
  // slot, and the quiescence wait orders the fold-up after every write.
  std::vector<network_metrics> broker_metrics;
  std::vector<std::vector<sub_id>> broker_deliveries;
  // Per-broker handle_event forward scratch, written only by that broker's
  // drain job and reused across events.
  std::vector<std::vector<int>> broker_forwards;
  std::atomic<std::uint64_t> in_flight{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  // First exception a drain job caught from a broker handler (guarded by
  // done_mu); rethrown to the operation caller after quiescence. A handler
  // throw fails only its own message: the throw happens before the message
  // enqueues any output (broker handlers throw before their action is
  // acted on), so the failing message's subtree is skipped while every
  // other in-flight message still propagates to quiescence — mirroring the
  // sequential engine, which catches per message and finishes its FIFO.
  // Which failure is "first" is scheduling-dependent when several messages
  // throw, but the post-throw *state* is not: the set of skipped subtrees
  // is data-dependent, so tables, forwarded sets, and metric totals match
  // the sequential engine exactly (pinned by tests/broker/network_test.cc).
  std::exception_ptr first_error;
  network* net = nullptr;
  // Declared last so it is destroyed FIRST: ~worker_pool completes any
  // straggler drain job (one can outlive an operation's quiescence by the
  // few instructions between its final decrement and its empty-inbox check)
  // and joins every worker before the inboxes and accumulators above die.
  worker_pool pool;

  void enqueue(int b, net_msg msg) {
    in_flight.fetch_add(1);
    inbox& box = inboxes[static_cast<std::size_t>(b)];
    bool need_submit = false;
    {
      const std::lock_guard<std::mutex> lock(box.mu);
      box.q.push_back(std::move(msg));
      if (!box.scheduled) {
        box.scheduled = true;
        need_submit = true;
      }
    }
    // Rejection is only possible during pool teardown, when no operation
    // is in flight and the undrained inbox no longer matters.
    if (need_submit) (void)pool.submit([this, b] { drain(b); });
  }

  void drain(int b) {
    inbox& box = inboxes[static_cast<std::size_t>(b)];
    for (;;) {
      net_msg msg;
      {
        const std::lock_guard<std::mutex> lock(box.mu);
        if (box.q.empty()) {
          box.scheduled = false;
          return;
        }
        msg = std::move(box.q.front());
        box.q.pop_front();
      }
      try {
        process(b, msg);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(done_mu);
        if (!first_error) first_error = std::current_exception();
      }
      // The message's own decrement comes after its outputs' increments
      // (inside process), so in_flight can only reach zero at true
      // quiescence.
      if (in_flight.fetch_sub(1) == 1) {
        const std::lock_guard<std::mutex> lock(done_mu);
        done_cv.notify_all();
      }
    }
  }

  void process(int b, const net_msg& msg) {
    network_metrics& bm = broker_metrics[static_cast<std::size_t>(b)];
    broker& br = net->brokers_[static_cast<std::size_t>(b)];
    switch (msg.k) {
      case net_msg::kind::subscribe: {
        const auto action =
            br.handle_subscribe_parallel(msg.from_link, msg.id, msg.body, bm, pool);
        for (const int link : action.forward_links) {
          ++bm.subscription_messages;
          enqueue(link, net_msg{net_msg::kind::subscribe, b, msg.id, msg.body, nullptr});
        }
        break;
      }
      case net_msg::kind::unsubscribe: {
        const auto action = br.handle_unsubscribe_parallel(msg.from_link, msg.id, bm, pool);
        for (const int link : action.forward_links) {
          ++bm.unsubscription_messages;
          enqueue(link, net_msg{net_msg::kind::unsubscribe, b, msg.id, subscription{}, nullptr});
        }
        for (const auto& [link, sub_pair] : action.reforwards) {
          ++bm.subscription_messages;
          ++bm.reforwards;
          enqueue(link, net_msg{net_msg::kind::subscribe, b, sub_pair.first, sub_pair.second,
                                nullptr});
        }
        break;
      }
      case net_msg::kind::publish: {
        auto& del = broker_deliveries[static_cast<std::size_t>(b)];
        auto& forwards = broker_forwards[static_cast<std::size_t>(b)];
        const std::size_t before = del.size();
        br.handle_event(msg.from_link, *msg.ev, forwards, del);
        bm.deliveries += del.size() - before;
        for (const int link : forwards) {
          ++bm.event_messages;
          enqueue(link, net_msg{net_msg::kind::publish, b, 0, subscription{}, msg.ev});
        }
        break;
      }
    }
  }
};

network::network(topology t, schema s, network_options options)
    : topology_(std::move(t)), schema_(std::move(s)), options_(std::move(options)) {
  if (!options_.factory) options_.factory = default_factory();
  if (options_.workers < 0)
    throw std::invalid_argument("network: workers must be >= 0");
  broker_options bo;
  bo.use_covering = options_.use_covering;
  bo.epsilon = options_.epsilon;
  brokers_.reserve(static_cast<std::size_t>(topology_.size()));
  for (int i = 0; i < topology_.size(); ++i)
    brokers_.emplace_back(i, schema_, topology_.neighbors(i), options_.factory, bo);
  if (options_.faults.has_value()) {
    if (options_.workers != 0)
      throw std::invalid_argument(
          "network: faults mode requires workers == 0 (the fault fabric is its own "
          "single-threaded virtual-time scheduler)");
    faults_ = std::make_unique<fault_engine>(topology_, schema_, options_.factory, bo,
                                             *options_.faults, brokers_, metrics_);
  } else if (options_.workers >= 1) {
    async_ = std::make_unique<async_state>(options_.workers,
                                           static_cast<std::size_t>(topology_.size()));
    async_->net = this;
  }
}

network::~network() = default;

void network::run_async(int target_broker, net_msg msg) {
  async_state& as = *async_;
  as.enqueue(target_broker, std::move(msg));
  {
    std::unique_lock<std::mutex> lock(as.done_mu);
    as.done_cv.wait(lock, [&] { return as.in_flight.load() == 0; });
  }
  // Quiescent: every worker's slot writes happen-before the counter's final
  // decrement, which the wait above observed. Fold and reset the slots so
  // the next operation starts clean.
  for (auto& bm : as.broker_metrics) {
    metrics_ += bm;
    bm = network_metrics{};
  }
  std::exception_ptr error;
  {
    const std::lock_guard<std::mutex> lock(as.done_mu);
    error = as.first_error;
    as.first_error = nullptr;
  }
  if (error) std::rethrow_exception(error);
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
  if (async_ != nullptr) {
    run_async(broker_id, net_msg{net_msg::kind::subscribe, kLocalLink, id, s, nullptr});
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
      // FIFO, surface the first error after quiescence (same contract as
      // the parallel engine's drain boundary — see network.h).
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
  if (async_ != nullptr) {
    run_async(origin,
              net_msg{net_msg::kind::unsubscribe, kLocalLink, id, subscription{}, nullptr});
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
  } else if (async_ != nullptr) {
    run_async(broker_id, net_msg{net_msg::kind::publish, kLocalLink, 0, subscription{}, &e});
    for (auto& del : async_->broker_deliveries) {
      delivered.insert(delivered.end(), del.begin(), del.end());
      del.clear();
    }
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
  for (const auto& b : brokers_) n += b.routing_entries();
  return n;
}

const broker& network::broker_at(int id) const {
  if (id < 0 || id >= topology_.size())
    throw std::invalid_argument("network::broker_at: bad broker id");
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
