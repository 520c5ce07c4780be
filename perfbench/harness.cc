// The end-to-end benchmark's workload driver. perfbench/run.py builds and
// runs it; it runs one workload, times its own calls into the library's
// public API (and, for tcp-cluster, into real broker_daemon processes), and
// prints one JSON document of raw observations on stdout: latency samples,
// set-up times, operation counts, failures and the program's own counters.
// run.py turns those into metrics; no statistics are computed here.
//
//   perfbench_harness --workload=broker-net|index-churn|tcp-cluster
//       --seed=N --seconds=S --trace=0|1
//       [--daemon=PATH/broker_daemon --tmp=DIR]   (tcp-cluster only)
//
// Every workload is a closed loop with one outstanding operation. The
// generators (churn_gen, subscription_gen) run in this process and are
// never inside a timed span; correctness oracles run after the span of the
// operation they check. A run is kTrials independent trials: each sets the
// workload up from scratch (timed: one setup_s sample), with its own
// generator seed, then runs its timed phase for --seconds / kTrials of wall
// clock. run.py takes medians across trials, so one trial that drew a slow
// moment of the host or an unlucky memory layout moves a run's figures
// little. Throughput is completed operations over the summed operation
// spans.
//
// With --trace=1 the timed phase alternates untraced and traced slices.
// Traced slices wrap the covering indexes (broker-net), pass stats to
// find_covering (index-churn) or time wire encode/decode of the client's
// own messages (tcp-cluster); the rate difference between the two slice
// kinds is the tracing overhead.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "subcover.h"
#include "workload/churn_gen.h"
#include "workload/event_gen.h"
#include "workload/subscription_gen.h"

extern char** environ;

using namespace subcover;

namespace {

using clk = std::chrono::steady_clock;

std::uint64_t ns_since(clk::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clk::now() - t0).count());
}

// Trials per run. Runs on a shared host vary with its load from second to
// second; medians over eight independent set-ups and timed phases keep a
// run's figures near the host's typical speed.
constexpr int kTrials = 8;

struct config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string daemon;
  std::string tmp;
};

// Observations of one trial's timed phase.
struct trial_obs {
  std::vector<std::uint64_t> sub, unsub, read;  // latency samples, ns
  std::uint64_t ops = 0;                        // completed operations
  std::uint64_t busy_ns = 0;                    // summed operation spans
};

// Raw observations of one run. `counters` holds named sums and totals;
// run.py divides them into the per-layer metrics.
struct result {
  std::vector<double> setup_s;
  std::vector<trial_obs> trials;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  // Completed operations and summed operation spans, per slice kind.
  std::uint64_t untraced_ops = 0, traced_ops = 0;
  std::uint64_t untraced_busy_ns = 0, traced_busy_ns = 0;
  double wall_s = 0;
  std::map<std::string, double> counters;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
  void add(const std::string& name, double v) { counters[name] += v; }
  void sub(std::uint64_t ns) { trials.back().sub.push_back(ns); }
  void unsub(std::uint64_t ns) { trials.back().unsub.push_back(ns); }
  void read(std::uint64_t ns) { trials.back().read.push_back(ns); }
};

// One timed operation's outcome as the loop sees it.
struct step {
  std::uint64_t ops = 0;      // completed operations (attempted counts separately)
  std::uint64_t busy_ns = 0;  // time inside operation spans (+ tracing work)
  bool stop = false;          // the run cannot continue (already counted failed)
};

// Runs one trial's timed phase: `body(traced)` until its share of
// cfg.seconds elapses or a step stops the run (returns false then).
// Untraced runs are one slice; traced runs alternate 250 ms untraced and
// traced slices so both kinds see the same state on average.
bool timed_loop(const config& cfg, result& r, const std::function<step(bool)>& body) {
  r.trials.emplace_back();
  trial_obs& obs = r.trials.back();
  const auto start = clk::now();
  const auto end = start + std::chrono::duration_cast<clk::duration>(
                               std::chrono::duration<double>(cfg.seconds / kTrials));
  const auto slice = cfg.trace ? std::chrono::duration_cast<clk::duration>(
                                     std::chrono::milliseconds(250))
                               : end - start;
  bool traced = false;
  bool stop = false;
  while (!stop && clk::now() < end) {
    const auto slice_end = std::min(clk::now() + slice, end);
    while (!stop && clk::now() < slice_end) {
      const step s = body(traced);
      (traced ? r.traced_ops : r.untraced_ops) += s.ops;
      (traced ? r.traced_busy_ns : r.untraced_busy_ns) += s.busy_ns;
      obs.ops += s.ops;
      obs.busy_ns += s.busy_ns;
      stop = s.stop;
    }
    if (cfg.trace) traced = !traced;
  }
  r.wall_s += static_cast<double>(ns_since(start)) / 1e9;
  return !stop;
}

// Generator seed of one trial.
std::uint64_t trial_seed(const config& cfg, int trial) {
  return cfg.seed * 1000003ULL + static_cast<std::uint64_t>(trial);
}

// ---- JSON output -------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void print_samples(std::ostream& o, const std::vector<std::uint64_t>& v) {
  o << '[';
  for (std::size_t i = 0; i < v.size(); ++i) o << (i ? "," : "") << v[i];
  o << ']';
}

void print_result(const config& cfg, const result& r) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"workload\":\"" << cfg.workload << "\",\"seed\":" << cfg.seed
    << ",\"trace\":" << (cfg.trace ? 1 : 0) << ",\"setup_s\":[";
  for (std::size_t i = 0; i < r.setup_s.size(); ++i) o << (i ? "," : "") << r.setup_s[i];
  o << "],\"trials\":[";
  for (std::size_t i = 0; i < r.trials.size(); ++i) {
    const trial_obs& w = r.trials[i];
    o << (i ? "," : "") << "{\"ops\":" << w.ops << ",\"busy_ns\":" << w.busy_ns << ",\"sub\":";
    print_samples(o, w.sub);
    o << ",\"unsub\":";
    print_samples(o, w.unsub);
    o << ",\"read\":";
    print_samples(o, w.read);
    o << '}';
  }
  o << "],\"attempted\":" << r.attempted << ",\"failed\":" << r.failed << ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    o << (i ? "," : "") << '"' << json_escape(r.failures[i]) << '"';
  o << "],\"untraced_ops\":" << r.untraced_ops << ",\"traced_ops\":" << r.traced_ops
    << ",\"untraced_busy_ns\":" << r.untraced_busy_ns
    << ",\"traced_busy_ns\":" << r.traced_busy_ns << ",\"wall_s\":" << r.wall_s
    << ",\"counters\":{";
  bool first = true;
  for (const auto& [k, v] : r.counters) {
    o << (first ? "" : ",") << '"' << k << "\":" << v;
    first = false;
  }
  o << "}}\n";
  std::cout << o.str() << std::flush;
}

// ---- covering-layer attribution ----------------------------------------------

// Sums of covering_check_stats and of spans around the covering index's
// public calls, collected while `on`.
struct covering_trace {
  bool on = false;
  std::uint64_t checks = 0, check_span_ns = 0, check_elapsed_ns = 0, query_ns = 0;
  std::uint64_t cubes = 0, plan_runs = 0, probed = 0, restarts = 0, resumed = 0, batches = 0;
  std::uint64_t cold_probes = 0, summary_answers = 0, blocks_decoded = 0, cold_hits = 0;
  std::uint64_t budget_exhausted = 0;
  long double volume_searched = 0;
  std::uint64_t inserts = 0, insert_ns = 0, erases = 0, erase_ns = 0;

  void note_check(const covering_check_stats& st, std::uint64_t span_ns) {
    ++checks;
    check_span_ns += span_ns;
    check_elapsed_ns += st.elapsed_ns;
    const query_stats& q = st.dominance;
    query_ns += q.elapsed_ns;
    cubes += q.cubes_enumerated;
    plan_runs += q.runs_in_plan;
    probed += q.runs_probed;
    restarts += q.probes_restarted;
    resumed += q.probes_resumed;
    batches += q.frontier_batches;
    cold_probes += q.tier_cold_probes;
    summary_answers += q.tier_summary_answers;
    blocks_decoded += q.tier_blocks_decoded;
    cold_hits += q.tier_cold_hits;
    budget_exhausted += q.budget_exhausted ? 1 : 0;
    volume_searched += q.volume_fraction_searched;
  }

  void export_to(result& r) const {
    r.add("cov.checks", static_cast<double>(checks));
    r.add("cov.check_span_ns", static_cast<double>(check_span_ns));
    r.add("cov.check_elapsed_ns", static_cast<double>(check_elapsed_ns));
    r.add("dom.query_ns", static_cast<double>(query_ns));
    r.add("dom.cubes", static_cast<double>(cubes));
    r.add("dom.plan_runs", static_cast<double>(plan_runs));
    r.add("dom.probed", static_cast<double>(probed));
    r.add("dom.budget_exhausted", static_cast<double>(budget_exhausted));
    r.add("dom.volume_searched", static_cast<double>(volume_searched));
    r.add("arr.restarts", static_cast<double>(restarts));
    r.add("arr.resumed", static_cast<double>(resumed));
    r.add("arr.batches", static_cast<double>(batches));
    r.add("arr.cold_probes", static_cast<double>(cold_probes));
    r.add("arr.summary_answers", static_cast<double>(summary_answers));
    r.add("arr.blocks_decoded", static_cast<double>(blocks_decoded));
    r.add("arr.cold_hits", static_cast<double>(cold_hits));
    r.add("cov.inserts", static_cast<double>(inserts));
    r.add("cov.insert_ns", static_cast<double>(insert_ns));
    r.add("cov.erases", static_cast<double>(erases));
    r.add("cov.erase_ns", static_cast<double>(erase_ns));
  }
};

// A covering_index that forwards to an sfc_covering_index and, while its
// covering_trace is on, times every call and keeps the check stats. The
// broker reaches its per-link indexes only through the factory, so this is
// how a benchmark attributes the broker's covering work from outside.
class traced_index final : public covering_index {
 public:
  traced_index(const schema& s, const sfc_covering_options& o, covering_trace& t)
      : covering_index(s), inner_(s, o), trace_(t) {}

  void insert(sub_id id, const subscription& s) override {
    if (!trace_.on) return inner_.insert(id, s);
    const auto t0 = clk::now();
    inner_.insert(id, s);
    trace_.insert_ns += ns_since(t0);
    ++trace_.inserts;
  }
  void insert_batch(const std::vector<std::pair<sub_id, subscription>>& subs) override {
    inner_.insert_batch(subs);
  }
  bool erase(sub_id id) override {
    if (!trace_.on) return inner_.erase(id);
    const auto t0 = clk::now();
    const bool ok = inner_.erase(id);
    trace_.erase_ns += ns_since(t0);
    ++trace_.erases;
    return ok;
  }
  std::size_t erase_batch(const std::vector<sub_id>& ids) override {
    return inner_.erase_batch(ids);
  }
  void maintain() override { inner_.maintain(); }
  [[nodiscard]] std::optional<sub_id> find_covering(
      const subscription& s, double epsilon, covering_check_stats* stats) const override {
    if (!trace_.on) return inner_.find_covering(s, epsilon, stats);
    covering_check_stats local;
    covering_check_stats& st = stats != nullptr ? *stats : local;
    const auto t0 = clk::now();
    auto hit = inner_.find_covering(s, epsilon, &st);
    trace_.note_check(st, ns_since(t0));
    return hit;
  }
  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  [[nodiscard]] std::size_t memory_footprint() const override {
    return inner_.memory_footprint();
  }
  [[nodiscard]] const dominance_index& index() const { return inner_.index(); }

 private:
  sfc_covering_index inner_;
  covering_trace& trace_;
};

// Factory for a network's per-link indexes: plain sfc_covering_index when
// untraced, traced_index otherwise. Traced indexes are registered so the
// benchmark can read their dominance arrays (bytes per entry, maintenance
// ledger) after the timed phase; the network owns them.
struct index_factory {
  sfc_covering_options options;
  bool traced = false;
  covering_trace trace;
  std::vector<const traced_index*> made;

  covering_index_factory make() {
    return [this](const schema& s) -> std::unique_ptr<covering_index> {
      if (!traced) return std::make_unique<sfc_covering_index>(s, options);
      auto p = std::make_unique<traced_index>(s, options, trace);
      made.push_back(p.get());
      return p;
    };
  }
  maintenance_counters maintenance() const {
    maintenance_counters m;
    for (const auto* p : made) m += p->index().maintenance();
    return m;
  }
  void export_arrays(result& r) const {
    std::size_t bytes = 0, entries = 0;
    for (const auto* p : made) {
      bytes += p->index().memory_footprint();
      entries += p->index().size();
    }
    r.add("arr.bytes", static_cast<double>(bytes));
    r.add("arr.entries", static_cast<double>(entries));
  }
};

void export_maintenance(result& r, const maintenance_counters& before,
                        const maintenance_counters& after) {
  r.add("arr.tombstones", static_cast<double>(after.tombstones_added - before.tombstones_added));
  r.add("arr.purged", static_cast<double>(after.tombstones_purged - before.tombstones_purged));
  r.add("arr.compactions", static_cast<double>(after.compactions - before.compactions));
}

// Broker-layer counter deltas over the timed phase (network_metrics from
// the in-process network, or summed over the daemons' dump_reply).
void export_network(result& r, const network_metrics& a, const network_metrics& b) {
  const auto d = [&](std::uint64_t network_metrics::*f) {
    return static_cast<double>(b.*f - a.*f);
  };
  r.add("net.covering_checks", d(&network_metrics::covering_checks));
  r.add("net.covering_hits", d(&network_metrics::covering_hits));
  r.add("net.covering_check_ns", d(&network_metrics::covering_check_ns));
  r.add("net.subscription_messages", d(&network_metrics::subscription_messages));
  r.add("net.reforwards", d(&network_metrics::reforwards));
  r.add("net.event_messages", d(&network_metrics::event_messages));
  r.add("net.deliveries", d(&network_metrics::deliveries));
  r.add("net.wal_bytes", d(&network_metrics::wal_bytes));
  r.add("net.bytes_on_wire", d(&network_metrics::bytes_on_wire));
  r.add("net.partial_writes", d(&network_metrics::partial_writes));
}

// ---- stationary operation stream -------------------------------------------

// Subscribes, withdrawals and publishes in a fixed repeating pattern. A
// withdrawal picks a uniformly random live subscription of the stream, so a
// pattern with as many withdrawals as subscribes keeps the live set at its
// warm size.
class steady_stream {
 public:
  using kind = workload::churn_op::op_kind;

  steady_stream(const schema& s, const workload::subscription_gen_options& o,
                std::vector<kind> pattern, std::uint64_t seed)
      : subs_(s, o, seed ^ 0x9e3779b97f4a7c15ULL),
        events_(s, seed ^ 0x165667b19e3779f9ULL),
        rng_(seed),
        pattern_(std::move(pattern)) {}

  workload::churn_op subscribe() {
    workload::churn_op op;
    op.kind = kind::subscribe;
    op.id = next_id_++;
    op.sub = subs_.next();
    live_.push_back(op.id);
    return op;
  }

  workload::churn_op next() {
    const kind k = pattern_[pos_++ % pattern_.size()];
    if (k == kind::subscribe) return subscribe();
    workload::churn_op op;
    op.kind = k;
    if (k == kind::publish) {
      op.ev = events_.next();
    } else {
      const std::size_t i = rng_.index(live_.size());
      op.id = live_[i];
      live_[i] = live_.back();
      live_.pop_back();
    }
    return op;
  }

  // Broker the next operation is issued at.
  int pick(int brokers) { return static_cast<int>(rng_.index(static_cast<std::size_t>(brokers))); }

 private:
  workload::subscription_gen subs_;
  workload::event_gen events_;
  rng rng_;
  std::vector<kind> pattern_;
  std::size_t pos_ = 0;
  std::uint64_t next_id_ = 0;
  std::vector<std::uint64_t> live_;
};

// ---- broker-net ----------------------------------------------------------------

// fig10's configuration: 15-broker balanced tree, 2 attributes of 8 bits,
// uniform subscriptions (mean width 0.45, wildcard probability 0.02),
// eps = 0.05, SFC indexes capped at 8192 cubes, deterministic engine. The
// timed phase alternates subscribes and publishes at random brokers, as
// fig10 propagates subscriptions and routes events.
constexpr int kNetBrokers = 15;
constexpr std::size_t kNetWarmSubs = 600;

void run_broker_net(const config& cfg, result& r) {
  const schema s = workload::make_uniform_schema(2, 8);
  workload::subscription_gen_options so;
  so.kind = workload::workload_kind::uniform;
  so.mean_width = 0.45;
  so.wildcard_prob = 0.02;
  index_factory factory;
  factory.options.max_cubes = 8192;
  factory.traced = cfg.trace;
  network_options no;
  no.use_covering = true;
  no.epsilon = 0.05;
  no.factory = factory.make();
  using kind = steady_stream::kind;

  // The warm network is the first 600 subscriptions of fig10's stream, at
  // fig10's seeds. It is part of the workload's definition; --seed draws
  // the timed streams.
  std::vector<std::pair<int, subscription>> warm;
  workload::subscription_gen warm_gen(s, so, 909);
  rng warm_pick(911);
  for (std::size_t i = 0; i < kNetWarmSubs; ++i) {
    const int b = static_cast<int>(warm_pick.index(kNetBrokers));
    warm.emplace_back(b, warm_gen.next());
  }

  for (int trial = 0; trial < kTrials; ++trial) {
    steady_stream gen(s, so, {kind::subscribe, kind::publish}, trial_seed(cfg, trial));
    factory.made.clear();
    const auto t0 = clk::now();
    network net(topology::balanced_tree(2, 3), s, no);
    for (const auto& [b, sub] : warm) (void)net.subscribe(b, sub);
    r.setup_s.push_back(static_cast<double>(ns_since(t0)) / 1e9);

    const network_metrics m0 = net.metrics();
    const maintenance_counters maint0 = factory.maintenance();
    std::uint64_t subs = 0, pubs = 0, sub_ns = 0, sub_check_ns = 0;
    const bool ok = timed_loop(cfg, r, [&](bool traced) -> step {
      factory.trace.on = traced;
      const auto op = gen.next();
      const int b = gen.pick(kNetBrokers);
      ++r.attempted;
      try {
        if (op.kind == kind::subscribe) {
          const auto check0 = net.metrics().covering_check_ns;
          const auto t = clk::now();
          (void)net.subscribe(b, op.sub);
          const auto ns = ns_since(t);
          r.sub(ns);
          sub_ns += ns;
          sub_check_ns += net.metrics().covering_check_ns - check0;
          ++subs;
          return {1, ns};
        }
        const auto t = clk::now();
        const auto delivered = net.publish(b, op.ev);
        const auto ns = ns_since(t);
        if (delivered != net.expected_recipients(op.ev)) {
          r.fail("publish delivered set differs from expected_recipients");
          return {0, ns};
        }
        r.read(ns);
        ++pubs;
        return {1, ns};
      } catch (const std::exception& e) {
        r.fail(std::string("exception: ") + e.what());
      }
      return {};
    });
    factory.trace.on = false;

    export_network(r, m0, net.metrics());
    export_maintenance(r, maint0, factory.maintenance());
    factory.export_arrays(r);
    std::size_t bytes = 0;
    for (int b = 0; b < net.broker_count(); ++b) bytes += net.broker_at(b).memory_footprint();
    r.add("subs", static_cast<double>(subs));
    r.add("pubs", static_cast<double>(pubs));
    r.add("sub_span_ns", static_cast<double>(sub_ns));
    r.add("sub_check_ns", static_cast<double>(sub_check_ns));
    r.add("live_subs", static_cast<double>(net.active_subscriptions()));
    r.add("footprint_bytes", static_cast<double>(bytes));
    r.add("routing_entries", static_cast<double>(net.total_routing_entries()));
    if (!ok) break;
  }
  factory.trace.export_to(r);
}

// ---- index-churn ---------------------------------------------------------------

// BM_ChurnQuery's production tiered configuration at 1M subscriptions.
constexpr std::size_t kChurnLive = 1'000'000;
constexpr std::size_t kChurnEpoch = 512;     // churn ops per maintain()
constexpr std::size_t kChurnQueryEvery = 4;  // churn ops per find_covering
constexpr double kChurnEps = 0.05;

void run_index_churn(const config& cfg, result& r) {
  const schema s = workload::make_uniform_schema(2, 10);
  sfc_covering_options so;
  so.array = sfc_array_kind::skiplist;
  so.tier_hot_capacity = 4096;
  so.tier_block_entries = 64;
  so.compact_live_fraction = 0.5;
  so.max_cubes = 4096;
  so.settle_on_budget = true;

  workload::churn_gen_options co;
  co.subscriptions.kind = workload::workload_kind::clustered;
  co.subscriptions.wildcard_prob = 0.0;
  co.publish_weight = 0.0;
  co.victim_skew = 0.0;
  co.flash_prob = 0.002;
  co.flash_len = 64;
  co.warmup_subscriptions = kChurnLive;
  workload::subscription_gen_options qo;
  qo.kind = workload::workload_kind::clustered;
  qo.clusters = 256;
  qo.wildcard_prob = 0.0;

  // The bulk-loaded index is BM_ChurnQuery's: the first 1M subscriptions of
  // its churn stream (seed 4242). It is part of the workload's definition;
  // --seed draws the churn and query streams. Every stream starts with the
  // same dense ids 0..1M-1, so its withdrawals name subscriptions the index
  // holds.
  std::vector<std::pair<sub_id, subscription>> load;
  {
    workload::churn_gen warm(s, co, 4242);
    load.reserve(kChurnLive);
    for (std::size_t i = 0; i < kChurnLive; ++i) {
      auto op = warm.next();
      load.emplace_back(op.id, std::move(op.sub));
    }
  }

  covering_trace tr;
  std::uint64_t subs = 0, unsubs = 0, checks = 0, hits = 0;
  std::uint64_t maintains = 0, maintain_ns = 0, check_busy_ns = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t seed = trial_seed(cfg, trial);
    workload::churn_gen gen(s, co, seed);
    for (std::size_t i = 0; i < kChurnLive; ++i) (void)gen.next();  // its own warm-up
    workload::subscription_gen qgen(s, qo, seed ^ 0x51ed270b1f3a9c4dULL);
    const auto t0 = clk::now();
    sfc_covering_index idx(s, so);
    idx.insert_batch(load);
    r.setup_s.push_back(static_cast<double>(ns_since(t0)) / 1e9);

    // The oracle's view of the live set: bodies by churn id (ids are dense).
    std::vector<subscription> bodies(kChurnLive);
    std::vector<std::uint8_t> live(kChurnLive, 0);
    for (const auto& [id, sub] : load) {
      bodies[id] = sub;
      live[id] = 1;
    }

    std::uint64_t churn_ops = 0;
    const maintenance_counters maint0 = idx.index().maintenance();
    covering_check_stats st;
    const bool ok = timed_loop(cfg, r, [&](bool traced) -> step {
      step out;
      auto op = gen.next();
      ++r.attempted;
      const auto t = clk::now();
      if (op.kind == workload::churn_op::op_kind::subscribe) {
        idx.insert(op.id, op.sub);
        const auto ns = ns_since(t);
        r.sub(ns);
        out.busy_ns += ns;
        ++subs;
        if (op.id >= bodies.size()) {
          bodies.resize(op.id + 1 + bodies.size() / 4);
          live.resize(bodies.size(), 0);
        }
        bodies[op.id] = std::move(op.sub);
        live[op.id] = 1;
        ++out.ops;
        if (traced) {
          tr.insert_ns += ns;
          ++tr.inserts;
        }
      } else {
        const bool erased = idx.erase(op.id);
        const auto ns = ns_since(t);
        out.busy_ns += ns;
        if (erased && op.id < live.size() && live[op.id]) {
          live[op.id] = 0;
          r.unsub(ns);
          ++unsubs;
          ++out.ops;
          if (traced) {
            tr.erase_ns += ns;
            ++tr.erases;
          }
        } else {
          r.fail("erase of a live subscription failed");
        }
      }
      ++churn_ops;
      if (churn_ops % kChurnEpoch == 0) {
        const auto m = clk::now();
        idx.maintain();
        const auto ns = ns_since(m);
        out.busy_ns += ns;
        if (traced) {
          maintain_ns += ns;
          ++maintains;
        }
      }
      if (churn_ops % kChurnQueryEvery == 0) {
        const subscription q = qgen.next();
        ++r.attempted;
        const auto c = clk::now();
        const auto hit = idx.find_covering(q, kChurnEps, traced ? &st : nullptr);
        const auto ns = ns_since(c);
        if (traced) tr.note_check(st, ns);
        out.busy_ns += ns;
        check_busy_ns += ns;
        // The paper's one-sided guarantee under tombstones: a hit is a live,
        // not-erased subscription that truly covers the query.
        if (hit && !(*hit < live.size() && live[*hit] && bodies[*hit].covers(q))) {
          r.fail("find_covering returned a dead or non-covering id");
        } else {
          r.read(ns);
          ++checks;
          hits += hit ? 1 : 0;
          ++out.ops;
        }
      }
      return out;
    });

    export_maintenance(r, maint0, idx.index().maintenance());
    r.add("live_subs", static_cast<double>(idx.size()));
    r.add("footprint_bytes", static_cast<double>(idx.memory_footprint()));
    r.add("arr.bytes", static_cast<double>(idx.index().memory_footprint()));
    r.add("arr.entries", static_cast<double>(idx.index().size()));
    if (!ok) break;
  }
  tr.export_to(r);
  r.add("subs", static_cast<double>(subs));
  r.add("unsubs", static_cast<double>(unsubs));
  r.add("checks", static_cast<double>(checks));
  r.add("hits", static_cast<double>(hits));
  r.add("cov.maintains", static_cast<double>(maintains));
  r.add("cov.maintain_ns", static_cast<double>(maintain_ns));
  r.add("check_busy_ns", static_cast<double>(check_busy_ns));
}

// ---- tcp-cluster ---------------------------------------------------------------

constexpr int kClusterBrokers = 3;
constexpr std::size_t kClusterWarmSubs = 100;
constexpr int kRequestTimeoutMs = 15000;

// Three broker_daemon processes in a line on loopback. Each listens on an
// ephemeral port (--listen=127.0.0.1:0) and announces it on stdout; the
// higher id of every edge dials, so booting in id order lets each daemon
// learn its lower neighbour's port first. The destructor SIGKILLs and reaps
// anything still running and removes the WAL directory, so every exit path
// leaves nothing behind; shutdown() is the orderly path and reports exit
// codes.
class cluster {
 public:
  cluster(const std::string& daemon, const std::string& tmp, std::uint64_t seed) {
    std::string templ = tmp + "/walXXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) throw std::runtime_error("mkdtemp failed in " + tmp);
    dir_ = buf.data();
    for (int b = 0; b < kClusterBrokers; ++b) {
      std::vector<std::string> args = {
          daemon,
          "--id=" + std::to_string(b),
          "--listen=127.0.0.1:0",
          "--wal-dir=" + dir_ + "/b" + std::to_string(b),
          "--epsilon=0.05",
          "--seed=" + std::to_string(seed + static_cast<std::uint64_t>(b))};
      std::string peers;
      if (b > 0) peers = std::to_string(b - 1) + "@127.0.0.1:" + std::to_string(ports_[b - 1]);
      if (b + 1 < kClusterBrokers)
        peers += (peers.empty() ? "" : ",") + std::to_string(b + 1) + "@127.0.0.1:0";
      args.push_back("--peers=" + peers);
      spawn(args, dir_ + "/b" + std::to_string(b) + ".log");
      ports_.push_back(await_port(b));
    }
    for (int b = 0; b < kClusterBrokers; ++b) {
      clients_[static_cast<std::size_t>(b)].connect("127.0.0.1", ports_[static_cast<std::size_t>(b)],
                                                    kRequestTimeoutMs);
      (void)dump(b);  // identifies the connection as a client
    }
  }
  ~cluster() {
    for (const pid_t p : pids_) {
      if (p <= 0) continue;
      ::kill(p, SIGKILL);
      int status = 0;
      ::waitpid(p, &status, 0);
    }
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  cluster(const cluster&) = delete;
  cluster& operator=(const cluster&) = delete;

  cluster_client& client(int b) { return clients_[static_cast<std::size_t>(b)]; }
  wire_msg dump(int b) {
    wire_msg m;
    m.type = msg_type::client_dump;
    return client(b).request(m, kRequestTimeoutMs);
  }

  // Orderly exit: client_shutdown to every daemon, then reap each and
  // report any non-zero exit status (or a daemon that would not exit).
  std::vector<std::string> shutdown() {
    std::vector<std::string> problems;
    for (int b = 0; b < kClusterBrokers; ++b) {
      try {
        wire_msg m;
        m.type = msg_type::client_shutdown;
        client(b).send(m);
        client(b).close();
      } catch (const std::exception& e) {
        problems.push_back("shutdown broker " + std::to_string(b) + ": " + e.what());
      }
    }
    const auto deadline = clk::now() + std::chrono::seconds(10);
    for (std::size_t b = 0; b < pids_.size(); ++b) {
      int status = 0;
      pid_t got = 0;
      while ((got = ::waitpid(pids_[b], &status, WNOHANG)) == 0 && clk::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      if (got == pids_[b]) {
        pids_[b] = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
          problems.push_back("broker " + std::to_string(b) + " exited with status " +
                             std::to_string(status));
      } else {
        problems.push_back("broker " + std::to_string(b) + " did not exit after shutdown");
      }
    }
    return problems;
  }

 private:
  void spawn(const std::vector<std::string>& args, const std::string& log) {
    std::vector<char*> argv;
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    pid_t pid = 0;
    const int rc = ::posix_spawn(&pid, args[0].c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw std::runtime_error("cannot spawn " + args[0]);
    pids_.push_back(pid);
    logs_.push_back(log);
  }

  // Waits for "listening on HOST:PORT" in broker b's log.
  int await_port(int b) {
    const auto deadline = clk::now() + std::chrono::seconds(20);
    const std::string key = "listening on ";
    while (clk::now() < deadline) {
      std::ifstream in(logs_[static_cast<std::size_t>(b)]);
      const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
      const auto at = text.find(key);
      const auto colon = at == std::string::npos ? at : text.find(':', at + key.size());
      const auto end = colon == std::string::npos ? colon : text.find(' ', colon);
      if (end != std::string::npos) return std::stoi(text.substr(colon + 1, end - colon - 1));
      int status = 0;
      if (::waitpid(pids_[static_cast<std::size_t>(b)], &status, WNOHANG) != 0) {
        pids_[static_cast<std::size_t>(b)] = -1;
        throw std::runtime_error("broker " + std::to_string(b) + " exited at boot: " + text);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    throw std::runtime_error("broker " + std::to_string(b) + " did not announce its port");
  }

  std::string dir_;
  std::vector<pid_t> pids_;
  std::vector<std::string> logs_;
  std::vector<int> ports_;
  std::array<cluster_client, kClusterBrokers> clients_;
};

network_metrics summed_metrics(cluster& c, std::size_t* snapshot_bytes = nullptr) {
  network_metrics sum;
  for (int b = 0; b < kClusterBrokers; ++b) {
    const wire_msg reply = c.dump(b);
    sum += reply.metrics;
    if (snapshot_bytes != nullptr) *snapshot_bytes += reply.snapshot.size();
  }
  return sum;
}

// One client operation as generated, kept for the traced replay.
struct cluster_op {
  workload::churn_op::op_kind kind;
  int broker;
  sub_id id;
  subscription sub;
  event ev;
};

const char* kind_name(workload::churn_op::op_kind k) {
  switch (k) {
    case workload::churn_op::op_kind::subscribe:
      return "subscribe";
    case workload::churn_op::op_kind::unsubscribe:
      return "unsubscribe";
    case workload::churn_op::op_kind::publish:
      return "publish";
  }
  return "?";
}

bool request_ok(const wire_msg& done) {
  return done.type == msg_type::client_done && done.status == 0;
}

// One trial: boot a fresh cluster and absorb the warm set (setup), run the
// timed phase, read the daemons' counters, shut down and reap.
void tcp_trial(const config& cfg, result& r, int trial, bool& ok) {
  const schema s = workload::make_sensor_schema();
  workload::subscription_gen_options so;
  so.kind = workload::workload_kind::clustered;
  so.clusters = 5;
  using kind = steady_stream::kind;
  std::vector<kind> pattern(10, kind::publish);
  pattern[0] = kind::subscribe;
  pattern[5] = kind::unsubscribe;
  steady_stream gen(s, so, pattern, trial_seed(cfg, trial));

  // Client-chosen ids are dense from 1, as the in-process network assigns
  // them, so the traced replay below reproduces the cluster's ids.
  std::vector<cluster_op> ops;
  std::map<std::uint64_t, sub_id> ids;  // stream id -> cluster id
  std::map<sub_id, std::pair<int, subscription>> live;  // oracle: owner + body
  sub_id next_id = 1;
  for (std::size_t i = 0; i < kClusterWarmSubs; ++i) {
    auto op = gen.subscribe();
    ids[op.id] = next_id;
    ops.push_back({op.kind, gen.pick(kClusterBrokers), next_id++, std::move(op.sub), {}});
  }

  const auto t0 = clk::now();
  cluster c(cfg.daemon, cfg.tmp, trial_seed(cfg, trial));
  for (const auto& w : ops) {
    wire_msg m;
    m.type = msg_type::client_subscribe;
    m.id = w.id;
    m.body = w.sub;
    if (!request_ok(c.client(w.broker).request(m, kRequestTimeoutMs)))
      r.fail("warm-up subscribe failed");
  }
  r.setup_s.push_back(static_cast<double>(ns_since(t0)) / 1e9);
  for (const auto& w : ops) live[w.id] = {w.broker, w.sub};

  const network_metrics m0 = summed_metrics(c);
  std::uint64_t subs = 0, unsubs = 0, pubs = 0, sub_ns = 0, unsub_ns = 0;
  std::uint64_t encodes = 0, encode_ns = 0, decodes = 0, decode_ns = 0;
  ok = timed_loop(cfg, r, [&](bool traced) -> step {
    auto op = gen.next();
    cluster_op rec{op.kind, gen.pick(kClusterBrokers), 0, {}, {}};
    wire_msg m;
    switch (op.kind) {
      case kind::subscribe:
        rec.id = next_id++;
        ids[op.id] = rec.id;
        rec.sub = std::move(op.sub);
        m.type = msg_type::client_subscribe;
        m.id = rec.id;
        m.body = rec.sub;
        break;
      case kind::unsubscribe:
        rec.id = ids.at(op.id);
        ids.erase(op.id);
        rec.broker = live.at(rec.id).first;  // withdrawn where it subscribed
        m.type = msg_type::client_unsubscribe;
        m.id = rec.id;
        break;
      case kind::publish:
        rec.ev = op.ev;
        m.type = msg_type::client_publish;
        for (int i = 0; i < op.ev.attribute_count(); ++i) m.values.push_back(op.ev.value(i));
        break;
    }
    ++r.attempted;
    step out;
    wire_msg done;
    const auto t = clk::now();
    try {
      done = c.client(rec.broker).request(m, kRequestTimeoutMs);
    } catch (const std::exception& e) {
      // A lost request leaves the cluster's state unknown to the oracle.
      r.fail("request failed (" + std::string(kind_name(rec.kind)) + " id " +
             std::to_string(rec.id) + " at broker " + std::to_string(rec.broker) +
             "): " + e.what());
      out.busy_ns = ns_since(t);
      out.stop = true;
      return out;
    }
    const auto ns = ns_since(t);
    out.busy_ns = ns;
    if (traced) {
      // The wire layer on the client's own messages: frame the request,
      // then reassemble and decode the reply from its framed bytes.
      const auto e0 = clk::now();
      const auto framed = frame_msg(m);
      encode_ns += ns_since(e0);
      ++encodes;
      const auto reply_bytes = frame_msg(done);
      const auto d0 = clk::now();
      frame_decoder dec;
      dec.feed(reply_bytes.data(), reply_bytes.size());
      const auto payload = dec.next();
      const wire_msg back = decode_msg(payload->data(), payload->size());
      decode_ns += ns_since(d0);
      ++decodes;
      out.busy_ns += ns_since(e0);
      if (framed.empty() || back.type != done.type) r.fail("wire round trip of a reply changed it");
    }
    if (!request_ok(done)) {
      r.fail("client_done with non-zero status");
      return out;
    }
    switch (rec.kind) {
      case kind::subscribe:
        live[rec.id] = {rec.broker, rec.sub};
        r.sub(ns);
        sub_ns += ns;
        ++subs;
        break;
      case kind::unsubscribe:
        live.erase(rec.id);
        r.unsub(ns);
        unsub_ns += ns;
        ++unsubs;
        break;
      case kind::publish: {
        // Brute-force oracle over the generator's own live set.
        std::vector<sub_id> expect;
        for (const auto& [id, owned] : live)
          if (matches(owned.second, rec.ev)) expect.push_back(id);
        if (done.delivered != expect) {
          r.fail("publish delivered set differs from brute-force matching");
          return out;
        }
        r.read(ns);
        ++pubs;
        break;
      }
    }
    ops.push_back(std::move(rec));
    out.ops = 1;
    return out;
  });
  if (!ok) return;  // the cluster destructor kills and reaps the daemons

  std::size_t snapshot_bytes = 0;
  const network_metrics m1 = summed_metrics(c, &snapshot_bytes);
  export_network(r, m0, m1);
  r.add("transport.reconnects", static_cast<double>(m1.reconnects));
  r.add("transport.heartbeats_missed", static_cast<double>(m1.heartbeats_missed));
  if (m1.reconnects != 0 || m1.heartbeats_missed != 0)
    r.fail("transport reconnected or missed heartbeats during the run");
  for (const auto& p : c.shutdown()) r.fail(p);

  r.add("subs", static_cast<double>(subs));
  r.add("unsubs", static_cast<double>(unsubs));
  r.add("pubs", static_cast<double>(pubs));
  r.add("sub_span_ns", static_cast<double>(sub_ns));
  r.add("unsub_span_ns", static_cast<double>(unsub_ns));
  r.add("live_subs", static_cast<double>(live.size()));
  r.add("snapshot_bytes", static_cast<double>(snapshot_bytes));
  r.add("wire.encodes", static_cast<double>(encodes));
  r.add("wire.encode_ns", static_cast<double>(encode_ns));
  r.add("wire.decodes", static_cast<double>(decodes));
  r.add("wire.decode_ns", static_cast<double>(decode_ns));
  if (!cfg.trace) return;

  // The daemons expose only network_metrics, so the dominance layer's
  // per-check stats come from replaying the same client operations into
  // the in-process deterministic engine with traced indexes. The daemons
  // run the same broker code, so the logical counters must agree exactly.
  index_factory factory;
  factory.traced = true;
  factory.trace.on = true;
  network_options no;
  no.use_covering = true;
  no.epsilon = 0.05;
  no.factory = factory.make();
  network replay(topology::line(kClusterBrokers), s, no);
  for (const auto& op : ops) {
    switch (op.kind) {
      case kind::subscribe:
        if (replay.subscribe(op.broker, op.sub) != op.id) r.fail("replay assigned another id");
        break;
      case kind::unsubscribe:
        (void)replay.unsubscribe(op.id);
        break;
      case kind::publish:
        (void)replay.publish(op.broker, op.ev);
        break;
    }
  }
  if (!same_counters(replay.metrics(), m1))
    r.fail("in-process replay disagrees with the daemons' logical counters");
  factory.trace.export_to(r);
  factory.export_arrays(r);
}

void run_tcp_cluster(const config& cfg, result& r) {
  if (cfg.daemon.empty() || cfg.tmp.empty())
    throw std::invalid_argument("tcp-cluster needs --daemon and --tmp");
  bool ok = true;
  for (int trial = 0; trial < kTrials && ok; ++trial) tcp_trial(cfg, r, trial, ok);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    cli_flags flags(argc, argv);
    config cfg;
    cfg.workload = flags.get_string("workload", "");
    cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    cfg.seconds = flags.get_double("seconds", 10);
    cfg.trace = flags.get_int("trace", 0) != 0;
    cfg.daemon = flags.get_string("daemon", "");
    cfg.tmp = flags.get_string("tmp", "");
    flags.finish();

    result r;
    if (cfg.workload == "broker-net") {
      run_broker_net(cfg, r);
    } else if (cfg.workload == "index-churn") {
      run_index_churn(cfg, r);
    } else if (cfg.workload == "tcp-cluster") {
      run_tcp_cluster(cfg, r);
    } else {
      throw std::invalid_argument("unknown --workload: " + cfg.workload);
    }
    print_result(cfg, r);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 2;
  }
}
