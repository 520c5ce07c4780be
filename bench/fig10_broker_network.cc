// E10 — the motivation of Section 1: covering reduces the number of
// subscriptions propagated and the routing-table sizes in a broker network,
// and approximate covering retains most of that benefit at a fraction of the
// detection cost — without losing a single delivery (one-sided error).
//
// A 15-broker tree receives a clustered subscription workload and a stream
// of events, under: flooding (no covering), exact covering (linear-scan
// detector), SFC exhaustive-within-budget, SFC approximate (two epsilons),
// and the unsafe Monte-Carlo detector (which loses deliveries).
#include <chrono>
#include <iostream>

#include "bench_common.h"
#include "broker/network.h"
#include "covering/linear_covering_index.h"
#include "covering/sampled_covering_index.h"
#include "covering/sfc_covering_index.h"
#include "util/cli.h"
#include "workload/event_gen.h"
#include "workload/subscription_gen.h"

using namespace subcover;

namespace {

struct mode {
  std::string name;
  bool use_covering;
  double epsilon;
  covering_index_factory factory;
  bool safe;  // completeness expected
};

}  // namespace

int main(int argc, char** argv) {
  cli_flags flags(argc, argv);
  const bool csv = flags.get_bool("csv", false);
  const int subs = static_cast<int>(flags.get_int("subs", 1200));
  const int events = static_cast<int>(flags.get_int("events", 250));
  flags.finish();

  bench::banner("E10", "Broker network: covering modes end to end",
                "Section 1 motivation (routing tables, subscription traffic)");
  bench::expectation_tracker track;

  const schema s = workload::make_uniform_schema(2, 8);
  const auto linear_factory = [](const schema& sc) {
    return std::make_unique<linear_covering_index>(sc);
  };
  const auto sfc_factory = [](const schema& sc) {
    sfc_covering_options so;
    so.max_cubes = 8192;  // bounded search: degenerate checks settle fast
    return std::make_unique<sfc_covering_index>(sc, so);
  };
  const auto mc_factory = [](const schema& sc) {
    return std::make_unique<sampled_covering_index>(sc, 8);
  };

  const std::vector<mode> modes = {
      {"flooding", false, 0.0, linear_factory, true},
      {"exact (linear)", true, 0.0, linear_factory, true},
      {"sfc exhaustive*", true, 0.0, sfc_factory, true},
      {"sfc eps=0.05", true, 0.05, sfc_factory, true},
      {"sfc eps=0.20", true, 0.20, sfc_factory, true},
      {"mc-sampled (unsafe)", true, 0.0, mc_factory, false},
  };

  ascii_table table({"mode", "sub msgs", "table entries", "event msgs", "lost deliveries",
                     "cov checks", "cov hit rate", "cov time ms", "sub wall ms"});
  std::uint64_t flood_msgs = 0, flood_entries = 0;
  std::uint64_t exact_msgs = 0;
  std::uint64_t approx05_msgs = 0;
  for (const auto& m : modes) {
    network_options o;
    o.use_covering = m.use_covering;
    o.epsilon = m.epsilon;
    o.factory = m.factory;
    network net(topology::balanced_tree(2, 3), s, o);

    workload::subscription_gen_options wo;
    wo.kind = workload::workload_kind::uniform;
    wo.mean_width = 0.45;
    wo.wildcard_prob = 0.02;
    workload::subscription_gen sgen(s, wo, 909);
    workload::event_gen egen(s, 910);
    rng pick(911);
    const auto sub_start = std::chrono::steady_clock::now();
    for (int i = 0; i < subs; ++i)
      (void)net.subscribe(static_cast<int>(pick.index(15)), sgen.next());
    const double sub_wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - sub_start)
            .count();

    std::uint64_t lost = 0;
    for (int e = 0; e < events; ++e) {
      const auto ev = egen.next();
      const auto delivered = net.publish(static_cast<int>(pick.index(15)), ev);
      const auto expected = net.expected_recipients(ev);
      lost += expected.size() - delivered.size();
    }
    const auto& metrics = net.metrics();
    const double hit_rate = metrics.covering_checks == 0
                                ? 0.0
                                : static_cast<double>(metrics.covering_hits) /
                                      static_cast<double>(metrics.covering_checks);
    table.add_row({m.name, fmt_u64(metrics.subscription_messages),
                   fmt_u64(net.total_routing_entries()), fmt_u64(metrics.event_messages),
                   fmt_u64(lost), fmt_u64(metrics.covering_checks), fmt_percent(hit_rate),
                   fmt_double(static_cast<double>(metrics.covering_check_ns) / 1e6, 1),
                   fmt_double(sub_wall_ms, 1)});

    if (m.name == "flooding") {
      flood_msgs = metrics.subscription_messages;
      flood_entries = net.total_routing_entries();
    }
    if (m.name == "exact (linear)") exact_msgs = metrics.subscription_messages;
    if (m.name == "sfc eps=0.05") approx05_msgs = metrics.subscription_messages;
    if (m.safe) {
      track.check(lost == 0, m.name + ": no deliveries lost");
    } else {
      track.check(lost > 0, m.name + ": two-sided error loses deliveries (expected)");
    }
  }
  std::cout << (csv ? table.to_csv() : table.to_string());
  bench::note("* sfc exhaustive = epsilon 0 within the cube budget (degenerate regions settle).");

  track.check(exact_msgs < flood_msgs, "exact covering reduces subscription traffic");
  track.check(approx05_msgs < flood_msgs, "approximate covering reduces subscription traffic");
  const double retained =
      flood_msgs == exact_msgs
          ? 1.0
          : static_cast<double>(flood_msgs - approx05_msgs) /
                static_cast<double>(flood_msgs - exact_msgs);
  bench::note("eps=0.05 retains " + fmt_percent(retained) +
              " of exact covering's traffic reduction (flooding " + fmt_u64(flood_msgs) +
              " -> exact " + fmt_u64(exact_msgs) + " msgs; tables " + fmt_u64(flood_entries) +
              " entries under flooding)");
  track.check(retained > 0.5, "approximate covering retains most of the benefit");
  return track.exit_code();
}
