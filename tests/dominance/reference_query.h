// reference_query — the Section 5 search written the plain way, as the
// oracle the production query_plan is pinned against in tests.
//
// For each occupied level of the (possibly truncated, Lemma 3.2) extremal
// query region, largest cubes first, it takes the same cubes the plan
// takes (the first `needed` in Algorithm 1-3 order, under the same
// coverage and max_cubes arithmetic), coalesces them with
// merge_ranges_inplace, sorts the runs into probe order (probes_before:
// larger runs first, ties by ascending key) and probes them one at a time
// with an independent first_in, stopping at the first hit or at 1 - epsilon
// coverage. Everything runs at u512 through the index's sfc()/array()
// facade, so it shares no width-typed code with the plan.
//
// The result and every logical query_stats field (cubes_enumerated,
// runs_in_plan, runs_probed, truncation_m, the two volume fractions, found,
// budget_exhausted) must equal the plan's. The physical fields describe how
// the probes ran: here every probe is a fresh descent, so probes_restarted
// == runs_probed and no frontier batches or resumed probes are reported.
// Tier and maintenance counters are left zero.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "dominance/dominance_index.h"
#include "dominance/query_stats.h"
#include "sfc/extremal_decomposition.h"
#include "sfc/key_range.h"

namespace subcover::oracle {

// The probe order within a level: larger runs first, ties by ascending key.
// Extents are compared via hi - lo: the same order as cell_count() without
// the +1's wrap at the full range.
inline bool probes_before(const key_range& a, const key_range& b) {
  const u512 ca = a.hi - a.lo;
  const u512 cb = b.hi - b.lo;
  if (ca != cb) return cb < ca;
  return a.lo < b.lo;
}

// Same contract as dominance_index::query (throws on a bad epsilon or point
// and, unless settling, on an exceeded cube budget).
inline std::optional<std::uint64_t> reference_query(const dominance_index& idx, const point& x,
                                                    double epsilon,
                                                    query_stats* stats = nullptr) {
  const universe& u = idx.space();
  const dominance_options& opts = idx.options();
  if (epsilon < 0 || epsilon >= 1)
    throw std::invalid_argument("reference_query: epsilon must be in [0, 1)");
  if (!x.inside(u)) throw std::invalid_argument("reference_query: point outside universe");

  const extremal_rect full = extremal_rect::query_region(u, x);
  const long double vol_full = full.volume_ld();
  const int m = idx.truncation_m(epsilon);
  const extremal_rect target = epsilon > 0 ? full.truncated(u, m) : full;

  query_stats local;
  query_stats& st = stats != nullptr ? *stats : local;
  st = query_stats{};
  st.truncation_m = m;
  st.volume_fraction_planned = target.volume_ld() / vol_full;

  const std::vector<u512> counts = extremal_level_counts(u, target);
  const long double coverage_target =
      epsilon > 0 ? (1.0L - static_cast<long double>(epsilon)) * vol_full
                  : target.volume_ld();

  std::uint64_t budget = opts.max_cubes;
  long double searched = 0;
  long double planned_cum = 0;
  std::optional<std::uint64_t> result;
  bool done = false;
  for (int i = u.bits(); i >= 0 && !done; --i) {
    const u512& count = counts[static_cast<std::size_t>(i)];
    if (count.is_zero()) continue;
    const long double cube_volume = std::ldexp(1.0L, i * u.dims());
    const long double level_volume = count.to_long_double() * cube_volume;
    std::uint64_t needed;
    if (epsilon > 0 && planned_cum + level_volume >= coverage_target) {
      needed = static_cast<std::uint64_t>(
                   std::ceil((coverage_target - planned_cum) / cube_volume)) +
               1;
      done = true;
    } else if (count.bit_width() > 63) {
      needed = ~std::uint64_t{0};
    } else {
      needed = count.low64();
    }
    if (needed > budget) {
      if (!opts.settle_on_budget)
        throw std::length_error("reference_query: cube budget exceeded");
      st.budget_exhausted = true;
      needed = budget;
      done = true;
    }
    if (needed == 0) break;

    std::vector<key_range> runs;
    enumerate_level_ranges(
        idx.sfc(), target, i,
        [&](const key_range& r) {
          runs.push_back(r);
          return runs.size() < needed;
        },
        needed);
    st.cubes_enumerated += runs.size();
    budget -= runs.size();
    planned_cum += level_volume;
    merge_ranges_inplace(runs);
    st.runs_in_plan += runs.size();
    std::sort(runs.begin(), runs.end(), probes_before);
    for (const key_range& run : runs) {
      ++st.runs_probed;
      ++st.probes_restarted;
      const auto hit = idx.array().first_in(run);
      searched += run.cell_count_ld();
      if (hit.has_value()) {
        result = hit->id;
        st.found = true;
        done = true;
        break;
      }
      if (epsilon > 0 && searched >= coverage_target) {
        done = true;
        break;
      }
    }
  }
  st.volume_fraction_searched = searched / vol_full;
  return result;
}

}  // namespace subcover::oracle
