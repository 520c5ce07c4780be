#include "broker/metrics.h"

#include <sstream>

namespace subcover {

network_metrics& network_metrics::operator+=(const network_metrics& o) {
  subscription_messages += o.subscription_messages;
  unsubscription_messages += o.unsubscription_messages;
  reforwards += o.reforwards;
  event_messages += o.event_messages;
  deliveries += o.deliveries;
  covering_checks += o.covering_checks;
  covering_hits += o.covering_hits;
  covering_check_ns += o.covering_check_ns;
  covering_runs_probed += o.covering_runs_probed;
  covering_probes_restarted += o.covering_probes_restarted;
  covering_probes_resumed += o.covering_probes_resumed;
  covering_tier_cold_probes += o.covering_tier_cold_probes;
  covering_tier_summary_answers += o.covering_tier_summary_answers;
  covering_tier_blocks_decoded += o.covering_tier_blocks_decoded;
  covering_tier_cold_hits += o.covering_tier_cold_hits;
  covering_maint_tombstones += o.covering_maint_tombstones;
  covering_maint_purged += o.covering_maint_purged;
  covering_maint_compactions += o.covering_maint_compactions;
  duplicates_suppressed += o.duplicates_suppressed;
  recoveries += o.recoveries;
  wal_bytes += o.wal_bytes;
  reconnects += o.reconnects;
  heartbeats_missed += o.heartbeats_missed;
  bytes_on_wire += o.bytes_on_wire;
  partial_writes += o.partial_writes;
  return *this;
}

bool same_counters(const network_metrics& a, const network_metrics& b) {
  return a.subscription_messages == b.subscription_messages &&
         a.unsubscription_messages == b.unsubscription_messages &&
         a.reforwards == b.reforwards && a.event_messages == b.event_messages &&
         a.deliveries == b.deliveries && a.covering_checks == b.covering_checks &&
         a.covering_hits == b.covering_hits &&
         a.covering_runs_probed == b.covering_runs_probed &&
         a.covering_probes_restarted == b.covering_probes_restarted &&
         a.covering_probes_resumed == b.covering_probes_resumed &&
         a.covering_tier_cold_probes == b.covering_tier_cold_probes &&
         a.covering_tier_summary_answers == b.covering_tier_summary_answers &&
         a.covering_tier_blocks_decoded == b.covering_tier_blocks_decoded &&
         a.covering_tier_cold_hits == b.covering_tier_cold_hits;
}

std::string network_metrics::to_string() const {
  std::ostringstream os;
  os << "metrics{sub_msgs=" << subscription_messages << ", unsub_msgs=" << unsubscription_messages
     << ", reforwards=" << reforwards << ", event_msgs=" << event_messages
     << ", deliveries=" << deliveries << ", cov_checks=" << covering_checks
     << ", cov_hits=" << covering_hits << ", cov_ns=" << covering_check_ns
     << ", cov_runs_probed=" << covering_runs_probed
     << ", cov_restarted=" << covering_probes_restarted
     << ", cov_resumed=" << covering_probes_resumed
     << ", cov_tier_cold=" << covering_tier_cold_probes
     << ", cov_tier_summary=" << covering_tier_summary_answers
     << ", cov_tier_decoded=" << covering_tier_blocks_decoded
     << ", cov_tier_hits=" << covering_tier_cold_hits
     << ", cov_maint_tombs=" << covering_maint_tombstones
     << ", cov_maint_purged=" << covering_maint_purged
     << ", cov_maint_compact=" << covering_maint_compactions
     << ", dups_suppressed=" << duplicates_suppressed << ", recoveries=" << recoveries
     << ", wal_bytes=" << wal_bytes << ", reconnects=" << reconnects
     << ", hb_missed=" << heartbeats_missed << ", wire_bytes=" << bytes_on_wire
     << ", partial_writes=" << partial_writes << "}";
  return os.str();
}

}  // namespace subcover
