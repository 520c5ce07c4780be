#include "broker/broker_node.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "broker/codec.h"
#include "util/check.h"

namespace subcover {

struct broker_node::op_state {
  int parent_link = kLocalLink;  // link the message arrived over; kLocalLink = client
  std::uint64_t parent_seq = 0;  // seq to ack on the parent channel
  std::uint64_t client = 0;      // client_done recipient; 0 = orphaned
  int pending_acks = 0;
  std::vector<sub_id> delivered;  // local + aggregated subtree deliveries
  std::map<int, std::uint64_t> next_seq;  // per link: seq of this state's next send
};

// --- construction / recovery -------------------------------------------------

broker_node::broker_node(int id, const schema& s, const covering_index_factory& factory,
                         broker_options options, const std::vector<int>& links,
                         std::uint64_t checkpoint_every, broker_wal& wal,
                         network_metrics& metrics)
    : id_(id),
      schema_(s),
      checkpoint_every_(checkpoint_every),
      wal_(wal),
      metrics_(metrics),
      broker_(0, s, {}, factory, options),
      wal_seen_(wal.bytes_appended()) {
  const auto rec = wal_.recover();
  broker_ = broker::recover(id, schema_, links, factory, options, rec);
  const bool had_state =
      !rec.records.empty() || !rec.aux.empty() || !(rec.snapshot == broker_snapshot{});
  if (had_state) ++metrics_.recoveries;
  load_aux(rec.aux);
  for (const auto& r : rec.records) remember(r);
  // Resume the local op-id counter past every op this broker ever
  // originated (applied_ holds both post-snapshot records and the aux
  // blob's checkpointed keys). Without this a restarted node would mint op
  // ids its neighbors already have dedup state for, and they would replay
  // stale records instead of applying the fresh operations.
  const std::uint64_t mine = static_cast<std::uint64_t>(id_ + 1) << 40;
  for (const auto& [op, froms] : applied_)
    if ((op & ~((std::uint64_t{1} << 40) - 1)) == mine)
      op_counter_ = std::max(op_counter_, op & ((std::uint64_t{1} << 40) - 1));
  for (const int l : links) links_[l];
  resume_records();
}

broker_node::~broker_node() = default;

// --- inputs ------------------------------------------------------------------

void broker_node::client_op(const wire_msg& m, std::uint64_t client) {
  const std::uint64_t op = (static_cast<std::uint64_t>(id_ + 1) << 40) | ++op_counter_;
  wire_msg data;
  data.op = op;
  data.seq = 0;
  switch (m.type) {
    case msg_type::client_subscribe:
      data.type = msg_type::subscribe;
      break;
    case msg_type::client_unsubscribe:
      data.type = msg_type::unsubscribe;
      break;
    case msg_type::client_publish:
      data.type = msg_type::publish;
      break;
    default:
      throw std::invalid_argument("broker_node: not a client operation");
  }
  data.id = m.id;
  data.body = m.body;
  data.values = m.values;
  auto st = std::make_unique<op_state>();
  st->client = client;
  try {
    process_fresh(kLocalLink, data, *st);
  } catch (...) {
    if (client != 0) {
      wire_msg done;
      done.type = msg_type::client_done;
      done.op = op;
      done.status = 1;
      out_.completions.push_back({client, std::move(done)});
    }
    throw;
  }
  finish({op, kLocalLink, 0}, std::move(st));
}

void broker_node::receive(int link, const wire_msg& m) {
  switch (m.type) {
    case msg_type::subscribe:
    case msg_type::unsubscribe:
    case msg_type::publish:
      handle_data(link, m);
      return;
    case msg_type::ack:
      handle_ack(link, m);
      return;
    default:
      throw wire_error("broker_node: not a peer data or ack message");
  }
}

void broker_node::link_up(int link) {
  auto& l = links_.at(link);
  l.up = true;
  if (l.ever_up) ++metrics_.reconnects;
  l.ever_up = true;
  // Replay every unacked data message, oldest first. The receiver's
  // (op, from, seq) dedup turns the already-applied prefix into re-acks.
  for (const auto& e : l.unacked) out_.sends.emplace_back(link, e.msg);
}

void broker_node::link_down(int link) { links_.at(link).up = false; }

bool broker_node::checkpoint() {
  // Only at a quiescent boundary: every op this node has seen is
  // subtree-complete, so compacting cannot orphan a record a replay still
  // needs — and the aux blob carries the dedup keys and send counts
  // forward so the exactly-once window stays closed across the compaction.
  if (!active_.empty()) return false;
  wal_.write_snapshot(broker_.snapshot(), aux_blob());
  records_.clear();
  sync_wal_bytes();
  return true;
}

bool broker_node::quiescent() const {
  if (!active_.empty()) return false;
  return std::all_of(links_.begin(), links_.end(),
                     [](const auto& l) { return l.second.unacked.empty(); });
}

// --- operation processing ----------------------------------------------------

void broker_node::handle_data(int from, const wire_msg& m) {
  std::uint64_t next = 0;
  if (const auto oit = applied_.find(m.op); oit != applied_.end())
    if (const auto fit = oit->second.find(from); fit != oit->second.end()) next = fit->second;

  const msg_key key{m.op, from, m.seq};
  if (m.seq == next) {
    auto st = std::make_unique<op_state>();
    st->parent_link = from;
    st->parent_seq = m.seq;
    process_fresh(from, m, *st);
    finish(key, std::move(st));
    return;
  }
  // Links are in-order and the ledger replays in order: a gap means the
  // sender and receiver disagree about history.
  if (m.seq > next)
    throw wire_error("broker_node: sequence gap on link " + std::to_string(from));

  // Duplicate: only reconnect replay produces these.
  ++metrics_.duplicates_suppressed;
  if (active_.count(key) != 0) return;  // in flight: our eventual ack covers it

  // The subtree's ack state died with a crash (ours or an ancestor's).
  // Rebuild it by deterministic re-emission — see broker_node.h.
  auto st = std::make_unique<op_state>();
  st->parent_link = from;
  st->parent_seq = m.seq;
  if (const auto it = records_.find(key); it != records_.end()) {
    if (it->second.k == wal_record::kind::event_receipt)
      replay_publish(from, m, *st);
    else
      replay_record(it->second, *st);
  } else if (m.type == msg_type::publish) {
    // Record checkpointed away: the subtree completed, but the delivered
    // set must be reassembled for the ack.
    replay_publish(from, m, *st);
  }
  // else: checkpointed subscribe/unsubscribe — downstream is durable and
  // quiescent; the empty re-ack is all the parent needs.
  finish(key, std::move(st));
}

void broker_node::process_fresh(int from, const wire_msg& m, op_state& st) {
  wal_record r;
  r.op = m.op;
  r.from = from;
  r.seq = m.seq;
  switch (m.type) {
    case msg_type::subscribe: {
      const auto action = broker_.handle_subscribe(from, m.id, m.body, metrics_);
      r.k = wal_record::kind::subscribe;
      r.id = m.id;
      r.body = m.body;
      r.forwarded_links = action.forward_links;
      log_record(r);
      for (const int link : action.forward_links) {
        ++metrics_.subscription_messages;
        wire_msg out;
        out.type = msg_type::subscribe;
        out.id = m.id;
        out.body = m.body;
        emit_data(m.op, link, std::move(out), st);
      }
      break;
    }
    case msg_type::unsubscribe: {
      const auto action = broker_.handle_unsubscribe(from, m.id, metrics_);
      r.k = wal_record::kind::unsubscribe;
      r.id = m.id;
      r.withdrawn_links = action.forward_links;
      r.reforwards = action.reforwards;
      log_record(r);
      for (const int link : action.forward_links) {
        ++metrics_.unsubscription_messages;
        wire_msg out;
        out.type = msg_type::unsubscribe;
        out.id = m.id;
        emit_data(m.op, link, std::move(out), st);
      }
      for (const auto& [link, sub_pair] : action.reforwards) {
        ++metrics_.subscription_messages;
        ++metrics_.reforwards;
        wire_msg out;
        out.type = msg_type::subscribe;
        out.id = sub_pair.first;
        out.body = sub_pair.second;
        emit_data(m.op, link, std::move(out), st);
      }
      break;
    }
    case msg_type::publish: {
      const event e(schema_, m.values);
      const std::size_t before = st.delivered.size();
      broker_.handle_event(from, e, forwards_, st.delivered);
      // Events mutate no routing state, but their channel position must
      // survive a crash: without the receipt, a replayed (already
      // processed) event would be delivered and counted twice.
      r.k = wal_record::kind::event_receipt;
      log_record(r);
      metrics_.deliveries += st.delivered.size() - before;
      for (const int link : forwards_) {
        ++metrics_.event_messages;
        wire_msg out;
        out.type = msg_type::publish;
        out.values = m.values;
        emit_data(m.op, link, std::move(out), st);
      }
      break;
    }
    default:
      SUBCOVER_CHECK(false, "broker_node: non-data message in process_fresh");
  }
}

void broker_node::replay_record(const wal_record& r, op_state& st) {
  // Physical re-emission of a logged disposition: no broker handler runs
  // and no logical counter moves. Emission order matches process_fresh
  // exactly, so the regenerated per-op per-link seqs equal the originals.
  switch (r.k) {
    case wal_record::kind::subscribe:
      for (const int link : r.forwarded_links) {
        wire_msg out;
        out.type = msg_type::subscribe;
        out.id = r.id;
        out.body = r.body;
        emit_data(r.op, link, std::move(out), st);
      }
      break;
    case wal_record::kind::unsubscribe:
      for (const int link : r.withdrawn_links) {
        wire_msg out;
        out.type = msg_type::unsubscribe;
        out.id = r.id;
        emit_data(r.op, link, std::move(out), st);
      }
      for (const auto& [link, sub_pair] : r.reforwards) {
        wire_msg out;
        out.type = msg_type::subscribe;
        out.id = sub_pair.first;
        out.body = sub_pair.second;
        emit_data(r.op, link, std::move(out), st);
      }
      break;
    case wal_record::kind::event_receipt:
      // Needs the event payload, which only a duplicate message carries —
      // replay_publish handles that path; client-origin receipts are not
      // resumed (resume_records skips them).
      break;
  }
}

void broker_node::replay_publish(int from, const wire_msg& m, op_state& st) {
  // Events mutate no routing state and the cluster runs one operation at a
  // time, so re-running the (const) handler against the recovered tables
  // recomputes the original deliveries and forwards. Logical counters
  // stay untouched: this is physical redo, not new work.
  const event e(schema_, m.values);
  broker_.handle_event(from, e, forwards_, st.delivered);
  for (const int link : forwards_) {
    wire_msg out;
    out.type = msg_type::publish;
    out.values = m.values;
    emit_data(m.op, link, std::move(out), st);
  }
}

void broker_node::emit_data(std::uint64_t op, int link, wire_msg m, op_state& st) {
  auto [next, first] = st.next_seq.try_emplace(link, 0);
  if (first) next->second = earlier_sends(op, st, link);
  m.op = op;
  m.seq = next->second++;
  ++st.pending_acks;
  auto& l = links_.at(link);
  l.unacked.push_back({op, m.seq, m, {op, st.parent_link, st.parent_seq}});
  if (l.up) out_.sends.emplace_back(link, std::move(m));
  // else: the ledger entry goes out on link_up.
}

std::uint64_t broker_node::earlier_sends(std::uint64_t op, const op_state& st, int link) const {
  // Per-op per-link seqs are a function of the logged messages, never of
  // timing: an op's data messages all arrive over one link in seq order,
  // and each one's sends continue where the previous ones' left off. So a
  // fresh message and a crash-recovery re-emission number their sends
  // identically, however far the earlier messages' subtrees have got —
  // and whether or not a checkpoint has compacted their records away.
  std::uint64_t n = 0;
  for (auto it = sent_.lower_bound({op, st.parent_link, 0});
       it != sent_.end() && it->first < msg_key{op, st.parent_link, st.parent_seq}; ++it)
    if (const auto l = it->second.find(link); l != it->second.end()) n += l->second;
  return n;
}

void broker_node::handle_ack(int from, const wire_msg& m) {
  auto& l = links_.at(from);
  const auto it = std::find_if(l.unacked.begin(), l.unacked.end(), [&](const ledger_entry& e) {
    return e.op == m.op && e.seq == m.seq;
  });
  if (it == l.unacked.end()) return;  // stale re-ack of an already-acked send
  const msg_key owner = it->owner;
  l.unacked.erase(it);
  const auto ait = active_.find(owner);
  if (ait == active_.end()) return;
  op_state& st = *ait->second;
  st.delivered.insert(st.delivered.end(), m.delivered.begin(), m.delivered.end());
  if (--st.pending_acks == 0) {
    auto owned = std::move(ait->second);
    active_.erase(ait);
    complete_op(m.op, *owned);
  }
}

void broker_node::finish(const msg_key& key, std::unique_ptr<op_state> st) {
  if (st->pending_acks == 0)
    complete_op(key.op, *st);
  else
    active_[key] = std::move(st);
}

void broker_node::complete_op(std::uint64_t op, op_state& st) {
  std::sort(st.delivered.begin(), st.delivered.end());
  if (st.parent_link == kLocalLink) {
    // An orphaned client op (resumed after a crash) converged the state;
    // there is nobody to tell.
    if (st.client != 0) {
      wire_msg done;
      done.type = msg_type::client_done;
      done.op = op;
      done.status = 0;
      done.delivered = std::move(st.delivered);
      out_.completions.push_back({st.client, std::move(done)});
    }
  } else if (links_.at(st.parent_link).up) {
    wire_msg ack;
    ack.type = msg_type::ack;
    ack.op = op;
    ack.seq = st.parent_seq;
    ack.delivered = std::move(st.delivered);
    out_.sends.emplace_back(st.parent_link, std::move(ack));
  }
  // else: the ack is lost with the link; the parent replays on link_up and
  // the duplicate path re-acks.
  maybe_checkpoint();
}

void broker_node::maybe_checkpoint() {
  if (checkpoint_every_ == 0 || wal_.records_since_snapshot() < checkpoint_every_) return;
  checkpoint();
}

// --- durable bookkeeping -----------------------------------------------------

void broker_node::log_record(const wal_record& r) {
  wal_.append(r);
  sync_wal_bytes();
  remember(r);
}

void broker_node::remember(const wal_record& r) {
  const msg_key key{r.op, r.from, r.seq};
  auto& pos = applied_[r.op][r.from];
  pos = std::max(pos, r.seq + 1);
  std::map<int, std::uint64_t> by_link;
  for (const int l : r.forwarded_links) ++by_link[l];
  for (const int l : r.withdrawn_links) ++by_link[l];
  for (const auto& rf : r.reforwards) ++by_link[rf.first];
  if (!by_link.empty()) sent_[key] = std::move(by_link);
  records_[key] = r;
}

void broker_node::sync_wal_bytes() {
  metrics_.wal_bytes += wal_.bytes_appended() - wal_seen_;
  wal_seen_ = wal_.bytes_appended();
}

// Aux blob: the dedup keys, then the per-message send counts.
//   aux  := count (op from next)*  count (op from seq nlinks (link sends)*)*
std::vector<std::uint8_t> broker_node::aux_blob() const {
  std::vector<std::uint8_t> out;
  std::uint64_t entries = 0;
  for (const auto& [op, by_from] : applied_) entries += by_from.size();
  codec::put_varint(out, entries);
  for (const auto& [op, by_from] : applied_)
    for (const auto& [from, next] : by_from) {
      codec::put_varint(out, op);
      codec::put_signed(out, from);
      codec::put_varint(out, next);
    }
  codec::put_varint(out, sent_.size());
  for (const auto& [key, by_link] : sent_) {
    codec::put_varint(out, key.op);
    codec::put_signed(out, key.from);
    codec::put_varint(out, key.seq);
    codec::put_varint(out, by_link.size());
    for (const auto& [link, n] : by_link) {
      codec::put_signed(out, link);
      codec::put_varint(out, n);
    }
  }
  return out;
}

void broker_node::load_aux(const std::vector<std::uint8_t>& aux) {
  if (aux.empty()) return;
  codec::basic_byte_reader<wal_error> in{aux.data(), aux.data() + aux.size()};
  const auto entries = in.varint();
  for (std::uint64_t i = 0; i < entries; ++i) {
    const auto op = in.varint();
    const auto from = static_cast<int>(in.signed_varint());
    auto& pos = applied_[op][from];
    pos = std::max(pos, in.varint());
  }
  const auto messages = in.varint();
  for (std::uint64_t i = 0; i < messages; ++i) {
    msg_key key;
    key.op = in.varint();
    key.from = static_cast<int>(in.signed_varint());
    key.seq = in.varint();
    auto& by_link = sent_[key];
    const auto links = in.varint();
    for (std::uint64_t j = 0; j < links; ++j) {
      const auto link = static_cast<int>(in.signed_varint());
      by_link[link] = in.varint();
    }
  }
  if (!in.done()) throw wal_error("wal: trailing bytes in aux blob");
}

void broker_node::resume_records() {
  // A rebuilt node cannot tell which of its logged messages finished their
  // subtree before the crash: the ledgers that knew died with it. So every
  // logged subscribe/unsubscribe is re-emitted and stays in flight until
  // its children re-ack:
  //   * a client-origin record has no parent to replay it: if its op was
  //     cut short, nothing else in the cluster would finish it;
  //   * a peer-origin record whose sends the crash lost must not be
  //     compacted away before its parent's replay arrives — that replay
  //     would find no record and re-ack empty, and the lost sends would
  //     never be made (checkpoint() waits for active_ to drain).
  // Completed ones cost a few suppressed duplicates and stale re-acks.
  // Publish receipts need no resume: a replayed publish carries its event
  // and is recomputed whether or not its receipt survives.
  for (const auto& [key, r] : records_) {
    if (r.k == wal_record::kind::event_receipt) continue;
    auto st = std::make_unique<op_state>();
    st->parent_link = r.from;
    st->parent_seq = r.seq;
    replay_record(r, *st);
    if (st->pending_acks > 0) active_[key] = std::move(st);
  }
}

}  // namespace subcover
