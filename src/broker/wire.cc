#include "broker/wire.h"

#include <cstring>

#include "broker/codec.h"

namespace subcover {

namespace {

using wire_reader = codec::basic_byte_reader<wire_error>;
using codec::kFrameHeader;

// Metrics travel as a counted list of varints in declaration order, so a
// field added to network_metrics shows up here (and in the count check)
// exactly once.
constexpr std::size_t kMetricsFields = 25;

void put_metrics(std::vector<std::uint8_t>& out, const network_metrics& m) {
  const std::uint64_t fields[kMetricsFields] = {
      m.subscription_messages, m.unsubscription_messages, m.reforwards, m.event_messages,
      m.deliveries, m.covering_checks, m.covering_hits, m.covering_check_ns,
      m.covering_runs_probed, m.covering_probes_restarted, m.covering_probes_resumed,
      m.covering_tier_cold_probes, m.covering_tier_summary_answers,
      m.covering_tier_blocks_decoded, m.covering_tier_cold_hits, m.covering_maint_tombstones,
      m.covering_maint_purged, m.covering_maint_compactions, m.duplicates_suppressed,
      m.recoveries, m.wal_bytes, m.reconnects, m.heartbeats_missed,
      m.bytes_on_wire, m.partial_writes};
  codec::put_varint(out, kMetricsFields);
  for (const auto f : fields) codec::put_varint(out, f);
}

network_metrics read_metrics(wire_reader& in) {
  if (in.varint() != kMetricsFields) throw wire_error("wire: metrics field-count mismatch");
  std::uint64_t f[kMetricsFields];
  for (auto& v : f) v = in.varint();
  network_metrics m;
  m.subscription_messages = f[0];
  m.unsubscription_messages = f[1];
  m.reforwards = f[2];
  m.event_messages = f[3];
  m.deliveries = f[4];
  m.covering_checks = f[5];
  m.covering_hits = f[6];
  m.covering_check_ns = f[7];
  m.covering_runs_probed = f[8];
  m.covering_probes_restarted = f[9];
  m.covering_probes_resumed = f[10];
  m.covering_tier_cold_probes = f[11];
  m.covering_tier_summary_answers = f[12];
  m.covering_tier_blocks_decoded = f[13];
  m.covering_tier_cold_hits = f[14];
  m.covering_maint_tombstones = f[15];
  m.covering_maint_purged = f[16];
  m.covering_maint_compactions = f[17];
  m.duplicates_suppressed = f[18];
  m.recoveries = f[19];
  m.wal_bytes = f[20];
  m.reconnects = f[21];
  m.heartbeats_missed = f[22];
  m.bytes_on_wire = f[23];
  m.partial_writes = f[24];
  return m;
}

void put_id_list(std::vector<std::uint8_t>& out, const std::vector<sub_id>& ids) {
  codec::put_varint(out, ids.size());
  // Delta-coded: delivered/acked id lists are ascending by contract.
  std::uint64_t prev = 0;
  for (const auto id : ids) {
    codec::put_varint(out, id - prev);
    prev = id;
  }
}

std::vector<sub_id> read_id_list(wire_reader& in) {
  const auto n = in.count();
  std::vector<sub_id> ids;
  ids.reserve(n);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    prev += in.varint();
    ids.push_back(prev);
  }
  return ids;
}

}  // namespace

std::vector<std::uint8_t> encode_msg(const wire_msg& m) {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(m.type));
  switch (m.type) {
    case msg_type::hello:
      codec::put_signed(out, m.sender);
      break;
    case msg_type::heartbeat:
    case msg_type::client_dump:
    case msg_type::client_shutdown:
      break;
    case msg_type::subscribe:
      codec::put_varint(out, m.op);
      codec::put_varint(out, m.seq);
      codec::put_varint(out, m.id);
      codec::put_subscription(out, m.body);
      break;
    case msg_type::unsubscribe:
      codec::put_varint(out, m.op);
      codec::put_varint(out, m.seq);
      codec::put_varint(out, m.id);
      break;
    case msg_type::publish:
      codec::put_varint(out, m.op);
      codec::put_varint(out, m.seq);
      codec::put_varint(out, m.values.size());
      for (const auto v : m.values) codec::put_varint(out, v);
      break;
    case msg_type::ack:
      codec::put_varint(out, m.op);
      codec::put_varint(out, m.seq);
      put_id_list(out, m.delivered);
      break;
    case msg_type::client_subscribe:
      codec::put_varint(out, m.id);
      codec::put_subscription(out, m.body);
      break;
    case msg_type::client_unsubscribe:
      codec::put_varint(out, m.id);
      break;
    case msg_type::client_publish:
      codec::put_varint(out, m.values.size());
      for (const auto v : m.values) codec::put_varint(out, v);
      break;
    case msg_type::client_done:
      codec::put_varint(out, m.op);
      out.push_back(m.status);
      put_id_list(out, m.delivered);
      break;
    case msg_type::dump_reply:
      codec::put_varint(out, m.snapshot.size());
      out.insert(out.end(), m.snapshot.begin(), m.snapshot.end());
      put_metrics(out, m.metrics);
      break;
  }
  return out;
}

wire_msg decode_msg(const std::uint8_t* p, std::size_t n) {
  wire_reader in{p, p + n};
  wire_msg m;
  const auto t = in.byte();
  if (t < 1 || t > 13) throw wire_error("wire: unknown message type");
  m.type = static_cast<msg_type>(t);
  switch (m.type) {
    case msg_type::hello:
      m.sender = static_cast<int>(in.signed_varint());
      break;
    case msg_type::heartbeat:
    case msg_type::client_dump:
    case msg_type::client_shutdown:
      break;
    case msg_type::subscribe:
      m.op = in.varint();
      m.seq = in.varint();
      m.id = in.varint();
      m.body = codec::read_subscription(in);
      break;
    case msg_type::unsubscribe:
      m.op = in.varint();
      m.seq = in.varint();
      m.id = in.varint();
      break;
    case msg_type::publish: {
      m.op = in.varint();
      m.seq = in.varint();
      const auto nv = in.varint();
      if (nv > 1024) throw wire_error("wire: absurd event width");
      m.values.reserve(nv);
      for (std::uint64_t i = 0; i < nv; ++i) m.values.push_back(in.varint());
      break;
    }
    case msg_type::ack:
      m.op = in.varint();
      m.seq = in.varint();
      m.delivered = read_id_list(in);
      break;
    case msg_type::client_subscribe:
      m.id = in.varint();
      m.body = codec::read_subscription(in);
      break;
    case msg_type::client_unsubscribe:
      m.id = in.varint();
      break;
    case msg_type::client_publish: {
      const auto nv = in.varint();
      if (nv > 1024) throw wire_error("wire: absurd event width");
      m.values.reserve(nv);
      for (std::uint64_t i = 0; i < nv; ++i) m.values.push_back(in.varint());
      break;
    }
    case msg_type::client_done:
      m.op = in.varint();
      m.status = in.byte();
      m.delivered = read_id_list(in);
      break;
    case msg_type::dump_reply: {
      const auto ns = in.varint();
      if (static_cast<std::size_t>(in.end - in.p) < ns)
        throw wire_error("codec: truncated payload");
      m.snapshot.assign(in.p, in.p + ns);
      in.p += ns;
      m.metrics = read_metrics(in);
      break;
    }
  }
  if (!in.done()) throw wire_error("wire: trailing bytes in message payload");
  return m;
}

std::vector<std::uint8_t> frame_msg(const wire_msg& m) { return codec::frame(encode_msg(m)); }

void frame_decoder::feed(const std::uint8_t* data, std::size_t n) {
  // Reclaim the consumed prefix before growing: steady-state the buffer
  // holds at most one partial frame, so this stays O(frame), not O(stream).
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ >= 4096)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

std::optional<std::vector<std::uint8_t>> frame_decoder::next() {
  if (poisoned_) throw wire_error("wire: decoder poisoned by earlier corruption");
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeader) return std::nullopt;
  const std::uint8_t* base = buf_.data() + pos_;
  const auto len = codec::read_u32le(base);
  if (len > kMaxWirePayload) {
    poisoned_ = true;
    throw wire_error("wire: frame length exceeds maximum (corrupt length header?)");
  }
  if (avail - kFrameHeader < len) return std::nullopt;
  const auto sum = codec::read_u64le(base + 4);
  const std::uint8_t* payload = base + kFrameHeader;
  if (codec::fnv1a64(payload, len) != sum) {
    poisoned_ = true;
    throw wire_error("wire: frame checksum mismatch");
  }
  std::vector<std::uint8_t> out(payload, payload + len);
  pos_ += kFrameHeader + len;
  return out;
}

}  // namespace subcover
