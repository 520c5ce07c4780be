// Shared byte-level codec for the broker's durable and on-wire formats.
//
// The write-ahead log (broker/wal.h) and the TCP wire protocol
// (broker/wire.h) deliberately share one framing discipline:
//
//   frame   := len:u32le  fnv1a64(payload):u64le  payload[len]
//   payload := LEB128 varints (zigzag for signed), gap-coded ranges
//
// A torn frame — a length header, checksum, or payload cut mid-write — is
// detectable at any byte boundary, which is what lets WAL recovery keep the
// intact prefix and lets the transport resynchronize a stream by dropping
// the connection instead of guessing where the next frame starts.
//
// The reader is templated on the error type so each consumer surfaces its
// own exception (wal_error for durable state, wire_error for the
// transport) from the same decode paths.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "covering/covering_index.h"  // sub_id
#include "pubsub/subscription.h"

namespace subcover::codec {

// --- varint / zigzag ---------------------------------------------------------

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

inline void put_signed(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_varint(out, zigzag(v));
}

// Bounded reader over a decoded payload. Every decode failure throws the
// consumer's error type; frame checksums make payload-level corruption
// unreachable in practice, but a wrong-version writer must fail loudly, not
// read garbage.
template <class Error>
struct basic_byte_reader {
  const std::uint8_t* p;
  const std::uint8_t* end;

  [[nodiscard]] bool done() const { return p == end; }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (p == end || shift > 63) throw Error("codec: truncated varint");
      const std::uint8_t b = *p++;
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }
  std::int64_t signed_varint() { return unzigzag(varint()); }
  // An element count read from the payload, for sizing a container. Every
  // element takes at least one byte, so a count above the bytes left is
  // corrupt; rejecting it here keeps reserve() from ever seeing an
  // attacker-sized value (which would throw std::length_error or
  // std::bad_alloc, not Error).
  std::uint64_t count() {
    const std::uint64_t n = varint();
    if (n > static_cast<std::uint64_t>(end - p)) throw Error("codec: count exceeds payload");
    return n;
  }
  std::uint8_t byte() {
    if (p == end) throw Error("codec: truncated payload");
    return *p++;
  }
};

// --- frame checksum and fixed-width fields -----------------------------------

inline std::uint64_t fnv1a64(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline void put_u32le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_u64le(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline std::uint32_t read_u32le(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

inline std::uint64_t read_u64le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

inline constexpr std::size_t kFrameHeader = 4 + 8;  // len + checksum

inline std::vector<std::uint8_t> frame(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeader + payload.size());
  put_u32le(out, static_cast<std::uint32_t>(payload.size()));
  put_u64le(out, fnv1a64(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

// --- subscription ------------------------------------------------------------

inline void put_subscription(std::vector<std::uint8_t>& out, const subscription& s) {
  put_varint(out, static_cast<std::uint64_t>(s.attribute_count()));
  for (int i = 0; i < s.attribute_count(); ++i) {
    put_varint(out, s.range(i).lo);
    // Gap-code the closed range: hi >= lo always, and narrow constraints
    // (the common case) shrink to one-byte deltas.
    put_varint(out, s.range(i).hi - s.range(i).lo);
  }
}

template <class Error>
subscription read_subscription(basic_byte_reader<Error>& in) {
  const auto n = in.varint();
  if (n > 1024) throw Error("codec: absurd attribute count");
  std::vector<attr_range> ranges;
  ranges.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    attr_range r;
    r.lo = in.varint();
    const std::uint64_t delta = in.varint();
    if (delta > ~std::uint64_t{0} - r.lo) throw Error("codec: attribute range wraps");
    r.hi = r.lo + delta;
    ranges.push_back(r);
  }
  // Bypass schema validation: the ranges were validated when first accepted,
  // and neither the WAL nor the wire stores the owner's schema.
  return subscription::from_raw_ranges(std::move(ranges));
}

inline void put_id_sub_list(std::vector<std::uint8_t>& out,
                            const std::vector<std::pair<sub_id, subscription>>& subs) {
  put_varint(out, subs.size());
  for (const auto& [id, s] : subs) {
    put_varint(out, id);
    put_subscription(out, s);
  }
}

template <class Error>
std::vector<std::pair<sub_id, subscription>> read_id_sub_list(basic_byte_reader<Error>& in) {
  const auto n = in.count();
  std::vector<std::pair<sub_id, subscription>> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const sub_id id = in.varint();
    out.emplace_back(id, read_subscription(in));
  }
  return out;
}

}  // namespace subcover::codec
