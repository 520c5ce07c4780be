#include "broker/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "broker/codec.h"
#include "pubsub/parser.h"
#include "util/random.h"
#include "workload/subscription_gen.h"

namespace subcover {
namespace {

schema two_attr_schema() { return workload::make_uniform_schema(2, 8); }

// One message of every type, each exercising its full field set:
// multi-byte varints, negative sender ids, empty and non-empty id lists,
// subscription bodies, snapshot blobs, and a metrics struct with the
// physical TCP counters populated.
std::vector<wire_msg> sample_messages(const schema& s) {
  std::vector<wire_msg> msgs;

  wire_msg hello;
  hello.type = msg_type::hello;
  hello.sender = 7;
  msgs.push_back(hello);

  wire_msg hb;
  hb.type = msg_type::heartbeat;
  msgs.push_back(hb);

  wire_msg sub;
  sub.type = msg_type::subscribe;
  sub.op = (std::uint64_t{3} << 40) | 17;  // high-bits op ids are the norm
  sub.seq = 2;
  sub.id = 300;
  sub.body = parse_subscription(s, "attr0 <= 100, attr1 >= 3");
  msgs.push_back(sub);

  wire_msg unsub;
  unsub.type = msg_type::unsubscribe;
  unsub.op = (std::uint64_t{1} << 40) | 5;
  unsub.seq = 0;
  unsub.id = 42;
  msgs.push_back(unsub);

  wire_msg pub;
  pub.type = msg_type::publish;
  pub.op = (std::uint64_t{2} << 40) | 9;
  pub.seq = 1;
  pub.values = {0, 255, 123456789012345ULL};
  msgs.push_back(pub);

  wire_msg ack;
  ack.type = msg_type::ack;
  ack.op = pub.op;
  ack.seq = 1;
  ack.delivered = {3, 17, 17, 400};  // ascending with a duplicate id
  msgs.push_back(ack);

  wire_msg csub;
  csub.type = msg_type::client_subscribe;
  csub.id = 88;
  csub.body = parse_subscription(s, "attr1 >= 9");
  msgs.push_back(csub);

  wire_msg cunsub;
  cunsub.type = msg_type::client_unsubscribe;
  cunsub.id = 88;
  msgs.push_back(cunsub);

  wire_msg cpub;
  cpub.type = msg_type::client_publish;
  cpub.values = {9, 9};
  msgs.push_back(cpub);

  wire_msg done;
  done.type = msg_type::client_done;
  done.op = (std::uint64_t{1} << 40) | 6;
  done.status = 1;
  done.delivered = {};
  msgs.push_back(done);

  wire_msg dump;
  dump.type = msg_type::client_dump;
  msgs.push_back(dump);

  wire_msg reply;
  reply.type = msg_type::dump_reply;
  reply.snapshot = {0xde, 0xad, 0xbe, 0xef, 0x00};
  reply.metrics.subscription_messages = 12;
  reply.metrics.deliveries = 3;
  reply.metrics.covering_check_ns = 123456789ULL;
  reply.metrics.reconnects = 2;
  reply.metrics.heartbeats_missed = 1;
  reply.metrics.bytes_on_wire = 987654321ULL;
  reply.metrics.partial_writes = 4;
  msgs.push_back(reply);

  wire_msg shutdown;
  shutdown.type = msg_type::client_shutdown;
  msgs.push_back(shutdown);

  return msgs;
}

TEST(WireTest, RoundTripEveryMessageType) {
  const schema s = two_attr_schema();
  for (const auto& m : sample_messages(s)) {
    const auto framed = frame_msg(m);
    frame_decoder dec;
    dec.feed(framed.data(), framed.size());
    const auto payload = dec.next();
    ASSERT_TRUE(payload.has_value()) << "type " << static_cast<int>(m.type);
    const wire_msg back = decode_msg(payload->data(), payload->size());
    EXPECT_EQ(back.type, m.type);
    // Canonical-encoding equality covers every field at once.
    EXPECT_EQ(encode_msg(back), encode_msg(m)) << "type " << static_cast<int>(m.type);
    EXPECT_FALSE(dec.next().has_value());
    EXPECT_EQ(dec.buffered(), 0u);
  }
}

TEST(WireTest, TruncatedFrameYieldsNulloptUntilComplete) {
  const schema s = two_attr_schema();
  wire_msg m;
  m.type = msg_type::client_subscribe;
  m.id = 5;
  m.body = parse_subscription(s, "attr0 <= 10");
  const auto framed = frame_msg(m);

  frame_decoder dec;
  for (std::size_t i = 0; i + 1 < framed.size(); ++i) {
    dec.feed(&framed[i], 1);
    EXPECT_FALSE(dec.next().has_value()) << "after " << (i + 1) << " bytes";
  }
  dec.feed(&framed[framed.size() - 1], 1);
  const auto payload = dec.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(encode_msg(decode_msg(payload->data(), payload->size())), encode_msg(m));
}

TEST(WireTest, ConcatenatedFramesArriveInOrderUnderArbitraryChunking) {
  const schema s = two_attr_schema();
  const auto msgs = sample_messages(s);
  std::vector<std::uint8_t> stream;
  for (const auto& m : msgs) {
    const auto f = frame_msg(m);
    stream.insert(stream.end(), f.begin(), f.end());
  }

  rng r(41);
  for (int trial = 0; trial < 20; ++trial) {
    frame_decoder dec;
    std::size_t fed = 0;
    std::size_t decoded = 0;
    while (fed < stream.size()) {
      const auto chunk =
          std::min(stream.size() - fed, static_cast<std::size_t>(r.uniform(1, 40)));
      dec.feed(stream.data() + fed, chunk);
      fed += chunk;
      while (const auto payload = dec.next()) {
        ASSERT_LT(decoded, msgs.size());
        EXPECT_EQ(*payload, encode_msg(msgs[decoded]));
        ++decoded;
      }
    }
    EXPECT_EQ(decoded, msgs.size());
    EXPECT_EQ(dec.buffered(), 0u);
  }
}

// The contract the transport relies on: a corrupted frame is *detected* —
// the decoder may throw or may wait for more bytes, but it must never hand
// back a payload different from what was sent.
TEST(WireTest, SingleBitFlipsNeverYieldAWrongPayload) {
  const schema s = two_attr_schema();
  wire_msg m;
  m.type = msg_type::subscribe;
  m.op = (std::uint64_t{2} << 40) | 3;
  m.seq = 4;
  m.id = 77;
  m.body = parse_subscription(s, "attr0 <= 100, attr1 >= 3");
  const auto framed = frame_msg(m);
  const auto original = encode_msg(m);

  for (std::size_t bit = 0; bit < framed.size() * 8; ++bit) {
    auto corrupt = framed;
    corrupt[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    frame_decoder dec;
    dec.feed(corrupt.data(), corrupt.size());
    try {
      const auto payload = dec.next();
      if (payload.has_value()) {
        // Only acceptable if the flip somehow produced the original bytes
        // back — which a single flip cannot — so this must never happen.
        EXPECT_EQ(*payload, original) << "bit " << bit << " produced a wrong payload";
      }
      // nullopt is fine: the flip enlarged the length header and the
      // decoder is (correctly) waiting for bytes that will never come.
    } catch (const wire_error&) {
      // Detected: checksum mismatch or over-length header.
    }
  }
}

TEST(WireTest, OverLengthHeaderThrowsAndPoisons) {
  std::vector<std::uint8_t> bytes;
  codec::put_u32le(bytes, static_cast<std::uint32_t>(kMaxWirePayload + 1));
  codec::put_u64le(bytes, 0);
  frame_decoder dec;
  dec.feed(bytes.data(), bytes.size());
  EXPECT_THROW((void)dec.next(), wire_error);
  // Poisoned: the stream position is unrecoverable, every later call throws.
  EXPECT_THROW((void)dec.next(), wire_error);
  const std::uint8_t more = 0;
  dec.feed(&more, 1);
  EXPECT_THROW((void)dec.next(), wire_error);
}

TEST(WireTest, ResyncAfterCorruptionIsAFreshDecoder) {
  wire_msg hb;
  hb.type = msg_type::heartbeat;
  auto good = frame_msg(hb);

  auto corrupt = good;
  corrupt[corrupt.size() - 1] ^= 0x01;  // payload flip -> checksum mismatch

  frame_decoder dec;
  dec.feed(corrupt.data(), corrupt.size());
  dec.feed(good.data(), good.size());
  EXPECT_THROW((void)dec.next(), wire_error);
  EXPECT_THROW((void)dec.next(), wire_error);  // no partial state survives

  // Reconnect: the peer replays unacked frames into a fresh decoder.
  frame_decoder fresh;
  fresh.feed(good.data(), good.size());
  const auto payload = fresh.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(decode_msg(payload->data(), payload->size()).type, msg_type::heartbeat);
}

TEST(WireTest, DecodeRejectsUnknownTypeAndTrailingBytes) {
  const std::uint8_t zero = 0;
  EXPECT_THROW((void)decode_msg(&zero, 1), wire_error);
  const std::uint8_t beyond = 14;
  EXPECT_THROW((void)decode_msg(&beyond, 1), wire_error);
  EXPECT_THROW((void)decode_msg(nullptr, 0), wire_error);  // truncated type byte

  wire_msg hb;
  hb.type = msg_type::heartbeat;
  auto bytes = encode_msg(hb);
  bytes.push_back(0x00);
  EXPECT_THROW((void)decode_msg(bytes.data(), bytes.size()), wire_error);
}

// Seeded garbage: random byte streams fed in random chunks must never
// crash, hang, or return a payload that then corrupts decode_msg's state —
// only clean nullopt / wire_error outcomes (run under ASan/UBSan in CI).
TEST(WireTest, RandomGarbageNeverCrashes) {
  rng r(1234);
  for (int trial = 0; trial < 300; ++trial) {
    const auto len = static_cast<std::size_t>(r.uniform(0, 512));
    std::vector<std::uint8_t> garbage(len);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(r.uniform(0, 255));

    frame_decoder dec;
    std::size_t fed = 0;
    bool dead = false;
    while (fed < garbage.size() && !dead) {
      const auto chunk =
          std::min(garbage.size() - fed, static_cast<std::size_t>(r.uniform(1, 64)));
      dec.feed(garbage.data() + fed, chunk);
      fed += chunk;
      try {
        while (const auto payload = dec.next()) {
          // A checksum collision on random bytes is effectively impossible,
          // but if a payload does surface, decoding it must still be safe.
          try {
            (void)decode_msg(payload->data(), payload->size());
          } catch (const wire_error&) {
          }
        }
      } catch (const wire_error&) {
        dead = true;  // connection would be dropped here
      }
    }
  }
}

// Valid streams with random byte mutations: the decoder either delivers
// the untouched prefix frames verbatim or dies with wire_error — it never
// invents a frame that was not sent.
TEST(WireTest, MutatedValidStreamsDetectOrDeliverVerbatim) {
  const schema s = two_attr_schema();
  const auto msgs = sample_messages(s);
  std::vector<std::uint8_t> stream;
  std::vector<std::vector<std::uint8_t>> expected;
  for (const auto& m : msgs) {
    const auto f = frame_msg(m);
    stream.insert(stream.end(), f.begin(), f.end());
    expected.push_back(encode_msg(m));
  }

  rng r(99);
  for (int trial = 0; trial < 200; ++trial) {
    auto mutated = stream;
    const int flips = static_cast<int>(r.uniform(1, 4));
    for (int i = 0; i < flips; ++i) {
      const auto at = r.index(mutated.size());
      mutated[at] = static_cast<std::uint8_t>(r.uniform(0, 255));
    }

    frame_decoder dec;
    dec.feed(mutated.data(), mutated.size());
    std::size_t decoded = 0;
    try {
      while (const auto payload = dec.next()) {
        ASSERT_LT(decoded, expected.size());
        EXPECT_EQ(*payload, expected[decoded]) << "trial " << trial;
        ++decoded;
      }
    } catch (const wire_error&) {
      // Mutation detected mid-stream; everything delivered before it was
      // checked verbatim above.
    }
  }
}

// Ids lists carry their element count up front. A count larger than the
// bytes left in the payload is corrupt and must surface as wire_error — not
// as the std::length_error / std::bad_alloc a reserve() of that size throws,
// which the transport's read loop does not catch.
TEST(WireTest, InflatedIdListCountThrowsWireError) {
  const auto huge = std::uint64_t{1} << 62;
  std::vector<std::uint8_t> ack = {static_cast<std::uint8_t>(msg_type::ack), 1, 1};
  codec::put_varint(ack, huge);
  EXPECT_THROW((void)decode_msg(ack.data(), ack.size()), wire_error);

  std::vector<std::uint8_t> done = {static_cast<std::uint8_t>(msg_type::client_done), 1, 0};
  codec::put_varint(done, huge);
  EXPECT_THROW((void)decode_msg(done.data(), done.size()), wire_error);

  // One more than the bytes that follow is already too many...
  std::vector<std::uint8_t> short_ack = {static_cast<std::uint8_t>(msg_type::ack), 1, 1, 3, 5, 5};
  EXPECT_THROW((void)decode_msg(short_ack.data(), short_ack.size()), wire_error);
  // ...while a count that fits decodes.
  short_ack[3] = 2;
  EXPECT_EQ(decode_msg(short_ack.data(), short_ack.size()).delivered,
            (std::vector<sub_id>{5, 10}));
}

TEST(WireTest, WrappingRangeDeltaThrowsWireError) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  // subscribe: op, seq, id, then one attribute [lo = 5, hi = lo + delta].
  const std::vector<std::uint8_t> head = {static_cast<std::uint8_t>(msg_type::subscribe),
                                          1, 0, 42, 1, 5};
  std::vector<std::uint8_t> wraps = head;
  codec::put_varint(wraps, kMax);  // hi would wrap to 4
  EXPECT_THROW((void)decode_msg(wraps.data(), wraps.size()), wire_error);

  std::vector<std::uint8_t> fits = head;
  codec::put_varint(fits, kMax - 5);  // hi == 2^64 - 1 exactly
  EXPECT_EQ(decode_msg(fits.data(), fits.size()).body.range(0), (attr_range{5, kMax}));

  // The full range [0, 2^64 - 1] still round-trips.
  wire_msg full;
  full.type = msg_type::subscribe;
  full.body = subscription::from_raw_ranges({{0, kMax}, {7, 7}});
  const auto bytes = encode_msg(full);
  EXPECT_EQ(decode_msg(bytes.data(), bytes.size()).body, full.body);
}

// decode_msg on payloads the frame checksum would have rejected: every
// sample payload truncated at every length, with a huge varint spliced in
// at every byte (inflating whatever count or field sits there), and with
// seeded random byte rewrites. Only wire_error may escape (CI runs this
// under ASan/UBSan too).
TEST(WireTest, MutatedPayloadsThrowOnlyWireError) {
  const schema s = two_attr_schema();
  std::size_t rejected = 0;
  std::size_t decoded = 0;
  const auto check = [&](const std::vector<std::uint8_t>& payload, const std::string& what) {
    try {
      (void)decode_msg(payload.data(), payload.size());
      ++decoded;
    } catch (const wire_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": " << e.what();
    }
  };
  rng r(2718);
  for (const auto& m : sample_messages(s)) {
    const auto payload = encode_msg(m);
    const std::string type = std::to_string(static_cast<int>(m.type));
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      check(std::vector<std::uint8_t>(payload.begin(), payload.begin() + cut),
            "type " + type + " cut " + std::to_string(cut));
    }
    for (std::size_t at = 0; at < payload.size(); ++at) {
      for (const std::uint64_t big : {std::uint64_t{1} << 62, std::uint64_t{1} << 35,
                                      std::uint64_t{payload.size()}}) {
        std::vector<std::uint8_t> inflated(payload.begin(), payload.begin() + at);
        codec::put_varint(inflated, big);
        inflated.insert(inflated.end(), payload.begin() + at + 1, payload.end());
        check(inflated, "type " + type + " inflate at " + std::to_string(at));
      }
    }
    for (int trial = 0; trial < 200; ++trial) {
      auto mutated = payload;
      const int flips = static_cast<int>(r.uniform(1, 4));
      for (int i = 0; i < flips; ++i)
        mutated[r.index(mutated.size())] = static_cast<std::uint8_t>(r.uniform(0, 255));
      check(mutated, "type " + type + " trial " + std::to_string(trial));
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(decoded, 0u);
}

}  // namespace
}  // namespace subcover
