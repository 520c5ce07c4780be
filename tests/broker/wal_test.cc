#include "broker/wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "broker/codec.h"
#include "pubsub/parser.h"
#include "workload/subscription_gen.h"

namespace subcover {
namespace {

schema two_attr_schema() { return workload::make_uniform_schema(2, 8); }

// One record of each kind, exercising every field: negative link ids
// (kLocalLink is zigzag-coded), empty and multi-element link lists, and
// reforwards carrying full subscription bodies.
std::vector<wal_record> sample_records(const schema& s) {
  wal_record sub;
  sub.k = wal_record::kind::subscribe;
  sub.op = 7;
  sub.from = kLocalLink;
  sub.seq = 0;
  sub.id = 42;
  sub.body = parse_subscription(s, "attr0 <= 100, attr1 >= 3");
  sub.forwarded_links = {0, 2, 5};

  wal_record unsub;
  unsub.k = wal_record::kind::unsubscribe;
  unsub.op = 8;
  unsub.from = 3;
  unsub.seq = 11;
  unsub.id = 42;
  unsub.withdrawn_links = {2};
  unsub.reforwards = {
      {2, {17, parse_subscription(s, "attr0 <= 50")}},
      {5, {19, parse_subscription(s, "attr1 >= 9")}},
  };

  wal_record receipt;
  receipt.k = wal_record::kind::event_receipt;
  receipt.op = 9;
  receipt.from = 1;
  receipt.seq = 123456789012345ULL;  // forces multi-byte varints

  return {sub, unsub, receipt};
}

broker_snapshot sample_snapshot(const schema& s) {
  broker_snapshot snap;
  snap.routing[kLocalLink] = {{1, parse_subscription(s, "attr0 >= 200")}};
  snap.routing[2] = {{3, parse_subscription(s, "attr0 <= 10")},
                     {9, parse_subscription(s, "attr1 >= 100, attr0 <= 80")}};
  snap.forwarded[0] = {{3, parse_subscription(s, "attr0 <= 10")}};
  snap.forwarded[4] = {};  // a link with an (empty) entry must survive too
  return snap;
}

TEST(Wal, RecordRoundTripAllKinds) {
  const schema s = two_attr_schema();
  broker_wal wal;
  const auto records = sample_records(s);
  for (const auto& r : records) wal.append(r);
  const auto rec = wal.recover();
  EXPECT_EQ(rec.records, records);
  EXPECT_EQ(rec.torn_bytes, 0U);
  EXPECT_EQ(rec.snapshot, broker_snapshot{});
  EXPECT_EQ(wal.records_since_snapshot(), records.size());
  EXPECT_EQ(wal.bytes_appended(), wal.log_store().size());
}

TEST(Wal, SnapshotRoundTrip) {
  const schema s = two_attr_schema();
  broker_wal wal;
  wal.append(sample_records(s)[0]);
  const auto snap = sample_snapshot(s);
  wal.write_snapshot(snap);
  // Compaction: the snapshot subsumes the log.
  EXPECT_EQ(wal.log_store().size(), 0U);
  EXPECT_EQ(wal.records_since_snapshot(), 0U);
  const auto rec = wal.recover();
  EXPECT_EQ(rec.snapshot, snap);
  EXPECT_TRUE(rec.records.empty());
  EXPECT_EQ(rec.torn_bytes, 0U);
}

TEST(Wal, SnapshotPlusLogTailRoundTrip) {
  const schema s = two_attr_schema();
  broker_wal wal;
  const auto records = sample_records(s);
  wal.write_snapshot(sample_snapshot(s));
  for (const auto& r : records) wal.append(r);
  const auto rec = wal.recover();
  EXPECT_EQ(rec.snapshot, sample_snapshot(s));
  EXPECT_EQ(rec.records, records);
}

TEST(Wal, EmptyStoresRecoverEmpty) {
  broker_wal wal;
  const auto rec = wal.recover();
  EXPECT_EQ(rec.snapshot, broker_snapshot{});
  EXPECT_TRUE(rec.records.empty());
  EXPECT_EQ(rec.torn_bytes, 0U);
}

TEST(Wal, TornTailToleratedAtEveryByteBoundary) {
  // A crash mid-append can cut the final record at any byte. Every cut
  // point must recover the intact prefix and report exactly the dropped
  // bytes — never throw, never lose an earlier record.
  const schema s = two_attr_schema();
  const auto records = sample_records(s);
  broker_wal full;
  for (const auto& r : records) full.append(r);
  const auto bytes = full.log_store().read_all();
  const auto last_len = encode_record(records.back()).size() + 12;  // frame header
  const auto keep = bytes.size() - last_len;  // offset where the final record starts
  for (std::size_t cut = keep; cut < bytes.size(); ++cut) {
    broker_wal torn;
    torn.log_store().replace(
        std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut)));
    const auto rec = torn.recover();
    ASSERT_EQ(rec.records.size(), records.size() - 1) << "cut at " << cut;
    EXPECT_EQ(rec.records[0], records[0]) << "cut at " << cut;
    EXPECT_EQ(rec.records[1], records[1]) << "cut at " << cut;
    EXPECT_EQ(rec.torn_bytes, cut - keep) << "cut at " << cut;
  }
}

TEST(Wal, ChecksumFailureKeepsIntactPrefixOnly) {
  // A corrupt record (here: a payload byte of the middle record flipped)
  // cannot be told apart from a torn append at that offset, so recovery
  // conservatively keeps only the records before it.
  const schema s = two_attr_schema();
  const auto records = sample_records(s);
  broker_wal full;
  for (const auto& r : records) full.append(r);
  auto bytes = full.log_store().read_all();
  const auto first_len = encode_record(records[0]).size() + 12;
  bytes[first_len + 12] ^= 0xFF;  // first payload byte of record 2
  broker_wal corrupt;
  corrupt.log_store().replace(bytes);
  const auto rec = corrupt.recover();
  ASSERT_EQ(rec.records.size(), 1U);
  EXPECT_EQ(rec.records[0], records[0]);
  EXPECT_EQ(rec.torn_bytes, bytes.size() - first_len);
}

TEST(Wal, CorruptSnapshotThrows) {
  // Snapshots are replaced atomically (temp file + rename), so a damaged
  // snapshot is store corruption, not a tolerable torn append.
  const schema s = two_attr_schema();
  for (const bool truncate : {false, true}) {
    broker_wal wal;
    wal.write_snapshot(sample_snapshot(s));
    auto bytes = wal.snapshot_store().read_all();
    if (truncate)
      bytes.pop_back();
    else
      bytes[bytes.size() / 2] ^= 0x01;
    wal.snapshot_store().replace(bytes);
    EXPECT_THROW((void)wal.recover(), wal_error) << "truncate=" << truncate;
  }
}

// A record whose checksum is valid but whose link-list count exceeds the
// payload is corruption: recover() must throw wal_error, not the
// std::length_error a reserve() of that count would throw.
TEST(Wal, InflatedRecordCountThrowsWalError) {
  const auto huge = std::uint64_t{1} << 62;
  // kind, op, from (zigzag), seq, id, then an empty subscription body.
  const std::vector<std::uint8_t> head = {1, 7, 0, 0, 42, 0};
  std::vector<std::uint8_t> sub = head;
  codec::put_varint(sub, huge);  // nlinks
  std::vector<std::uint8_t> withdrawn = {2, 8, 0, 0, 42};
  codec::put_varint(withdrawn, huge);  // withdrawn link count
  std::vector<std::uint8_t> reforwards = {2, 8, 0, 0, 42, 0};
  codec::put_varint(reforwards, huge);  // reforward count
  for (const auto& payload : {sub, withdrawn, reforwards}) {
    broker_wal wal;
    wal.log_store().replace(codec::frame(payload));
    EXPECT_THROW((void)wal.recover(), wal_error);
  }
}

TEST(Wal, WrappingRangeDeltaThrowsWalError) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  // kind, op, from (zigzag), seq, id, then one attribute [lo = 5, hi = lo +
  // delta] and no forwarded links.
  std::vector<std::uint8_t> payload = {1, 7, 0, 0, 42, 1, 5};
  codec::put_varint(payload, kMax);  // hi would wrap to 4
  payload.push_back(0);
  broker_wal wal;
  wal.log_store().replace(codec::frame(payload));
  EXPECT_THROW((void)wal.recover(), wal_error);

  // The full range [0, 2^64 - 1] still round-trips.
  wal_record full;
  full.k = wal_record::kind::subscribe;
  full.op = 7;
  full.from = kLocalLink;
  full.id = 42;
  full.body = subscription::from_raw_ranges({{0, kMax}});
  full.forwarded_links = {1};
  broker_wal ok;
  ok.append(full);
  EXPECT_EQ(ok.recover().records, std::vector<wal_record>{full});
}

TEST(Wal, FileStoreRoundTripAndCompaction) {
  const schema s = two_attr_schema();
  const std::string dir = ::testing::TempDir() + "subcover_wal_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto records = sample_records(s);
  {
    auto wal = broker_wal::in_directory(dir, 3);
    wal.append(records[0]);
    wal.write_snapshot(sample_snapshot(s));
    wal.append(records[1]);
    wal.append(records[2]);
  }
  // A fresh object over the same files (the restarted process) sees
  // everything the first one made durable.
  auto reopened = broker_wal::in_directory(dir, 3);
  const auto rec = reopened.recover();
  EXPECT_EQ(rec.snapshot, sample_snapshot(s));
  EXPECT_EQ(rec.records, (std::vector<wal_record>{records[1], records[2]}));
  EXPECT_EQ(rec.torn_bytes, 0U);
  // Brokers are isolated by id: a different broker's WAL in the same
  // directory is empty.
  auto other = broker_wal::in_directory(dir, 4);
  EXPECT_TRUE(other.recover().records.empty());
  std::filesystem::remove_all(dir);
}

TEST(Wal, FileStoreTornTailTolerated) {
  const schema s = two_attr_schema();
  const std::string dir = ::testing::TempDir() + "subcover_wal_torn";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto records = sample_records(s);
  {
    auto wal = broker_wal::in_directory(dir, 0);
    wal.append(records[0]);
    wal.append(records[1]);
  }
  {
    // Simulate the crash: chop the last 5 bytes off the on-disk log.
    auto wal = broker_wal::in_directory(dir, 0);
    auto bytes = wal.log_store().read_all();
    bytes.resize(bytes.size() - 5);
    wal.log_store().replace(bytes);
  }
  auto reopened = broker_wal::in_directory(dir, 0);
  const auto rec = reopened.recover();
  ASSERT_EQ(rec.records.size(), 1U);
  EXPECT_EQ(rec.records[0], records[0]);
  EXPECT_EQ(rec.torn_bytes, encode_record(records[1]).size() + 12 - 5);
  std::filesystem::remove_all(dir);
}

TEST(Wal, ConstructorRequiresBothStores) {
  EXPECT_THROW(broker_wal(nullptr, std::make_unique<memory_wal_store>()), std::logic_error);
  EXPECT_THROW(broker_wal(std::make_unique<memory_wal_store>(), nullptr), std::logic_error);
}

TEST(Wal, FsyncOptionChangesNoRecoveredBytes) {
  const schema s = two_attr_schema();
  const std::string base = ::testing::TempDir() + "subcover_wal_fsync";
  std::filesystem::remove_all(base);
  const auto records = sample_records(s);
  const std::vector<std::uint8_t> aux = {0xDE, 0xAD, 0xBE, 0xEF};

  // Write the same sequence through both durability policies; the on-disk
  // bytes (and hence everything recover() yields) must be identical —
  // fsync changes *when* bytes are durable, never *which* bytes.
  std::vector<std::uint8_t> log_bytes[2], snap_bytes[2];
  for (int i = 0; i < 2; ++i) {
    wal_options opts;
    opts.fsync_on_append = (i == 1);
    const std::string dir = base + "/" + std::to_string(i);
    auto wal = broker_wal::in_directory(dir, 7, opts);
    wal.write_snapshot(sample_snapshot(s), aux);
    for (const auto& r : records) wal.append(r);
    log_bytes[i] = wal.log_store().read_all();
    snap_bytes[i] = wal.snapshot_store().read_all();
    const auto rec = wal.recover();
    EXPECT_EQ(rec.snapshot, sample_snapshot(s));
    EXPECT_EQ(rec.aux, aux);
    EXPECT_EQ(rec.records, records);
  }
  EXPECT_EQ(log_bytes[0], log_bytes[1]);
  EXPECT_EQ(snap_bytes[0], snap_bytes[1]);
  std::filesystem::remove_all(base);
}

TEST(Wal, SnapshotAuxRoundTripAndAbsence) {
  const schema s = two_attr_schema();
  broker_wal wal;
  // No aux: the snapshot store holds exactly one frame (pre-aux format).
  wal.write_snapshot(sample_snapshot(s));
  const auto no_aux_bytes = wal.snapshot_store().read_all();
  EXPECT_TRUE(wal.recover().aux.empty());

  std::vector<std::uint8_t> aux(300);
  for (std::size_t i = 0; i < aux.size(); ++i) aux[i] = static_cast<std::uint8_t>(i * 7);
  wal.write_snapshot(sample_snapshot(s), aux);
  EXPECT_GT(wal.snapshot_store().read_all().size(), no_aux_bytes.size());
  const auto rec = wal.recover();
  EXPECT_EQ(rec.snapshot, sample_snapshot(s));
  EXPECT_EQ(rec.aux, aux);

  // A corrupt aux frame is store corruption (atomic replace => not a tear).
  auto bytes = wal.snapshot_store().read_all();
  bytes.back() ^= 0x01;
  wal.snapshot_store().replace(bytes);
  EXPECT_THROW((void)wal.recover(), wal_error);
  bytes.back() ^= 0x01;
  bytes.push_back(0x00);  // trailing garbage after the aux frame
  wal.snapshot_store().replace(bytes);
  EXPECT_THROW((void)wal.recover(), wal_error);
}

TEST(Wal, InDirectoryCreatesMissingDirectories) {
  const std::string base = ::testing::TempDir() + "subcover_wal_mkdir";
  std::filesystem::remove_all(base);
  const std::string dir = base + "/deeply/nested/wal";
  ASSERT_FALSE(std::filesystem::exists(dir));
  auto wal = broker_wal::in_directory(dir, 1);
  EXPECT_TRUE(std::filesystem::is_directory(dir));
  wal.append(sample_records(two_attr_schema())[0]);
  EXPECT_TRUE(std::filesystem::exists(dir + "/broker-1.log"));
  std::filesystem::remove_all(base);
}

TEST(Wal, InDirectoryRejectsLiveLockHolder) {
  const std::string dir = ::testing::TempDir() + "subcover_wal_lock";
  std::filesystem::remove_all(dir);
  auto first = broker_wal::in_directory(dir, 5);
  // Same broker id, same dir, while `first` lives: rejected, path named.
  try {
    auto second = broker_wal::in_directory(dir, 5);
    FAIL() << "expected wal_error for locked WAL dir";
  } catch (const wal_error& e) {
    EXPECT_NE(std::string(e.what()).find(dir + "/broker-5.lock"), std::string::npos)
        << e.what();
  }
  // A different broker id in the same dir is a different lock: fine.
  auto other = broker_wal::in_directory(dir, 6);
  std::filesystem::remove_all(dir);
}

TEST(Wal, InDirectoryLockReleasedWithOwner) {
  const std::string dir = ::testing::TempDir() + "subcover_wal_relock";
  std::filesystem::remove_all(dir);
  { auto wal = broker_wal::in_directory(dir, 2); }
  // flock dies with its descriptor, so the restarted "process" gets in.
  auto reopened = broker_wal::in_directory(dir, 2);
  std::filesystem::remove_all(dir);
}

TEST(Wal, InDirectoryNamesUncreatableDirectory) {
  // A path under a regular *file* cannot be created.
  const std::string file = ::testing::TempDir() + "subcover_wal_notadir";
  std::filesystem::remove_all(file);
  { std::ofstream(file) << "x"; }
  const std::string dir = file + "/sub";
  try {
    auto wal = broker_wal::in_directory(dir, 0);
    FAIL() << "expected wal_error for uncreatable directory";
  } catch (const wal_error& e) {
    EXPECT_NE(std::string(e.what()).find(dir), std::string::npos) << e.what();
  }
  std::filesystem::remove_all(file);
}

}  // namespace
}  // namespace subcover
