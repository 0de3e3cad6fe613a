// WAL edge cases: torn tail mid-record, CRC-corrupt rejection, segment
// rollover boundaries, and truncation past the snapshot floor.
#include "storage/wal.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "keys/key_group.hpp"
#include "storage/backend.hpp"

namespace clash::storage {
namespace {

constexpr unsigned kWidth = 8;

KeyGroup group_at(std::uint64_t bits, unsigned depth) {
  return KeyGroup::of(Key(bits, kWidth), depth);
}

repl::LogOp stream_op(std::uint64_t source, std::uint64_t key, double rate) {
  return repl::LogOp::put_stream(StreamInfo{ClientId{source},
                                            Key(key, kWidth), rate});
}

std::vector<WalRecord> scan_all(Backend& backend, const std::string& dir,
                                ScanResult* last = nullptr) {
  std::vector<WalRecord> records;
  for (const auto& path : backend.list(dir)) {
    std::vector<std::uint8_t> data;
    EXPECT_TRUE(backend.read_file(path, data));
    const auto result = scan_wal_segment(
        data, [&records](const WalRecord& r) { records.push_back(r); });
    if (last != nullptr) *last = result;
  }
  return records;
}

TEST(WalTest, RecordsRoundTripInOrder) {
  MemBackend backend;
  Wal wal(backend, Wal::Config{}, 0);
  const KeyGroup g = group_at(0x12, 4);
  ASSERT_TRUE(wal.append_op(g, repl::LogHead{3, 1}, stream_op(7, 0x12, 2.5)));
  ASSERT_TRUE(wal.append_op(g, repl::LogHead{3, 2},
                            repl::LogOp::del_stream(ClientId{7})));
  ASSERT_TRUE(wal.append_drop(g, 3));

  ScanResult last;
  const auto records = scan_all(backend, "wal", &last);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(last.end, ScanEnd::kClean);
  EXPECT_EQ(records[0].kind, RecordKind::kOp);
  EXPECT_EQ(records[0].group, g);
  EXPECT_EQ(records[0].head, (repl::LogHead{3, 1}));
  EXPECT_EQ(records[0].op.kind, repl::OpKind::kPutStream);
  EXPECT_EQ(records[0].op.stream.source.value, 7u);
  EXPECT_DOUBLE_EQ(records[0].op.stream.rate, 2.5);
  EXPECT_EQ(records[1].op.kind, repl::OpKind::kDelStream);
  EXPECT_EQ(records[2].kind, RecordKind::kDrop);
  EXPECT_EQ(records[2].head.epoch, 3u);
}

TEST(WalTest, TornTailTruncatesToLastCompleteRecord) {
  MemBackend backend;
  Wal wal(backend, Wal::Config{}, 0);
  const KeyGroup g = group_at(0x01, 2);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    ASSERT_TRUE(
        wal.append_op(g, repl::LogHead{1, seq}, stream_op(seq, 0x01, 1.0)));
  }
  // Power cut mid-write of the third record: a few bytes vanish.
  backend.set_crash_fault(MemBackend::CrashFault{false, 5});
  backend.crash();

  ScanResult last;
  const auto records = scan_all(backend, "wal", &last);
  EXPECT_EQ(last.end, ScanEnd::kTornTail);
  ASSERT_EQ(records.size(), 2u);  // exactly the complete prefix
  EXPECT_EQ(records.back().head.seq, 2u);
}

TEST(WalTest, TornFrameHeaderAlsoTruncatesCleanly) {
  MemBackend backend;
  Wal wal(backend, Wal::Config{}, 0);
  const KeyGroup g = group_at(0x01, 2);
  ASSERT_TRUE(wal.append_op(g, repl::LogHead{1, 1}, stream_op(1, 0x01, 1.0)));
  const auto frame = encode_wal_record(WalRecord{
      RecordKind::kOp, g, repl::LogHead{1, 2}, stream_op(2, 0x01, 1.0)});
  ASSERT_TRUE(wal.append_op(g, repl::LogHead{1, 2}, stream_op(2, 0x01, 1.0)));
  // Cut so deep that even the second record's 8-byte frame header is
  // partial.
  backend.set_crash_fault(
      MemBackend::CrashFault{false, std::uint32_t(frame.size() - 3)});
  backend.crash();

  ScanResult last;
  const auto records = scan_all(backend, "wal", &last);
  EXPECT_EQ(last.end, ScanEnd::kTornTail);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].head.seq, 1u);
}

TEST(WalTest, CrcCorruptRecordFencesTheRestOfTheSegment) {
  MemBackend backend;
  Wal wal(backend, Wal::Config{}, 0);
  const KeyGroup g = group_at(0x02, 3);
  const auto first = encode_wal_record(WalRecord{
      RecordKind::kOp, g, repl::LogHead{1, 1}, stream_op(1, 0x02, 1.0)});
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    ASSERT_TRUE(
        wal.append_op(g, repl::LogHead{1, seq}, stream_op(seq, 0x02, 1.0)));
  }
  // Bit-rot inside the SECOND record's payload.
  ASSERT_TRUE(
      backend.corrupt(Wal::segment_path("wal", 0), first.size() + 12, 0x40));

  ScanResult last;
  const auto records = scan_all(backend, "wal", &last);
  EXPECT_EQ(last.end, ScanEnd::kCorrupt);
  // Only the record before the damage is trusted; the third record
  // sits past unverifiable bytes and must NOT be replayed.
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].head.seq, 1u);
}

TEST(WalTest, SegmentRolloverSplitsAtRecordBoundaries) {
  MemBackend backend;
  Wal::Config cfg;
  cfg.segment_bytes = 96;  // a handful of records per segment
  Wal wal(backend, cfg, 0);
  const KeyGroup g = group_at(0x03, 4);
  for (std::uint64_t seq = 1; seq <= 20; ++seq) {
    ASSERT_TRUE(
        wal.append_op(g, repl::LogHead{1, seq}, stream_op(seq, 0x03, 1.0)));
  }
  const auto segments = backend.list("wal");
  EXPECT_GT(segments.size(), 2u);
  // Every record survives the boundaries, in order.
  ScanResult last;
  const auto records = scan_all(backend, "wal", &last);
  EXPECT_EQ(last.end, ScanEnd::kClean);
  ASSERT_EQ(records.size(), 20u);
  for (std::uint64_t seq = 1; seq <= 20; ++seq) {
    EXPECT_EQ(records[seq - 1].head.seq, seq);
  }
}

TEST(WalTest, TruncationReclaimsOnlyCoveredPrefixSegments) {
  MemBackend backend;
  Wal::Config cfg;
  cfg.segment_bytes = 96;
  Wal wal(backend, cfg, 0);
  const KeyGroup g = group_at(0x04, 4);
  for (std::uint64_t seq = 1; seq <= 20; ++seq) {
    ASSERT_TRUE(
        wal.append_op(g, repl::LogHead{1, seq}, stream_op(seq, 0x04, 1.0)));
  }
  const auto before = backend.list("wal").size();
  ASSERT_GT(before, 2u);

  // Snapshot floor at seq 5: only segments whose records all sit at or
  // below it may go.
  const auto deleted_low = wal.truncate_covered(
      [](const KeyGroup&, repl::LogHead tail) {
        return tail <= repl::LogHead{1, 5};
      });
  EXPECT_GT(deleted_low, 0u);
  ScanResult last;
  auto records = scan_all(backend, "wal", &last);
  ASSERT_FALSE(records.empty());
  // Every record past the floor survived, contiguously.
  EXPECT_LE(records.front().head.seq, 6u);
  EXPECT_EQ(records.back().head.seq, 20u);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i].head.seq, records[i - 1].head.seq + 1);
  }

  // Floor at the head: every closed segment is reclaimable (the open
  // one stays).
  const auto deleted_rest = wal.truncate_covered(
      [](const KeyGroup&, repl::LogHead) { return true; });
  EXPECT_LE(backend.list("wal").size(), 1u);
  EXPECT_GT(deleted_rest, 0u);
}

TEST(WalTest, DropUnsyncedLosesOnlyTheUnsyncedSuffix) {
  MemBackend backend;
  Wal wal(backend, Wal::Config{}, 0);
  const KeyGroup g = group_at(0x05, 4);
  ASSERT_TRUE(wal.append_op(g, repl::LogHead{1, 1}, stream_op(1, 0x05, 1.0)));
  ASSERT_TRUE(wal.append_op(g, repl::LogHead{1, 2}, stream_op(2, 0x05, 1.0)));
  ASSERT_EQ(wal.sync(), Wal::SyncResult::kSynced);
  ASSERT_TRUE(wal.append_op(g, repl::LogHead{1, 3}, stream_op(3, 0x05, 1.0)));

  backend.set_crash_fault(MemBackend::CrashFault{true, 0});
  backend.crash();

  ScanResult last;
  const auto records = scan_all(backend, "wal", &last);
  EXPECT_EQ(last.end, ScanEnd::kClean);  // sync is a record boundary
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records.back().head.seq, 2u);
}

}  // namespace
}  // namespace clash::storage
