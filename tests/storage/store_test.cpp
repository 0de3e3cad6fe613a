// NodeStore's kPerAppend group commit: appends only mark the store
// pending, one commit() makes every record so far durable, and any sync
// of the open segment (a drop record's) serves as that commit.
#include "storage/store.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "obs/hub.hpp"
#include "storage/backend.hpp"
#include "storage/recovery.hpp"
#include "storage/snapshot.hpp"

namespace clash::storage {
namespace {

constexpr unsigned kWidth = 8;

class GroupCommit : public ::testing::Test {
 protected:
  void SetUp() override { start(NodeStore::Config{}.segment_bytes); }

  /// A kPerAppend store over `backend_` whose group `group_` has a
  /// durable baseline at seq 0, so recovery replays its records.
  void start(std::uint64_t segment_bytes) {
    NodeStore::Config cfg;
    cfg.fsync = ClashConfig::FsyncPolicy::kPerAppend;
    cfg.segment_bytes = segment_bytes;
    store_ = std::make_unique<NodeStore>(backend_, cfg);
    store_->set_obs(&hub_, 0);
    SnapshotImage baseline;
    baseline.group = group_;
    baseline.head = repl::LogHead{1, 0};
    ASSERT_GT(store_->write_snapshot(baseline), 0u);
  }

  void append(std::uint64_t from, std::uint64_t to) {
    for (std::uint64_t seq = from; seq <= to; ++seq) {
      (void)store_->append_op(
          group_, repl::LogHead{1, seq},
          repl::LogOp::put_stream(StreamInfo{
              ClientId{seq}, Key(seq & 0xFF, kWidth), 1.0}),
          SimTime{0});
    }
  }

  [[nodiscard]] std::uint64_t fsyncs() {
    return hub_.registry.histogram("clash_wal_fsync_usec").raw()->count();
  }

  /// Power-cut the backend and recover the group's image.
  RecoveredImage crash(MemBackend::CrashFault fault) {
    backend_.set_crash_fault(fault);
    backend_.crash();
    return recover_image(backend_, "wal", "snap");
  }

  MemBackend backend_;
  obs::Hub hub_;  // outlives the store that counts into it
  std::unique_ptr<NodeStore> store_;
  const KeyGroup group_ = KeyGroup::root(kWidth);
};

TEST_F(GroupCommit, CrashBeforeCommitLosesOnlyTheUncommittedSuffix) {
  append(1, 4);
  store_->commit(SimTime{0});
  append(5, 7);
  EXPECT_TRUE(store_->commit_pending());
  const auto image = crash({.drop_unsynced = true});
  ASSERT_EQ(image.groups.count(group_), 1u);
  EXPECT_EQ(image.groups.at(group_).head, (repl::LogHead{1, 4}));
  EXPECT_EQ(image.stats.torn_tails, 0u);
}

TEST_F(GroupCommit, TornUncommittedRecordStopsRecoveryAtTheLastWholeOne) {
  append(1, 4);
  store_->commit(SimTime{0});
  append(5, 7);
  // The page cache kept the uncommitted suffix, but the power cut tore
  // its last record.
  const auto image = crash({.torn_tail_bytes = 3});
  ASSERT_EQ(image.groups.count(group_), 1u);
  EXPECT_EQ(image.groups.at(group_).head, (repl::LogHead{1, 6}));
  EXPECT_EQ(image.stats.torn_tails, 1u);
}

TEST_F(GroupCommit, CrashAfterCommitLosesNothing) {
  append(1, 7);
  store_->commit(SimTime{0});
  EXPECT_FALSE(store_->commit_pending());
  const auto image = crash({.drop_unsynced = true});
  ASSERT_EQ(image.groups.count(group_), 1u);
  EXPECT_EQ(image.groups.at(group_).head, (repl::LogHead{1, 7}));
}

TEST_F(GroupCommit, BatchThatRollsSegmentsIsDurableAfterOneCommit) {
  store_.reset();
  start(256);  // a few records per segment
  append(1, 40);
  ASSERT_GT(backend_.list("wal").size(), 2u) << "the batch must roll";
  EXPECT_EQ(fsyncs(), 0u);
  store_->commit(SimTime{0});
  EXPECT_EQ(fsyncs(), 1u);
  const auto image = crash({.drop_unsynced = true});
  ASSERT_EQ(image.groups.count(group_), 1u);
  EXPECT_EQ(image.groups.at(group_).head, (repl::LogHead{1, 40}));
}

TEST_F(GroupCommit, DropGroupSyncServesAsTheCommit) {
  append(1, 3);
  store_->drop_group(KeyGroup::of(Key(0x80, kWidth), 1), 1, SimTime{0});
  EXPECT_FALSE(store_->commit_pending());
  EXPECT_EQ(fsyncs(), 1u);
  store_->commit(SimTime{0});
  EXPECT_EQ(fsyncs(), 1u) << "nothing pending: no second fsync";
  const auto image = crash({.drop_unsynced = true});
  ASSERT_EQ(image.groups.count(group_), 1u);
  EXPECT_EQ(image.groups.at(group_).head, (repl::LogHead{1, 3}));
}

}  // namespace
}  // namespace clash::storage
