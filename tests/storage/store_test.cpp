// NodeStore's group commit. Driven directly, under kPerAppend: appends
// only mark the store pending, one commit() makes every record so far
// durable, and any sync of the open segment (a drop record's) serves as
// that commit. Driven by a server through dispatch ticks: a tick's
// records reach the WAL in one write at the tick's commit, activation
// baselines land before the first record after them, and compaction
// checkpoints wait for the WAL's next sync point.
#include "storage/store.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "clash/server.hpp"
#include "obs/hub.hpp"
#include "storage/backend.hpp"
#include "storage/recovery.hpp"
#include "storage/snapshot.hpp"
#include "storage/wal.hpp"

namespace clash::storage {
namespace {

constexpr unsigned kWidth = 8;

class GroupCommit : public ::testing::Test {
 protected:
  void SetUp() override { start(NodeStore::Config{}.segment_bytes); }

  /// A store (kPerAppend unless told otherwise) over `backend_` whose
  /// group `group_` has a durable baseline at seq 0, so recovery
  /// replays its records.
  void start(std::uint64_t segment_bytes,
             ClashConfig::FsyncPolicy fsync =
                 ClashConfig::FsyncPolicy::kPerAppend) {
    NodeStore::Config cfg;
    cfg.fsync = fsync;
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
  // Under kInterval a commit inside the interval writes its records
  // without syncing them.
  store_.reset();
  start(NodeStore::Config{}.segment_bytes,
        ClashConfig::FsyncPolicy::kInterval);
  const SimTime synced_at = ClashConfig::kFsyncInterval;
  append(1, 4);
  store_->commit(synced_at);
  append(5, 7);
  store_->commit(synced_at);
  // The page cache kept the unsynced suffix, but the power cut tore its
  // last record.
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

// --- Commits driven by a server's dispatch ticks -------------------------

/// A server env whose dispatch tick ends when the test says: deferred
/// work queues until end_tick() runs it, as ClashNode's loop runs it
/// after each tick.
class TickEnv final : public ServerEnv {
 public:
  dht::LookupResult dht_lookup(dht::HashKey) override {
    return dht::LookupResult{ServerId{0}, 0};
  }
  void send(ServerId, const Message&) override {}
  [[nodiscard]] SimTime now() const override { return t; }
  void defer(std::function<void()> fn) override {
    deferred.push_back(std::move(fn));
  }
  obs::Hub& obs() override { return hub; }

  void end_tick() {
    while (!deferred.empty()) {
      for (auto& fn : std::exchange(deferred, {})) fn();
    }
  }

  SimTime t{0};
  obs::Hub hub;
  std::vector<std::function<void()>> deferred;
};

/// A MemBackend that logs, in order, each snapshot file written and
/// each WAL write.
class LoggingBackend final : public Backend {
 public:
  std::vector<std::string> list(const std::string& dir) override {
    return mem.list(dir);
  }
  bool read_file(const std::string& path,
                 std::vector<std::uint8_t>& out) override {
    return mem.read_file(path, out);
  }
  using Backend::write_file_atomic;
  bool write_file_atomic(const std::string& path,
                         std::span<const std::uint8_t> data) override {
    log.push_back(path);
    return mem.write_file_atomic(path, data);
  }
  bool remove_file(const std::string& path) override {
    return mem.remove_file(path);
  }
  std::unique_ptr<AppendFile> open_append(const std::string& path) override {
    return std::make_unique<LoggedFile>(mem.open_append(path), log);
  }

  MemBackend mem;
  std::vector<std::string> log;  // snapshot paths, and "wal" per write

 private:
  class LoggedFile final : public AppendFile {
   public:
    LoggedFile(std::unique_ptr<AppendFile> inner,
               std::vector<std::string>& log)
        : inner_(std::move(inner)), log_(log) {}
    bool append(std::span<const std::uint8_t> data) override {
      log_.push_back("wal");
      return inner_->append(data);
    }
    bool sync() override { return inner_->sync(); }
    [[nodiscard]] std::uint64_t size() const override {
      return inner_->size();
    }

   private:
    std::unique_ptr<AppendFile> inner_;
    std::vector<std::string>& log_;
  };
};

/// One server owning the root group over a durable store on `backend`.
struct DurableServer {
  DurableServer(Backend& backend, ClashConfig::FsyncPolicy fsync,
                std::uint64_t segment_bytes = 1u << 20)
      : cfg(config(fsync, segment_bytes)),
        server(ServerId{0}, cfg, env,
               dht::KeyHasher(32, dht::KeyHasher::Algo::kMix64, 0)),
        store(backend, NodeStore::Config::from(cfg)) {
    store.set_obs(&env.hub, 0);
    server.set_storage(&store);
  }

  static ClashConfig config(ClashConfig::FsyncPolicy fsync,
                            std::uint64_t segment_bytes) {
    ClashConfig c;
    c.key_width = kWidth;
    c.initial_depth = 0;
    c.capacity = 1e9;
    c.durability_mode = ClashConfig::DurabilityMode::kWalSnapshot;
    c.fsync_policy = fsync;
    c.log_compact_threshold = 16;
    c.wal_segment_bytes = segment_bytes;
    return c;
  }

  void install() {
    ServerTableEntry entry;
    entry.group = group;
    entry.root = true;
    entry.active = true;
    server.install_entry(entry);
  }

  /// Puts of fresh sources [from, to): each adds one stream.
  void put(std::uint64_t from, std::uint64_t to) {
    for (std::uint64_t i = from; i < to; ++i) {
      AcceptObject obj;
      obj.key = Key(i & 0xFF, kWidth);
      obj.kind = ObjectKind::kData;
      obj.source = ClientId{i};
      obj.stream_rate = 1.0;
      const AcceptObjectReply reply = server.handle_accept_object(obj);
      ASSERT_TRUE(std::holds_alternative<AcceptObjectOk>(reply));
    }
  }

  [[nodiscard]] std::uint64_t counter(const char* name) {
    return env.hub.registry.counter_value(name);
  }
  [[nodiscard]] std::uint64_t fsyncs() {
    return env.hub.registry.histogram("clash_wal_fsync_usec").raw()->count();
  }

  const ClashConfig cfg;
  TickEnv env;  // outlives the store that counts into its hub
  ClashServer server;
  NodeStore store;
  const KeyGroup group = KeyGroup::root(kWidth);
};

TEST(DispatchCommit, PerAppendTickMakesOneWriteAndOneFsync) {
  MemBackend backend;
  DurableServer n(backend, ClashConfig::FsyncPolicy::kPerAppend);
  n.install();
  n.env.end_tick();
  const std::uint64_t writes = n.counter("clash_wal_writes_total");
  const std::uint64_t fsyncs = n.fsyncs();

  constexpr std::uint64_t kPuts = 12;  // under one compaction window
  n.put(0, kPuts);
  EXPECT_TRUE(n.store.commit_pending());
  EXPECT_EQ(n.counter("clash_wal_writes_total"), writes)
      << "records wait for the tick's commit";
  n.env.end_tick();
  EXPECT_FALSE(n.store.commit_pending());
  EXPECT_EQ(n.counter("clash_wal_records_total"), kPuts);
  EXPECT_EQ(n.counter("clash_wal_writes_total") - writes, 1u);
  EXPECT_EQ(n.fsyncs() - fsyncs, 1u);
}

TEST(DispatchCommit, IntervalTickMakesOneWriteAndNoFsyncBeforeTheInterval) {
  MemBackend backend;
  DurableServer n(backend, ClashConfig::FsyncPolicy::kInterval);
  n.install();
  n.env.end_tick();

  constexpr std::uint64_t kPuts = 12;
  n.env.t = SimTime::from_seconds(0.5);
  n.put(0, kPuts);
  EXPECT_TRUE(n.store.commit_pending()) << "the replies wait for the write";
  n.env.end_tick();
  EXPECT_EQ(n.counter("clash_wal_writes_total"), 1u);
  EXPECT_EQ(n.fsyncs(), 0u) << "the interval has not elapsed";

  // The load check's commit is the backstop once it has.
  n.env.t = SimTime::from_seconds(1.5);
  n.server.run_load_check();
  EXPECT_EQ(n.fsyncs(), 1u);
  EXPECT_EQ(n.counter("clash_wal_writes_total"), 1u);
}

TEST(DispatchCommit, UnpublishedCheckpointRecoversFromSnapshotAndSyncedWal) {
  // Small segments: the second tick rolls several, and a roll syncs the
  // segment it closes.
  MemBackend backend;
  backend.set_crash_fault({.drop_unsynced = true});
  DurableServer n(backend, ClashConfig::FsyncPolicy::kInterval, 512);
  n.install();
  n.env.end_tick();

  // A tick at a sync point: its compactions' checkpoint is published.
  constexpr std::uint64_t kPublished = 40;
  n.env.t = SimTime::from_seconds(2);
  n.put(0, kPublished);
  n.env.end_tick();
  const std::uint64_t snapshots = n.counter("clash_snapshot_writes_total");
  ASSERT_EQ(snapshots, 2u) << "the baseline and one checkpoint";

  // A tick inside the interval: it compacts twice more and rolls
  // segments, but publishes nothing.
  constexpr std::uint64_t kTotal = 100;
  n.env.t = SimTime::from_seconds(2.5);
  n.put(kPublished, kTotal);
  n.env.end_tick();
  EXPECT_EQ(n.counter("clash_snapshot_writes_total"), snapshots);
  EXPECT_EQ(n.fsyncs(), 1u);

  // Every segment but the open one is closed, and so synced: the ops
  // they hold must survive the crash.
  std::uint64_t synced = 0;
  const auto segments = backend.list("wal");
  ASSERT_GE(segments.size(), 2u);
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(backend.read_file(segments[i], bytes));
    (void)scan_wal_segment(bytes, [&synced](const WalRecord& rec) {
      synced = std::max(synced, rec.head.seq);
    });
  }
  ASSERT_GT(synced, kPublished) << "synced ops past the last snapshot";

  backend.crash();
  const auto image = recover_image(backend, "wal", "snap");
  ASSERT_EQ(image.groups.count(n.group), 1u);
  const RecoveredGroup& rec = image.groups.at(n.group);
  EXPECT_EQ(image.snapshot_floors.at(n.group).seq, kPublished);
  EXPECT_GE(rec.head.seq, synced) << "a synced op was lost";
  EXPECT_LT(rec.head.seq, kTotal) << "the open segment was never synced";
  EXPECT_EQ(rec.head.epoch, n.server.log_head(n.group)->epoch);
  // One fresh source per op: the replayed state is exactly the prefix.
  EXPECT_EQ(rec.state.streams.size(), rec.head.seq);
}

TEST(DispatchCommit, BaselineIsDurableBeforeTheFirstWalRecordAfterIt) {
  LoggingBackend backend;
  backend.mem.set_crash_fault({.drop_unsynced = true});
  DurableServer n(backend, ClashConfig::FsyncPolicy::kInterval);
  n.env.t = SimTime::from_seconds(0.5);  // no sync point in this tick
  n.install();
  n.put(0, 5);
  const std::string baseline = snapshot_path("snap", n.group);
  EXPECT_EQ(backend.log, (std::vector<std::string>{baseline}))
      << "the baseline lands with the first record still staged";
  n.env.end_tick();
  ASSERT_EQ(backend.log, (std::vector<std::string>{baseline, "wal"}))
      << "the tick's records follow in one write";

  // The records were written but never synced; the baseline was, at
  // the head of the first put, which the server had already applied.
  backend.mem.crash();
  const auto image = recover_image(backend.mem, "wal", "snap");
  ASSERT_EQ(image.groups.count(n.group), 1u);
  EXPECT_EQ(image.groups.at(n.group).head,
            (repl::LogHead{n.server.log_head(n.group)->epoch, 1}));
  EXPECT_EQ(image.groups.at(n.group).state.streams.size(), 1u);
}

TEST(DispatchCommit, BaselineLeadsEvenWhenEveryRecordFillsASegment) {
  // Each record fills a segment, so every append rolls the segment the
  // previous one filled: still no record reaches the WAL ahead of the
  // baseline its group's line starts from.
  LoggingBackend backend;
  DurableServer n(backend, ClashConfig::FsyncPolicy::kInterval, 16);
  n.env.t = SimTime::from_seconds(0.5);
  n.install();
  n.put(0, 3);
  n.env.end_tick();
  const std::vector<std::string> want{snapshot_path("snap", n.group), "wal",
                                      "wal", "wal"};
  EXPECT_EQ(backend.log, want);
}

TEST(DispatchCommit, SplitWritesTheChildBaselinesBeforeTheParentsDrop) {
  LoggingBackend backend;
  DurableServer n(backend, ClashConfig::FsyncPolicy::kInterval);
  n.install();
  n.put(0, 5);
  n.env.end_tick();
  backend.log.clear();

  ASSERT_TRUE(n.server.force_split(n.group));
  // The drop record is the split's only WAL write; both children's
  // baselines land before it.
  const std::vector<std::string> want{
      snapshot_path("snap", n.group.left_child()),
      snapshot_path("snap", n.group.right_child()), "wal"};
  EXPECT_EQ(backend.log, want);
}

}  // namespace
}  // namespace clash::storage
