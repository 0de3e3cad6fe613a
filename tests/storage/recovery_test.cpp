// Recovery-path coverage: snapshot round trips, snapshot + WAL-tail
// replay, drop records, damage handling, and the end-to-end recovery
// equivalence property — a ClashServer driven through real mutations,
// crashed, and recovered must come back with exactly its pre-crash
// group state and log head.
#include "storage/recovery.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "clash/server.hpp"
#include "common/rng.hpp"
#include "obs/hub.hpp"
#include "storage/backend.hpp"
#include "storage/snapshot.hpp"
#include "storage/store.hpp"
#include "storage/wal.hpp"

namespace clash::storage {
namespace {

constexpr unsigned kWidth = 8;

repl::LogOp stream_op(std::uint64_t source, std::uint64_t key, double rate) {
  return repl::LogOp::put_stream(StreamInfo{ClientId{source},
                                            Key(key, kWidth), rate});
}

repl::LogOp query_op(std::uint64_t id, std::uint64_t key) {
  return repl::LogOp::put_query(QueryInfo{QueryId{id}, Key(key, kWidth)});
}

TEST(SnapshotCodec, RoundTripsFullImage) {
  SnapshotImage img;
  img.group = KeyGroup::of(Key(0x2A, kWidth), 5);
  img.head = repl::LogHead{7, 42};
  img.root = true;
  img.parent = ServerId{3};
  repl::GroupLog::apply(stream_op(1, 0x2A, 2.0), img.state);
  repl::GroupLog::apply(query_op(9, 0x2B), img.state);
  img.app_state = {1, 2, 3, 4};
  img.app_deltas = {{5}, {6, 7}};

  SnapshotImage out;
  ASSERT_TRUE(decode_snapshot(encode_snapshot(img), out));
  EXPECT_EQ(out.group, img.group);
  EXPECT_EQ(out.head, img.head);
  EXPECT_TRUE(out.root);
  EXPECT_EQ(out.parent, ServerId{3});
  EXPECT_EQ(out.state.streams.size(), 1u);
  EXPECT_EQ(out.state.queries.size(), 1u);
  EXPECT_DOUBLE_EQ(out.state.stream_rate, 2.0);
  EXPECT_EQ(out.app_state, img.app_state);
  EXPECT_EQ(out.app_deltas, img.app_deltas);
}

TEST(SnapshotCodec, RejectsBitRot) {
  SnapshotImage img;
  img.group = KeyGroup::of(Key(0x2A, kWidth), 5);
  img.head = repl::LogHead{1, 1};
  auto bytes = encode_snapshot(img);
  bytes[bytes.size() / 2] ^= 0x04;
  SnapshotImage out;
  EXPECT_FALSE(decode_snapshot(bytes, out));
}

TEST(Recovery, ReplaysWalTailOntoSnapshot) {
  MemBackend backend;
  const KeyGroup g = KeyGroup::of(Key(0x10, kWidth), 4);

  SnapshotImage snap;
  snap.group = g;
  snap.head = repl::LogHead{2, 2};
  repl::GroupLog::apply(stream_op(1, 0x10, 1.0), snap.state);
  repl::GroupLog::apply(stream_op(2, 0x11, 2.0), snap.state);
  ASSERT_TRUE(backend.write_file_atomic(snapshot_path("snap", g),
                                        encode_snapshot(snap)));

  Wal wal(backend, Wal::Config{}, 0);
  // Pre-snapshot history must be skipped...
  ASSERT_TRUE(wal.append_op(g, repl::LogHead{2, 1}, stream_op(1, 0x10, 1.0)));
  ASSERT_TRUE(wal.append_op(g, repl::LogHead{2, 2}, stream_op(2, 0x11, 2.0)));
  // ...and the tail past it replayed.
  ASSERT_TRUE(wal.append_op(g, repl::LogHead{2, 3}, query_op(5, 0x12)));
  ASSERT_TRUE(wal.append_op(g, repl::LogHead{2, 4},
                            repl::LogOp::del_stream(ClientId{1})));
  ASSERT_TRUE(wal.append_op(
      g, repl::LogHead{2, 5}, repl::LogOp::app_delta_op({9, 9})));

  const auto image = recover_image(backend, "wal", "snap");
  ASSERT_EQ(image.groups.size(), 1u);
  const RecoveredGroup& rec = image.groups.at(g);
  EXPECT_EQ(rec.head, (repl::LogHead{2, 5}));
  EXPECT_EQ(rec.state.streams.size(), 1u);
  EXPECT_EQ(rec.state.queries.size(), 1u);
  EXPECT_DOUBLE_EQ(rec.state.stream_rate, 2.0);
  ASSERT_EQ(rec.app_deltas.size(), 1u);
  EXPECT_EQ(rec.app_deltas[0], (std::vector<std::uint8_t>{9, 9}));
  EXPECT_EQ(image.stats.records_replayed, 3u);
  EXPECT_EQ(image.stats.records_skipped, 2u);
  EXPECT_EQ(image.next_segment_index, 1u);
}

TEST(Recovery, DropRecordForgetsTheGroup) {
  MemBackend backend;
  const KeyGroup g = KeyGroup::of(Key(0x20, kWidth), 4);
  SnapshotImage snap;
  snap.group = g;
  snap.head = repl::LogHead{1, 0};
  ASSERT_TRUE(backend.write_file_atomic(snapshot_path("snap", g),
                                        encode_snapshot(snap)));
  Wal wal(backend, Wal::Config{}, 0);
  ASSERT_TRUE(wal.append_op(g, repl::LogHead{1, 1}, stream_op(1, 0x20, 1.0)));
  ASSERT_TRUE(wal.append_drop(g, 1));

  const auto image = recover_image(backend, "wal", "snap");
  EXPECT_TRUE(image.groups.empty());
  EXPECT_EQ(image.stats.drops_applied, 1u);
}

TEST(Recovery, ReactivationAfterDropResurrectsUnderNewEpoch) {
  MemBackend backend;
  const KeyGroup g = KeyGroup::of(Key(0x20, kWidth), 4);
  Wal wal(backend, Wal::Config{}, 0);
  ASSERT_TRUE(wal.append_op(g, repl::LogHead{1, 1}, stream_op(1, 0x20, 1.0)));
  ASSERT_TRUE(wal.append_drop(g, 1));
  // Re-adopted later: a fresh baseline under epoch 2 plus one op.
  SnapshotImage snap;
  snap.group = g;
  snap.head = repl::LogHead{2, 0};
  ASSERT_TRUE(backend.write_file_atomic(snapshot_path("snap", g),
                                        encode_snapshot(snap)));
  ASSERT_TRUE(wal.append_op(g, repl::LogHead{2, 1}, stream_op(2, 0x21, 3.0)));

  const auto image = recover_image(backend, "wal", "snap");
  ASSERT_EQ(image.groups.size(), 1u);
  const RecoveredGroup& rec = image.groups.at(g);
  EXPECT_EQ(rec.head, (repl::LogHead{2, 1}));
  EXPECT_EQ(rec.state.streams.size(), 1u);
  EXPECT_DOUBLE_EQ(rec.state.stream_rate, 3.0);
}

TEST(Recovery, SequenceGapFencesTheGroupSuffix) {
  MemBackend backend;
  const KeyGroup g = KeyGroup::of(Key(0x30, kWidth), 4);
  SnapshotImage snap;
  snap.group = g;
  snap.head = repl::LogHead{1, 0};
  ASSERT_TRUE(backend.write_file_atomic(snapshot_path("snap", g),
                                        encode_snapshot(snap)));
  Wal wal(backend, Wal::Config{}, 0);
  ASSERT_TRUE(wal.append_op(g, repl::LogHead{1, 1}, stream_op(1, 0x30, 1.0)));
  // seq 2 missing (lost write): 3 and 4 must not apply.
  ASSERT_TRUE(wal.append_op(g, repl::LogHead{1, 3}, stream_op(3, 0x31, 1.0)));
  ASSERT_TRUE(wal.append_op(g, repl::LogHead{1, 4}, stream_op(4, 0x32, 1.0)));

  const auto image = recover_image(backend, "wal", "snap");
  const RecoveredGroup& rec = image.groups.at(g);
  EXPECT_EQ(rec.head, (repl::LogHead{1, 1}));
  EXPECT_EQ(rec.state.streams.size(), 1u);
  EXPECT_EQ(image.stats.records_skipped, 2u);
}

// --- End-to-end recovery equivalence -----------------------------------

/// Minimal synchronous env: no peers, no replication — isolates the
/// storage path.
class NullEnv final : public ServerEnv {
 public:
  dht::LookupResult dht_lookup(dht::HashKey) override {
    return dht::LookupResult{ServerId{0}, 0};
  }
  void send(ServerId, const Message&) override {}
  [[nodiscard]] SimTime now() const override { return SimTime{0}; }
};

ClashConfig durable_config() {
  ClashConfig cfg;
  cfg.key_width = kWidth;
  cfg.initial_depth = 0;
  cfg.capacity = 1e9;
  cfg.durability_mode = ClashConfig::DurabilityMode::kWalSnapshot;
  cfg.fsync_policy = ClashConfig::FsyncPolicy::kPerAppend;
  cfg.log_compact_threshold = 16;  // force checkpoint snapshots
  return cfg;
}

TEST(Recovery, RecoveredImageMatchesPreCrashServerExactly) {
  MemBackend backend;
  NullEnv env;
  const auto cfg = durable_config();
  obs::Hub hub;  // outlives the store that counts into it
  ClashServer server(ServerId{0}, cfg, env,
                     dht::KeyHasher(32, dht::KeyHasher::Algo::kMix64, 0));
  NodeStore store(backend, NodeStore::Config::from(cfg));
  store.set_obs(&hub, 0);
  server.set_storage(&store);

  ServerTableEntry entry;
  entry.group = KeyGroup::root(kWidth);
  entry.root = true;
  entry.active = true;
  server.install_entry(entry);

  // A few hundred random mutations — enough to cross several
  // compaction boundaries.
  Rng rng(13);
  for (int i = 0; i < 300; ++i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & 0xFF, kWidth);
    if (rng.below(4) == 0) {
      obj.kind = ObjectKind::kQuery;
      obj.query_id = QueryId{rng.below(64)};
    } else {
      obj.kind = ObjectKind::kData;
      obj.source = ClientId{rng.below(64)};
      obj.stream_rate = 1.0 + double(rng.below(8));
    }
    (void)server.handle_accept_object(obj);
    if (rng.below(8) == 0) {
      server.remove_stream(ClientId{rng.below(64)},
                           Key(rng.next() & 0xFF, kWidth));
    }
  }

  const GroupState* live = server.group_state(entry.group);
  ASSERT_NE(live, nullptr);
  const auto live_head = server.log_head(entry.group);
  ASSERT_TRUE(live_head.has_value());

  // Crash (per-append fsync: nothing unsynced) and recover.
  const auto image = recover_image(backend, "wal", "snap");
  ASSERT_EQ(image.groups.size(), 1u);
  const RecoveredGroup& rec = image.groups.at(entry.group);
  EXPECT_EQ(rec.head, *live_head) << "replayed head == pre-crash head";
  EXPECT_TRUE(rec.root);
  EXPECT_EQ(rec.state.streams.size(), live->streams.size());
  EXPECT_EQ(rec.state.queries.size(), live->queries.size());
  EXPECT_DOUBLE_EQ(rec.state.stream_rate, live->stream_rate);
  for (const auto& [id, s] : live->streams) {
    const auto it = rec.state.streams.find(id);
    ASSERT_NE(it, rec.state.streams.end());
    EXPECT_EQ(it->second.key, s.key);
    EXPECT_DOUBLE_EQ(it->second.rate, s.rate);
  }
  for (const auto& [id, q] : live->queries) {
    EXPECT_EQ(rec.state.queries.count(id), 1u);
  }
  EXPECT_GT(hub.registry.counter_value("clash_snapshot_writes_total"),
            1u);  // checkpoints cut
}

TEST(Recovery, RestartedStoreReclaimsItsPredecessorsSegments) {
  // A restarted NodeStore adopts the surviving WAL segments as closed
  // and truncates them once checkpoints cover them — disk and replay
  // must stay bounded across repeated crash/restart cycles instead of
  // accumulating every previous run's log forever.
  MemBackend backend;
  NullEnv env;
  auto cfg = durable_config();
  cfg.wal_segment_bytes = 1024;
  std::size_t last_files = 0;
  std::uint64_t last_replayed = 0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    obs::Hub hub;  // outlives the store that counts into it
    ClashServer server(ServerId{0}, cfg, env,
                       dht::KeyHasher(32, dht::KeyHasher::Algo::kMix64, 0));
    NodeStore store(backend, NodeStore::Config::from(cfg));
    store.set_obs(&hub, 0);
    server.set_storage(&store);
    const auto replayed = store.recovery_stats().records_replayed;
    if (cycle == 0) {
      ServerTableEntry entry;
      entry.group = KeyGroup::root(kWidth);
      entry.root = true;
      entry.active = true;
      server.install_entry(entry);
    } else {
      server.restore_from_storage();
      // Crash-without-evict: the restarted node re-owns its group.
      (void)server.promote_replica(KeyGroup::root(kWidth));
    }
    for (int i = 0; i < 200; ++i) {
      AcceptObject obj;
      obj.key = Key(std::uint64_t(i) & 0xFF, kWidth);
      obj.kind = ObjectKind::kData;
      obj.source = ClientId{std::uint64_t(i) % 64};
      obj.stream_rate = 1.0;
      (void)server.handle_accept_object(obj);
    }
    const std::size_t files = backend.list("wal").size();
    if (cycle >= 2) {
      // Steady state: per-cycle load is constant, so segment count and
      // replay cost must plateau, not grow with cycle count.
      EXPECT_LE(files, last_files + 1) << "cycle " << cycle;
      EXPECT_LE(replayed, last_replayed + 64) << "cycle " << cycle;
      EXPECT_GT(
          hub.registry.counter_value("clash_wal_segments_deleted_total"),
          0u);
    }
    last_files = files;
    last_replayed = replayed;
  }
}

TEST(Recovery, FsyncHistogramStatsAndRingAllCountEveryAppend) {
  // Observability accuracy: with per-append fsync, the fsync histogram
  // (the one fsync count) and the ring's wal_fsync events are two views
  // of one ground truth, the append count; the record counter is the
  // append count itself.
  constexpr std::uint64_t kAppends = 50;
  MemBackend backend;
  obs::Hub hub;
  NodeStore::Config cfg;
  cfg.fsync = ClashConfig::FsyncPolicy::kPerAppend;
  NodeStore store(backend, cfg);
  store.set_obs(&hub, 3);
  const KeyGroup group = KeyGroup::root(kWidth);
  for (std::uint64_t i = 1; i <= kAppends; ++i) {
    (void)store.append_op(group, repl::LogHead{1, i},
                          stream_op(i, i & 0xFF, 1.0),
                          SimTime(std::int64_t(i)));
  }
  std::uint64_t ring_fsyncs = 0;
  for (const auto& span : hub.tracer.spans()) {
    ring_fsyncs += span.kind == obs::SpanKind::kWalFsync;
  }
  EXPECT_EQ(hub.registry.counter_value("clash_wal_records_total"), kAppends);
  EXPECT_EQ(hub.registry.histogram("clash_wal_fsync_usec").raw()->count(),
            kAppends);
  EXPECT_EQ(ring_fsyncs, kAppends);
}

TEST(Recovery, WalSnapshotTruncationBoundsReplay) {
  // Checkpoints bound recovery in absolute terms, whatever the load:
  // each snapshot truncates every record it covers, so recovery replays
  // at most one compaction window per group. One window (16 records)
  // fits in a segment here, so the WAL it scans is the open segment
  // plus at most the one rolled over since the last cut; without
  // truncation it would be every segment ever written.
  MemBackend backend;
  NullEnv env;
  auto cfg = durable_config();
  cfg.wal_segment_bytes = 2048;  // several segments under this load
  ClashServer server(ServerId{0}, cfg, env,
                     dht::KeyHasher(32, dht::KeyHasher::Algo::kMix64, 0));
  NodeStore store(backend, NodeStore::Config::from(cfg));
  server.set_storage(&store);
  ServerTableEntry entry;
  entry.group = KeyGroup::root(kWidth);
  entry.root = true;
  entry.active = true;
  server.install_entry(entry);
  for (int i = 0; i < 400; ++i) {
    AcceptObject obj;
    obj.key = Key(std::uint64_t(i) & 0xFF, kWidth);
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{std::uint64_t(i) % 96};
    obj.stream_rate = 1.0;
    (void)server.handle_accept_object(obj);
  }
  const auto image = recover_image(backend, "wal", "snap");
  ASSERT_EQ(image.groups.size(), 1u);
  EXPECT_EQ(image.groups.begin()->second.head,
            *server.log_head(entry.group));
  EXPECT_LE(image.stats.records_replayed,
            (cfg.log_compact_threshold + 1) * image.groups.size());
  EXPECT_LE(image.stats.segments_scanned, 2u);
}

}  // namespace
}  // namespace clash::storage
