// Message-level coverage of the operation-log replication engine
// inside ClashServer: incremental appends, gap detection + anti-entropy
// repair, local compaction (no snapshot for a caught-up holder), snapshot
// repair past the compaction floor, peer recovery at promotion (the
// stale-replica audit), app-delta replay, and rejoin handoffs. A tiny
// synchronous router stands in for the transport so individual frames
// can be blackholed to force divergence.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "clash/server.hpp"
#include "repl/log.hpp"

namespace clash {
namespace {

constexpr unsigned kWidth = 8;

ClashConfig log_config() {
  ClashConfig cfg;
  cfg.key_width = kWidth;
  cfg.initial_depth = 0;
  cfg.capacity = 1e9;  // never split under load in these tests
  cfg.replication_factor = 2;
  cfg.replication_mode = ClashConfig::ReplicationMode::kLog;
  cfg.log_compact_threshold = 64;
  cfg.snapshot_chunk_objects = 2;  // exercise multi-chunk assembly
  return cfg;
}

/// Synchronous message router shared by every server's env.
struct Router {
  std::map<std::uint64_t, ClashServer*> servers;
  std::vector<ServerId> replica_targets;  // scripted replica set
  std::set<std::uint64_t> blackholed;
  ServerId lookup_owner{0};
  std::size_t snapshot_offers = 0;  // delivered

  void deliver(ServerId from, ServerId to, const Message& msg) {
    if (blackholed.count(to.value) > 0) return;
    if (std::holds_alternative<SnapshotOffer>(msg)) ++snapshot_offers;
    const auto it = servers.find(to.value);
    if (it != servers.end()) it->second->deliver(from, msg);
  }
};

class RouterEnv final : public ServerEnv {
 public:
  RouterEnv(Router& router, ServerId self) : router_(router), self_(self) {}

  dht::LookupResult dht_lookup(dht::HashKey) override {
    return dht::LookupResult{router_.lookup_owner, 0};
  }
  std::vector<ServerId> replica_targets(dht::HashKey, unsigned) override {
    return router_.replica_targets;
  }
  void send(ServerId to, const Message& msg) override {
    router_.deliver(self_, to, msg);
  }
  [[nodiscard]] SimTime now() const override { return SimTime{0}; }

 private:
  Router& router_;
  ServerId self_;
};

/// A cluster of bare ClashServers on the router: s(0) owns the root
/// group, s(1) and s(2) are its scripted replica set.
struct LogCluster {
  explicit LogCluster(std::size_t n, ClashConfig cfg = log_config()) {
    router.replica_targets = {ServerId{1}, ServerId{2}};
    router.lookup_owner = ServerId{0};
    for (std::size_t i = 0; i < n; ++i) {
      envs.push_back(std::make_unique<RouterEnv>(router, ServerId{i}));
      servers.push_back(std::make_unique<ClashServer>(
          ServerId{i}, cfg, *envs.back(),
          dht::KeyHasher(32, dht::KeyHasher::Algo::kMix64, 0)));
      router.servers[i] = servers.back().get();
    }
  }

  ClashServer& s(std::size_t i) { return *servers[i]; }

  /// Activate the root group on s(0) (snapshots flow to the set).
  KeyGroup install_root() {
    ServerTableEntry entry;
    entry.group = KeyGroup::root(kWidth);
    entry.root = true;
    entry.active = true;
    s(0).install_entry(entry);
    return entry.group;
  }

  void add_stream(std::uint64_t source, std::uint64_t key, double rate) {
    AcceptObject obj;
    obj.key = Key(key, kWidth);
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{source};
    obj.stream_rate = rate;
    (void)s(0).handle_accept_object(obj);
  }

  void add_query(std::uint64_t id, std::uint64_t key) {
    AcceptObject obj;
    obj.key = Key(key, kWidth);
    obj.kind = ObjectKind::kQuery;
    obj.query_id = QueryId{id};
    (void)s(0).handle_accept_object(obj);
  }

  Router router;
  std::vector<std::unique_ptr<RouterEnv>> envs;
  std::vector<std::unique_ptr<ClashServer>> servers;
};

TEST(ReplicationLog, AppendsFlowToReplicasIncrementally) {
  LogCluster cluster(3);
  const KeyGroup root = cluster.install_root();

  cluster.add_stream(1, 0x12, 2.0);
  cluster.add_query(7, 0x34);
  cluster.add_stream(2, 0x56, 3.0);

  const auto owner_head = cluster.s(0).log_head(root);
  ASSERT_TRUE(owner_head.has_value());
  EXPECT_EQ(owner_head->seq, 3u);
  for (std::size_t i : {1u, 2u}) {
    EXPECT_EQ(cluster.s(i).replica_head(root), owner_head) << "s" << i;
    const GroupState* st = cluster.s(i).replica_state(root);
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->streams.size(), 2u);
    EXPECT_EQ(st->queries.size(), 1u);
    EXPECT_DOUBLE_EQ(st->stream_rate, 5.0);
  }

  // Removal ops replicate too.
  cluster.s(0).remove_stream(ClientId{1}, Key(0x12, kWidth));
  EXPECT_EQ(cluster.s(1).replica_state(root)->streams.size(), 1u);
  EXPECT_DOUBLE_EQ(cluster.s(1).replica_state(root)->stream_rate, 3.0);
  EXPECT_EQ(cluster.s(1).replica_head(root), cluster.s(0).log_head(root));
}

TEST(ReplicationLog, GapHealsThroughAntiEntropyDiff) {
  LogCluster cluster(3);
  const KeyGroup root = cluster.install_root();
  cluster.add_stream(1, 0x11, 1.0);

  // s(1) misses two appends...
  cluster.router.blackholed.insert(1);
  cluster.add_stream(2, 0x22, 1.0);
  cluster.add_query(5, 0x33);
  cluster.router.blackholed.erase(1);
  EXPECT_LT(cluster.s(1).replica_head(root)->seq,
            cluster.s(0).log_head(root)->seq);

  // ...and the next live append carries a seq gap: s(1) answers with a
  // diff naming its real head, the owner streams the missing suffix.
  cluster.add_stream(3, 0x44, 1.0);
  EXPECT_EQ(cluster.s(1).replica_head(root), cluster.s(0).log_head(root));
  const GroupState* st = cluster.s(1).replica_state(root);
  EXPECT_EQ(st->streams.size(), 3u);
  EXPECT_EQ(st->queries.size(), 1u);
}

TEST(ReplicationLog, PeriodicProbeRepairsSilentDivergence) {
  LogCluster cluster(3);
  const KeyGroup root = cluster.install_root();
  cluster.add_stream(1, 0x11, 1.0);

  // s(2) silently misses the tail (no further append to expose it).
  cluster.router.blackholed.insert(2);
  cluster.add_stream(2, 0x22, 1.0);
  cluster.router.blackholed.erase(2);
  ASSERT_LT(cluster.s(2).replica_head(root)->seq,
            cluster.s(0).log_head(root)->seq);

  // The anti-entropy timer exchanges (epoch, seq) vectors and repairs.
  cluster.s(0).run_load_check();
  EXPECT_EQ(cluster.s(2).replica_head(root), cluster.s(0).log_head(root));
  EXPECT_EQ(cluster.s(2).replica_state(root)->streams.size(), 2u);
}

TEST(ReplicationLog, LagPastCompactionFloorGetsChunkedSnapshot) {
  auto cfg = log_config();
  cfg.log_compact_threshold = 3;  // short window: the lag below outruns it
  LogCluster cluster(3, cfg);
  const KeyGroup root = cluster.install_root();

  // s(1) misses enough appends that the owner compacts past its head
  // (threshold 3), so a delta repair is impossible.
  cluster.router.blackholed.insert(1);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    cluster.add_stream(i, i * 17 % 251, 1.0);
  }
  cluster.router.blackholed.erase(1);
  ASSERT_GT(cluster.s(0).stats().log_compactions, 0u);

  cluster.s(0).run_load_check();  // probe -> diff -> snapshot (chunked)
  EXPECT_EQ(cluster.s(1).replica_head(root), cluster.s(0).log_head(root));
  EXPECT_EQ(cluster.s(1).replica_state(root)->streams.size(), 6u);
}

/// Field-by-field equality: a replica must hold the owner's exact
/// objects, not just the same counts.
void expect_same_state(const GroupState& replica, const GroupState& owner) {
  ASSERT_EQ(replica.streams.size(), owner.streams.size());
  for (auto r = replica.streams.begin(), o = owner.streams.begin();
       r != replica.streams.end(); ++r, ++o) {
    EXPECT_EQ(r->first, o->first);
    EXPECT_EQ(r->second.key, o->second.key);
    EXPECT_DOUBLE_EQ(r->second.rate, o->second.rate);
  }
  ASSERT_EQ(replica.queries.size(), owner.queries.size());
  for (auto r = replica.queries.begin(), o = owner.queries.begin();
       r != replica.queries.end(); ++r, ++o) {
    EXPECT_EQ(r->first, o->first);
    EXPECT_EQ(r->second.key, o->second.key);
  }
  EXPECT_DOUBLE_EQ(replica.stream_rate, owner.stream_rate);
}

TEST(ReplicationLog, CompactionIsLocalAndShipsNoSnapshots) {
  // A caught-up replica needs the delta, never the group: past
  // activation, a fault-free run compacts every log many times over and
  // not one SnapshotOffer reaches the replica set.
  auto cfg = log_config();
  cfg.log_compact_threshold = 8;
  LogCluster cluster(3, cfg);
  const KeyGroup root = cluster.install_root();
  const std::size_t activation_offers = cluster.router.snapshot_offers;
  EXPECT_EQ(activation_offers, 2u);  // one per replica

  for (std::uint64_t i = 1; i <= 100; ++i) {
    if (i % 5 == 0) {
      cluster.add_query(i, i * 7 % 251);
    } else {
      cluster.add_stream(i, i * 13 % 251, 0.5 * double(i % 7 + 1));
    }
    if (i % 10 == 9) {  // removals ride the log too
      cluster.s(0).remove_stream(ClientId{i - 1},
                                 Key((i - 1) * 13 % 251, kWidth));
    }
    ASSERT_LE(cluster.s(0).group_log(root)->size(), 8u) << "put " << i;
    for (std::size_t r : {1u, 2u}) {
      ASSERT_LE(cluster.s(r).replica_log(root)->size(), 8u)
          << "s" << r << " put " << i;
    }
  }
  EXPECT_GE(cluster.s(0).stats().log_compactions, 10u);
  EXPECT_EQ(cluster.router.snapshot_offers, activation_offers);

  const GroupState* truth = cluster.s(0).group_state(root);
  ASSERT_NE(truth, nullptr);
  for (std::size_t r : {1u, 2u}) {
    EXPECT_EQ(cluster.s(r).replica_head(root), cluster.s(0).log_head(root))
        << "s" << r;
    const GroupState* st = cluster.s(r).replica_state(root);
    ASSERT_NE(st, nullptr);
    expect_same_state(*st, *truth);
  }
}

TEST(ReplicationLog, PromotionPullsMissingSuffixFromFresherPeer) {
  LogCluster cluster(3);
  const KeyGroup root = cluster.install_root();
  cluster.add_stream(1, 0x11, 1.0);

  // s(1) falls behind; s(2) stays fresh. The owner dies (silently).
  cluster.router.blackholed.insert(1);
  cluster.add_stream(2, 0x22, 2.0);
  cluster.add_query(9, 0x33);
  cluster.router.blackholed.erase(1);
  cluster.router.blackholed.insert(0);  // owner is gone
  const auto fresh_head = cluster.s(2).replica_head(root);
  ASSERT_LT(cluster.s(1).replica_head(root).value(), fresh_head.value());

  // The stale heir must not install its lagging copy: the recovery
  // pull drains the missing suffix from s(2) first.
  ASSERT_TRUE(cluster.s(1).promote_replica(root));
  const GroupState* st = cluster.s(1).group_state(root);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->streams.size(), 2u);
  EXPECT_EQ(st->queries.size(), 1u);
  EXPECT_DOUBLE_EQ(st->stream_rate, 3.0);
  EXPECT_GT(cluster.s(1).recovery_stats().entries_repaired, 0u);
  EXPECT_EQ(cluster.s(1).recovery_stats().stale_promotions, 0u);
  EXPECT_EQ(cluster.s(1).recovery_stats().stale_promotions_averted, 1u);
  // The new ownership line supersedes the dead owner's epoch.
  EXPECT_GT(cluster.s(1).log_head(root)->epoch, fresh_head->epoch);
}

TEST(ReplicationLog, PromotionWithoutLocalReplicaPullsPeerSnapshot) {
  LogCluster cluster(4);
  const KeyGroup root = cluster.install_root();
  for (std::uint64_t i = 1; i <= 5; ++i) {
    cluster.add_stream(i, i * 31 % 251, 1.0);
  }
  cluster.router.blackholed.insert(0);  // owner gone
  // The heir s(3) never held a replica, but the set {s1, s2} did.
  ASSERT_FALSE(cluster.s(3).has_replica(root));
  ASSERT_TRUE(cluster.s(3).promote_replica(root));
  EXPECT_EQ(cluster.s(3).group_state(root)->streams.size(), 5u);
  // Both surviving holders answer the pull; at least one snapshot lands.
  EXPECT_GE(cluster.s(3).recovery_stats().snapshots_pulled, 1u);
  EXPECT_EQ(cluster.s(3).stats().groups_lost, 0u);
}

TEST(ReplicationLog, StalePromotionIsCountedWhenNoPeerCanHeal) {
  LogCluster cluster(3);
  const KeyGroup root = cluster.install_root();
  cluster.add_stream(1, 0x11, 1.0);
  // Both holders miss the tail append; the dying owner still manages
  // to advertise its head (1,2) to s(1) via one last anti-entropy
  // probe, but its repair never arrives and s(2) is equally stale.
  cluster.router.blackholed.insert(1);
  cluster.router.blackholed.insert(2);
  cluster.add_stream(2, 0x22, 1.0);
  cluster.router.blackholed.erase(1);
  cluster.router.blackholed.insert(0);  // diffs back to the owner die
  cluster.s(0).run_load_check();        // advertises (1,2) to s(1)
  cluster.router.blackholed.erase(2);

  ASSERT_TRUE(cluster.s(1).promote_replica(root));
  // s(1) knows (1,2) existed but could only reach (1,1): recorded as a
  // stale promotion, not silently ignored.
  EXPECT_EQ(cluster.s(1).recovery_stats().stale_promotions, 1u);
  EXPECT_EQ(cluster.s(1).group_state(root)->streams.size(), 1u);
}

/// Records replication app callbacks for delta-replay assertions.
class RecordingHooks final : public AppHooks {
 public:
  std::vector<std::uint8_t> snapshot;
  std::vector<std::vector<std::uint8_t>> applied;
  std::vector<std::uint8_t> imported;

  std::vector<std::uint8_t> snapshot_state(const KeyGroup&) override {
    return snapshot;
  }
  void import_state(const KeyGroup&,
                    const std::vector<std::uint8_t>& state) override {
    imported = state;
  }
  void apply_delta(const KeyGroup&,
                   const std::vector<std::uint8_t>& delta) override {
    applied.push_back(delta);
  }
};

TEST(ReplicationLog, AppDeltasReplayInOrderAtPromotion) {
  LogCluster cluster(3);
  RecordingHooks owner_hooks;
  owner_hooks.snapshot = {0xAA};
  RecordingHooks heir_hooks;
  cluster.s(0).set_app_hooks(&owner_hooks);
  cluster.s(1).set_app_hooks(&heir_hooks);
  const KeyGroup root = cluster.install_root();  // snapshot {0xAA} ships

  ASSERT_TRUE(cluster.s(0).append_app_delta(root, {1}));
  ASSERT_TRUE(cluster.s(0).append_app_delta(root, {2}));
  ASSERT_TRUE(cluster.s(0).append_app_delta(root, {3}));
  EXPECT_FALSE(cluster.s(1).append_app_delta(root, {9}));  // not the owner

  cluster.router.blackholed.insert(0);
  ASSERT_TRUE(cluster.s(1).promote_replica(root));
  EXPECT_EQ(heir_hooks.imported, (std::vector<std::uint8_t>{0xAA}));
  ASSERT_EQ(heir_hooks.applied.size(), 3u);
  EXPECT_EQ(heir_hooks.applied[0], (std::vector<std::uint8_t>{1}));
  EXPECT_EQ(heir_hooks.applied[2], (std::vector<std::uint8_t>{3}));
}

TEST(ReplicationLog, CompactingAppDeltasStillShipsASnapshot) {
  // A replica's opaque app tail folds only from an owner snapshot, so a
  // compacted suffix carrying app deltas still ships the group.
  auto cfg = log_config();
  cfg.log_compact_threshold = 8;
  LogCluster cluster(3, cfg);
  RecordingHooks owner_hooks;
  owner_hooks.snapshot = {0xAB};
  RecordingHooks heir_hooks;
  cluster.s(0).set_app_hooks(&owner_hooks);
  cluster.s(1).set_app_hooks(&heir_hooks);
  const KeyGroup root = cluster.install_root();
  const std::size_t activation_offers = cluster.router.snapshot_offers;

  cluster.add_stream(1, 0x11, 1.0);
  for (std::uint8_t d = 1; d <= 8; ++d) {
    ASSERT_TRUE(cluster.s(0).append_app_delta(root, {d}));
  }
  // The ninth op crossed the threshold with deltas in the suffix.
  EXPECT_EQ(cluster.s(0).stats().log_compactions, 1u);
  EXPECT_EQ(cluster.router.snapshot_offers, activation_offers + 2);
  EXPECT_EQ(cluster.s(1).replica_head(root), cluster.s(0).log_head(root));

  // The snapshot folded the tail: the heir imports the owner's app
  // state and has no delta left to replay.
  cluster.router.blackholed.insert(0);
  ASSERT_TRUE(cluster.s(1).promote_replica(root));
  EXPECT_EQ(heir_hooks.imported, (std::vector<std::uint8_t>{0xAB}));
  EXPECT_TRUE(heir_hooks.applied.empty());
  EXPECT_EQ(cluster.s(1).group_state(root)->streams.size(), 1u);
}

TEST(ReplicationLog, HandoffPreservesRootFlagStateAndEpochFencing) {
  LogCluster cluster(4);
  const KeyGroup root = cluster.install_root();
  cluster.add_stream(1, 0x11, 1.0);
  cluster.add_query(4, 0x22);
  const auto old_epoch = cluster.s(0).log_head(root)->epoch;

  // The ring now maps the group to s(3): hand it back with state.
  cluster.router.lookup_owner = ServerId{3};
  EXPECT_EQ(cluster.s(0).handoff_groups(ServerId{3}), 1u);

  EXPECT_EQ(cluster.s(0).group_state(root), nullptr);
  EXPECT_FALSE(cluster.s(0).is_active());
  const auto* entry = cluster.s(3).table().find(root);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->active);
  EXPECT_TRUE(entry->root);
  EXPECT_EQ(cluster.s(3).group_state(root)->streams.size(), 1u);
  EXPECT_EQ(cluster.s(3).group_state(root)->queries.size(), 1u);
  // The new line fences out the old one.
  EXPECT_GT(cluster.s(3).log_head(root)->epoch, old_epoch);
  EXPECT_EQ(cluster.s(0).stats().handoffs, 1u);
}

TEST(ReplicationLog, HandoffToSelfOrUnmappedGroupsIsANoOp) {
  LogCluster cluster(3);
  (void)cluster.install_root();
  EXPECT_EQ(cluster.s(0).handoff_groups(ServerId{0}), 0u);
  cluster.router.lookup_owner = ServerId{0};  // still maps here
  EXPECT_EQ(cluster.s(0).handoff_groups(ServerId{2}), 0u);
  EXPECT_TRUE(cluster.s(0).is_active());
}

}  // namespace
}  // namespace clash
