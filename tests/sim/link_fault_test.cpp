// Link-level fault matrix: unit coverage of sim::LinkMatrix verdicts
// (cuts, probabilistic drops, delays, partition helpers, deterministic
// scripts) and integration with SimCluster dispatch — a cut or lossy
// link starves replicas exactly until the matrix heals and the next
// anti-entropy round repairs them.
#include <gtest/gtest.h>

#include "clash/client.hpp"
#include "sim/cluster.hpp"
#include "sim/link_matrix.hpp"
#include "tests/clash/test_util.hpp"

namespace clash::sim {
namespace {

TEST(LinkMatrix, QuietByDefaultAndDeliversClean) {
  LinkMatrix links;
  EXPECT_TRUE(links.quiet());
  const auto v = links.judge(ServerId{0}, ServerId{1});
  EXPECT_TRUE(v.deliver);
  EXPECT_EQ(v.delay.usec, 0);
  EXPECT_EQ(links.stats().dropped, 0u);
}

TEST(LinkMatrix, CutIsDirectionalAndHeals) {
  LinkMatrix links;
  links.cut(ServerId{0}, ServerId{1});
  EXPECT_FALSE(links.quiet());
  EXPECT_FALSE(links.judge(ServerId{0}, ServerId{1}).deliver);
  // The reverse direction stays up: asymmetric by construction.
  EXPECT_TRUE(links.judge(ServerId{1}, ServerId{0}).deliver);
  links.heal(ServerId{0}, ServerId{1});
  EXPECT_TRUE(links.judge(ServerId{0}, ServerId{1}).deliver);
  EXPECT_TRUE(links.quiet());
  EXPECT_EQ(links.stats().dropped, 1u);
}

TEST(LinkMatrix, ProbabilisticDropIsSeededAndRoughlyCalibrated) {
  LinkMatrix a(42);
  LinkMatrix b(42);
  a.set_drop(ServerId{0}, ServerId{1}, 0.3);
  b.set_drop(ServerId{0}, ServerId{1}, 0.3);
  int dropped = 0;
  for (int i = 0; i < 1000; ++i) {
    const bool da = !a.judge(ServerId{0}, ServerId{1}).deliver;
    const bool db = !b.judge(ServerId{0}, ServerId{1}).deliver;
    EXPECT_EQ(da, db) << "same seed must replay identically";
    dropped += da ? 1 : 0;
  }
  EXPECT_GT(dropped, 200);
  EXPECT_LT(dropped, 400);
}

TEST(LinkMatrix, DelayVerdictAndDefaultFault) {
  LinkMatrix links;
  links.set_delay(ServerId{0}, ServerId{1}, SimTime::from_seconds(0.5));
  const auto v = links.judge(ServerId{0}, ServerId{1});
  EXPECT_TRUE(v.deliver);
  EXPECT_EQ(v.delay, SimTime::from_seconds(0.5));
  EXPECT_EQ(links.stats().delayed, 1u);

  LinkMatrix::Fault lossy;
  lossy.drop_prob = 1.0;
  links.set_default_fault(lossy);
  // The default applies to pairs without an explicit entry...
  EXPECT_FALSE(links.judge(ServerId{3}, ServerId{4}).deliver);
  // ...while the explicit delay entry still wins for its pair.
  EXPECT_TRUE(links.judge(ServerId{0}, ServerId{1}).deliver);
  links.clear();
  EXPECT_TRUE(links.quiet());
}

TEST(LinkMatrix, PartitionHelpersCutBothOrOneDirection) {
  LinkMatrix links;
  const std::vector<ServerId> left{ServerId{0}, ServerId{1}};
  const std::vector<ServerId> right{ServerId{2}, ServerId{3}};
  links.partition(left, right);
  EXPECT_FALSE(links.judge(ServerId{0}, ServerId{3}).deliver);
  EXPECT_FALSE(links.judge(ServerId{3}, ServerId{0}).deliver);
  // Intra-side links stay clean.
  EXPECT_TRUE(links.judge(ServerId{0}, ServerId{1}).deliver);
  EXPECT_TRUE(links.judge(ServerId{2}, ServerId{3}).deliver);
  links.heal_all();

  links.one_way_partition(left, right);
  EXPECT_FALSE(links.judge(ServerId{1}, ServerId{2}).deliver);
  EXPECT_TRUE(links.judge(ServerId{2}, ServerId{1}).deliver);
}

TEST(LinkMatrix, ScriptDropsExactFramesThenResumesFault) {
  LinkMatrix links;
  links.script(ServerId{0}, ServerId{1}, {false, true, false});
  EXPECT_TRUE(links.judge(ServerId{0}, ServerId{1}).deliver);
  EXPECT_FALSE(links.judge(ServerId{0}, ServerId{1}).deliver);
  EXPECT_TRUE(links.judge(ServerId{0}, ServerId{1}).deliver);
  // Script drained: the (clean) configured fault takes over again.
  EXPECT_TRUE(links.judge(ServerId{0}, ServerId{1}).deliver);
  EXPECT_TRUE(links.quiet());
}

// --- SimCluster integration -------------------------------------------

SimCluster::Config log_cluster_config() {
  auto cfg = testing::small_cluster_config(8, 8, 2, /*capacity=*/1e9);
  cfg.clash.replication_factor = 2;
  cfg.clash.replication_mode = ClashConfig::ReplicationMode::kLog;
  return cfg;
}

/// The owner and replica head of the group holding `key`, for
/// divergence assertions.
struct GroupView {
  ServerId owner;
  KeyGroup group;
};

GroupView view_of(SimCluster& cluster, const Key& k) {
  return GroupView{*cluster.find_owner(k), *cluster.find_active_group(k)};
}

TEST(LinkFaultCluster, CutLinkStarvesReplicaUntilHealAndAntiEntropy) {
  SimCluster cluster(log_cluster_config());
  cluster.bootstrap();
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());

  AcceptObject obj;
  obj.key = Key(0x2A, 8);
  obj.kind = ObjectKind::kData;
  obj.source = ClientId{1};
  obj.stream_rate = 2;
  ASSERT_TRUE(client.insert(obj).ok);
  const auto gv = view_of(cluster, obj.key);

  // Find a holder that tracked the first append.
  ServerId holder{};
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    const ServerId id{i};
    if (id != gv.owner && cluster.server(id).has_replica(gv.group)) {
      holder = id;
      break;
    }
  }
  ASSERT_TRUE(holder.valid());
  ASSERT_EQ(cluster.server(holder).replica_head(gv.group),
            cluster.server(gv.owner).log_head(gv.group));

  // Cut owner -> holder and register more streams: the holder misses
  // every append while the other replica keeps up.
  cluster.links().cut(gv.owner, holder);
  for (std::uint64_t i = 2; i <= 5; ++i) {
    AcceptObject more;
    more.key = Key(0x2A, 8);
    more.kind = ObjectKind::kData;
    more.source = ClientId{i};
    more.stream_rate = 1;
    ASSERT_TRUE(client.insert(more).ok);
  }
  EXPECT_LT(cluster.server(holder).replica_head(gv.group)->seq,
            cluster.server(gv.owner).log_head(gv.group)->seq);
  EXPECT_GT(cluster.total_stats().link_drops, 0u);

  // Heal; the next anti-entropy round repairs the exact suffix.
  cluster.links().heal(gv.owner, holder);
  cluster.set_now(SimTime::from_minutes(5));
  cluster.run_all_load_checks();
  EXPECT_EQ(cluster.server(holder).replica_head(gv.group),
            cluster.server(gv.owner).log_head(gv.group));
  const GroupState* st = cluster.server(holder).replica_state(gv.group);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->streams.size(), 5u);
}

TEST(LinkFaultCluster, ScriptedChunkLossNacksAndRestartsWithinTheCheck) {
  // Regression (bugfix 2, driven through the fault layer): drop one
  // SnapshotChunk mid-transfer. The out-of-sync successor chunk must
  // nack the sender and the restarted transfer must complete within
  // the same anti-entropy round — pre-fix the assembly died silently
  // and the replica stayed diverged until the NEXT round.
  auto cfg = log_cluster_config();
  cfg.clash.log_compact_threshold = 2;   // short window: the cut outruns it
  cfg.clash.snapshot_chunk_objects = 1;  // many chunks per snapshot
  SimCluster cluster(cfg);
  cluster.bootstrap();
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());

  AcceptObject obj;
  obj.key = Key(0x2A, 8);
  obj.kind = ObjectKind::kData;
  obj.source = ClientId{1};
  obj.stream_rate = 2;
  ASSERT_TRUE(client.insert(obj).ok);
  const auto gv = view_of(cluster, obj.key);
  ServerId holder{};
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    const ServerId id{i};
    if (id != gv.owner && cluster.server(id).has_replica(gv.group)) {
      holder = id;
      break;
    }
  }
  ASSERT_TRUE(holder.valid());

  // Starve the holder past the compaction floor so the next
  // anti-entropy diff needs a full multi-chunk snapshot.
  cluster.links().cut(gv.owner, holder);
  for (std::uint64_t i = 2; i <= 6; ++i) {
    AcceptObject more;
    more.key = Key(0x2A, 8);
    more.kind = ObjectKind::kData;
    more.source = ClientId{i};
    more.stream_rate = 1;
    ASSERT_TRUE(client.insert(more).ok);
  }
  ASSERT_GT(cluster.server(gv.owner).stats().log_compactions, 0u);
  cluster.links().heal(gv.owner, holder);

  // Next round, owner -> holder carries: AE probe, snapshot offer,
  // then the chunks. Script the loss of the first chunk.
  cluster.links().script(gv.owner, holder,
                         {false /*probe*/, false /*offer*/, true /*chunk0*/});
  cluster.set_now(SimTime::from_minutes(5));
  cluster.server(gv.owner).run_load_check();

  // The nack-driven restart converged the holder inside this check.
  EXPECT_GT(cluster.server(holder).stats().snapshot_aborts, 0u);
  EXPECT_EQ(cluster.server(holder).replica_head(gv.group),
            cluster.server(gv.owner).log_head(gv.group));
  EXPECT_EQ(cluster.server(holder).replica_state(gv.group)->streams.size(),
            6u);
}

}  // namespace
}  // namespace clash::sim
