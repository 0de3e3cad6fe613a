// Group-cost lifecycle: the per-group cost map follows its group. A
// split, handoff, or replica drop must evict the departed group's cost
// record — before this was enforced, a long-lived server under churn
// accumulated cost entries for every group it had EVER owned or
// replicated, and the census (and its scrape-time gauges) grew without
// bound. The one exception: a replica drop for a group the server
// still actively owns keeps the live owner metering intact.
#include <gtest/gtest.h>

#include "clash/client.hpp"
#include "sim/cluster.hpp"
#include "tests/clash/test_util.hpp"

namespace clash {
namespace {

sim::SimCluster::Config replicated_config() {
  auto cfg = testing::small_cluster_config(16, 10, 3, /*capacity=*/500.0);
  cfg.clash.replication_factor = 2;
  cfg.clash.enable_consolidation = false;
  return cfg;
}

TEST(GroupCostLifecycle, SplitEvictsTheParentsCostRecord) {
  sim::SimCluster cluster(replicated_config());
  cluster.bootstrap();
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  const Key hot(0b1010000000, 10);
  testing::add_stream(cluster, client, ClientId{1}, hot, 3.0);

  const KeyGroup parent = cluster.find_active_group(hot).value();
  const ServerId owner = *cluster.find_owner(hot);
  ASSERT_GT(cluster.server(owner).group_costs().count(parent), 0u)
      << "the accepted stream should have metered a put";

  ASSERT_TRUE(cluster.server(owner).force_split(parent));
  EXPECT_EQ(cluster.server(owner).group_costs().count(parent), 0u)
      << "split left the dead parent's cost record behind";
  // The child meters from zero at its (possibly different) owner.
  const KeyGroup child = cluster.find_active_group(hot).value();
  ASSERT_GT(child.depth(), parent.depth());
}

TEST(GroupCostLifecycle, HandoffEvictsTheOldOwnersCostRecord) {
  sim::SimCluster cluster(replicated_config());
  cluster.bootstrap();
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  const Key key(0b0110000000, 10);
  testing::add_stream(cluster, client, ClientId{2}, key, 2.0);
  cluster.run_until(SimTime::from_minutes(5));
  cluster.run_all_load_checks();

  const KeyGroup group = cluster.find_active_group(key).value();
  const ServerId owner = *cluster.find_owner(key);
  ASSERT_GT(cluster.server(owner).group_costs().count(group), 0u);

  // Fail the owner over; the heir now owns the group but starts with a
  // clean cost sheet (metering history does not transfer — each server
  // records only the traffic it served itself).
  ASSERT_GE(cluster.fail_server(owner), 1u);
  const ServerId heir = *cluster.find_owner(key);
  ASSERT_NE(heir, owner);
  cluster.server(heir).meter_repl_bytes(group, 512);
  ASSERT_GT(cluster.server(heir).group_costs().count(group), 0u);

  // Bring the original owner back: revive runs the rejoin handoff (the
  // group's ring hash maps to the rejoined server again), and the heir
  // must drop its cost record for the departed group.
  cluster.revive_server(owner);
  ASSERT_EQ(*cluster.find_owner(key), owner) << "rejoin handoff didn't run";
  EXPECT_EQ(cluster.server(heir).group_costs().count(group), 0u)
      << "handoff left the departed group's cost record on the old owner";
}

TEST(GroupCostLifecycle, DropReplicaEvictsCostButSparesTheActiveOwner) {
  sim::SimCluster cluster(replicated_config());
  cluster.bootstrap();
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  const Key key(0b1100000000, 10);
  testing::add_stream(cluster, client, ClientId{3}, key, 2.0);
  cluster.run_until(SimTime::from_minutes(5));
  cluster.run_all_load_checks();

  const KeyGroup group = cluster.find_active_group(key).value();
  const ServerId owner = *cluster.find_owner(key);

  // Find a replica holder and give it a synthetic cost record (repl
  // bytes it metered while serving the replication stream).
  ServerId holder{};  // default-constructed = invalid
  for (std::size_t i = 0; i < 16; ++i) {
    const ServerId id{i};
    if (id != owner && cluster.server(id).has_replica(group)) {
      holder = id;
      break;
    }
  }
  ASSERT_TRUE(holder.valid());
  cluster.server(holder).meter_repl_bytes(group, 1000);
  ASSERT_GT(cluster.server(holder).group_costs().count(group), 0u);

  // A DropReplica at the holder evicts both the replica and its cost.
  cluster.server(holder).deliver(owner, Message(DropReplica{group}));
  EXPECT_FALSE(cluster.server(holder).has_replica(group));
  EXPECT_EQ(cluster.server(holder).group_costs().count(group), 0u);

  // But the same message at the ACTIVE OWNER (stale drop from an old
  // replication round) must not wipe the live metering.
  ASSERT_GT(cluster.server(owner).group_costs().count(group), 0u);
  cluster.server(owner).deliver(holder, Message(DropReplica{group}));
  EXPECT_GT(cluster.server(owner).group_costs().count(group), 0u)
      << "a stale DropReplica erased the active owner's cost record";
}

TEST(GroupCostLifecycle, FoldCensusRanksTopGroupsByTotalBytes) {
  testing::MockServerEnv env;
  ClashConfig cfg;
  cfg.key_width = 8;
  ClashServer server(ServerId{0}, cfg, env,
                     dht::KeyHasher(32, dht::KeyHasher::Algo::kMix64, 0));
  const KeyGroup cold = testing::group("00*", 8);
  const KeyGroup warm = testing::group("01*", 8);
  const KeyGroup hot = testing::group("10*", 8);
  server.meter_repl_bytes(cold, 10);
  server.meter_repl_bytes(warm, 100);
  server.meter_repl_bytes(hot, 1000);

  NodeCensusRecord rec;
  server.fold_census(rec, /*top_k=*/2);
  ASSERT_EQ(rec.top_groups.size(), 2u);  // truncated to K
  EXPECT_EQ(rec.top_groups[0].group, hot);
  EXPECT_EQ(rec.top_groups[1].group, warm);
  EXPECT_EQ(rec.totals.repl_bytes, 1110u);  // totals span ALL groups
}

}  // namespace
}  // namespace clash
