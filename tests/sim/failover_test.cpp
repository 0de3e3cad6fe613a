// Failure injection for the replication extension: crash servers and
// verify that replicated groups fail over with their state, the key
// space stays fully resolvable, and invariants hold.
#include <gtest/gtest.h>

#include "clash/client.hpp"
#include "common/rng.hpp"
#include "sim/cluster.hpp"
#include "tests/clash/test_util.hpp"

namespace clash::sim {
namespace {

SimCluster::Config replicated_config(unsigned factor) {
  auto cfg = testing::small_cluster_config(24, 10, 3, /*capacity=*/200.0);
  cfg.clash.replication_factor = factor;
  return cfg;
}

/// Registers `n` streams with deterministic keys; returns their keys.
std::vector<Key> load_streams(SimCluster& cluster, ClashClient& client,
                              std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Key> keys;
  for (std::size_t i = 0; i < n; ++i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & 0x3FF, 10);
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{i};
    obj.stream_rate = 2;
    EXPECT_TRUE(client.insert(obj).ok);
    keys.push_back(obj.key);
  }
  (void)cluster;
  return keys;
}

TEST(Failover, ReplicasFormAfterLoadChecks) {
  SimCluster cluster(replicated_config(2));
  cluster.bootstrap();
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  (void)load_streams(cluster, client, 50, 7);

  cluster.set_now(SimTime::from_minutes(5));
  cluster.run_all_load_checks();

  std::size_t replicas = 0;
  for (std::size_t i = 0; i < 24; ++i) {
    replicas += cluster.server(ServerId{i}).replica_count();
  }
  // 8 root groups x 2 replicas each.
  EXPECT_EQ(replicas, 16u);
  EXPECT_GT(cluster.total_stats().replications, 0u);
}

TEST(Failover, StateSurvivesServerCrash) {
  SimCluster cluster(replicated_config(2));
  cluster.bootstrap();
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  const auto keys = load_streams(cluster, client, 60, 11);
  cluster.set_now(SimTime::from_minutes(5));
  cluster.run_all_load_checks();  // replicas form

  // Crash the busiest server.
  ServerId victim{};
  double max_load = -1;
  for (std::size_t i = 0; i < 24; ++i) {
    const double load = cluster.server(ServerId{i}).server_load();
    if (load > max_load) {
      max_load = load;
      victim = ServerId{i};
    }
  }
  const auto victim_streams = cluster.server(victim).total_streams();
  ASSERT_GT(victim_streams, 0u);

  const auto recovered = cluster.fail_server(victim);
  EXPECT_GT(recovered, 0u);
  EXPECT_EQ(cluster.alive_count(), 23u);
  EXPECT_EQ(cluster.check_invariants(), std::nullopt);

  // Every stream is still registered somewhere (no state loss), and
  // every key resolves.
  std::size_t streams_found = 0;
  for (std::size_t i = 0; i < 24; ++i) {
    if (!cluster.is_alive(ServerId{i})) continue;
    streams_found += cluster.server(ServerId{i}).total_streams();
  }
  EXPECT_EQ(streams_found, keys.size());
  EXPECT_EQ(cluster.total_stats().groups_lost, 0u);

  ClashClient fresh(cluster.clash_config(), cluster.client_env(ServerId{1}),
                    cluster.hasher());
  for (const auto& k : keys) {
    const auto out = fresh.resolve(k);
    ASSERT_TRUE(out.ok);
    EXPECT_NE(out.server, victim);
  }
}

TEST(Failover, WithoutReplicationGroupsComeBackEmpty) {
  SimCluster cluster(replicated_config(0));  // replication off
  cluster.bootstrap();
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  const auto keys = load_streams(cluster, client, 60, 13);
  cluster.set_now(SimTime::from_minutes(5));
  cluster.run_all_load_checks();

  ServerId victim = *cluster.find_owner(keys[0]);
  const auto recovered = cluster.fail_server(victim);
  EXPECT_EQ(recovered, 0u);  // nothing to promote from
  EXPECT_GT(cluster.total_stats().groups_lost, 0u);

  // Coverage is healed (resolvable), but the state is gone.
  ClashClient fresh(cluster.clash_config(), cluster.client_env(ServerId{1}),
                    cluster.hasher());
  const auto out = fresh.resolve(keys[0]);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(cluster.check_invariants(), std::nullopt);
}

TEST(Failover, CascadingFailuresStayConsistent) {
  SimCluster cluster(replicated_config(3));
  cluster.bootstrap();
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  const auto keys = load_streams(cluster, client, 80, 17);

  Rng rng(23);
  for (int round = 0; round < 6; ++round) {
    cluster.set_now(SimTime::from_minutes(5 * (round + 1)));
    cluster.run_all_load_checks();  // refresh replicas between crashes
    // Crash a random live server.
    for (;;) {
      const ServerId victim{rng.below(24)};
      if (cluster.is_alive(victim)) {
        cluster.fail_server(victim);
        break;
      }
    }
    ASSERT_EQ(cluster.check_invariants(), std::nullopt) << "round " << round;
  }
  EXPECT_EQ(cluster.alive_count(), 18u);

  // The full key space still resolves through a fresh client.
  ClashClient fresh(cluster.clash_config(),
                    cluster.client_env(ServerId{23}), cluster.hasher());
  for (std::uint64_t v = 0; v < 1024; v += 31) {
    const auto out = fresh.resolve(Key(v, 10));
    ASSERT_TRUE(out.ok) << v;
  }
}

TEST(Failover, PromotedBootstrapGroupsStayRoots) {
  // Bootstrap replicates the depth-d0 leaves while force-splitting,
  // before it marks them as roots. With no put (and so no later
  // snapshot) in between, the replicas must still learn the flag, or a
  // promoted copy could consolidate above the administrative floor.
  auto cfg = replicated_config(2);
  cfg.clash.replication_mode = ClashConfig::ReplicationMode::kLog;
  SimCluster cluster(cfg);
  cluster.bootstrap();

  const ServerId victim = cluster.owner_index().begin()->second;
  std::vector<KeyGroup> owned;
  for (const auto& [group, owner] : cluster.owner_index()) {
    if (owner == victim) owned.push_back(group);
  }
  ASSERT_FALSE(owned.empty());
  EXPECT_EQ(cluster.fail_server(victim), owned.size());

  for (const auto& group : owned) {
    const auto heir = cluster.owner_index().find(group);
    ASSERT_NE(heir, cluster.owner_index().end()) << group.label();
    const ServerTableEntry* entry =
        cluster.server(heir->second).table().find(group);
    ASSERT_NE(entry, nullptr) << group.label();
    EXPECT_TRUE(entry->active) << group.label();
    EXPECT_TRUE(entry->root) << group.label();
  }
  EXPECT_EQ(cluster.total_stats().groups_lost, 0u);
}

TEST(Failover, SplitGroupsFailOverToo) {
  // Force deep splits, replicate, crash the deep owner: the promoted
  // child keeps its lineage (parent pointer) so consolidation still
  // works later.
  SimCluster cluster(replicated_config(2));
  cluster.bootstrap();
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  (void)load_streams(cluster, client, 40, 29);

  const Key hot(0b1110000000, 10);
  for (int i = 0; i < 3; ++i) {
    const auto g = cluster.find_active_group(hot);
    ASSERT_TRUE(cluster.server(*cluster.find_owner(hot)).force_split(*g));
  }
  cluster.set_now(SimTime::from_minutes(5));
  cluster.run_all_load_checks();  // replicate the deepened tree

  const auto deep_group = cluster.find_active_group(hot).value();
  ASSERT_EQ(deep_group.depth(), 6u);
  const ServerId owner = *cluster.find_owner(hot);
  cluster.fail_server(owner);

  const auto new_owner = cluster.find_owner(hot);
  ASSERT_TRUE(new_owner.has_value());
  EXPECT_NE(*new_owner, owner);
  EXPECT_EQ(cluster.find_active_group(hot).value(), deep_group);
  EXPECT_EQ(cluster.check_invariants(), std::nullopt);
}

}  // namespace
}  // namespace clash::sim
