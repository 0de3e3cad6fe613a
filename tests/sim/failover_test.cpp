// Failure injection for the replication extension: crash servers and
// verify that replicated groups fail over with their state, the key
// space stays fully resolvable, and invariants hold.
#include <gtest/gtest.h>

#include <map>

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

  cluster.run_until(SimTime::from_minutes(5));
  cluster.run_all_load_checks();

  std::size_t replicas = 0;
  for (std::size_t i = 0; i < 24; ++i) {
    replicas += cluster.server(ServerId{i}).replica_count();
  }
  // 8 root groups x 2 replicas each.
  EXPECT_EQ(replicas, 16u);
  EXPECT_GT(cluster.total_stats().replication_log_messages(), 0u);
}

TEST(Failover, StateSurvivesServerCrash) {
  SimCluster cluster(replicated_config(2));
  cluster.bootstrap();
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  const auto keys = load_streams(cluster, client, 60, 11);
  cluster.run_until(SimTime::from_minutes(5));
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
  // What ships at factor 0: no server holds a replica record, so the
  // failover rule never fires — a dead owner's groups come back as
  // nothing at all (no empty stand-in is adopted), and every one of them
  // counts as lost.
  SimCluster cluster(replicated_config(0));
  cluster.bootstrap();
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  const auto keys = load_streams(cluster, client, 60, 13);
  cluster.run_until(SimTime::from_minutes(5));
  cluster.run_all_load_checks();

  const ServerId victim = *cluster.find_owner(keys[0]);
  std::vector<KeyGroup> owned;
  for (const auto& [group, owner] : cluster.owner_index()) {
    if (owner == victim) owned.push_back(group);
  }
  ASSERT_FALSE(owned.empty());
  EXPECT_EQ(cluster.fail_server(victim), 0u);  // nothing to promote from
  EXPECT_EQ(cluster.total_stats().groups_lost, owned.size());
  EXPECT_EQ(cluster.total_stats().failovers, 0u);
  for (const auto& group : owned) {
    EXPECT_EQ(cluster.owner_index().count(group), 0u) << group.label();
    for (std::size_t i = 0; i < 24; ++i) {
      if (!cluster.is_alive(ServerId{i})) continue;
      EXPECT_EQ(cluster.server(ServerId{i}).table().find(group), nullptr)
          << group.label() << " adopted by s" << i;
    }
  }
  EXPECT_FALSE(cluster.find_active_group(keys[0]).has_value());
  EXPECT_EQ(cluster.check_invariants(), std::nullopt);
}

TEST(Failover, HeirDyingBeforeItsEvictionStillFailsOver) {
  // The owner and its heir crash together; the owner is evicted while
  // the heir is still on the ring, so nobody may promote yet. Evicting
  // the heir moves the groups to the next holder, which must adopt
  // them with their state (nothing parks them: the failover rule is
  // re-evaluated over every record at every eviction).
  SimCluster cluster(replicated_config(2));
  cluster.bootstrap();
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  const auto keys = load_streams(cluster, client, 80, 31);
  cluster.run_until(SimTime::from_minutes(5));
  cluster.run_all_load_checks();

  const KeyGroup group = *cluster.find_active_group(keys[0]);
  const ServerId owner = *cluster.find_owner(keys[0]);
  const auto chain = cluster.ring().successors(
      cluster.hasher().hash_key(group.virtual_key()), 3);
  ASSERT_EQ(chain[0], owner);
  const ServerId heir = chain[1];
  const ServerId holder = chain[2];
  ASSERT_TRUE(cluster.server(holder).has_replica(group));

  std::map<KeyGroup, std::size_t> streams_of;  // the owner's groups
  for (const auto& [g, o] : cluster.owner_index()) {
    if (o != owner) continue;
    streams_of[g] = cluster.server(o).group_state(g)->streams.size();
  }
  cluster.crash_server(owner);
  cluster.crash_server(heir);
  cluster.evict_server(owner);
  EXPECT_EQ(cluster.owner_index().count(group), 0u)
      << "promoted while the ring still maps the group to the dead heir";
  cluster.evict_server(heir);
  cluster.run_until(cluster.now() + cluster.clash_config().recovery_grace);

  for (const auto& [g, streams] : streams_of) {
    const auto now_owner = cluster.owner_index().find(g);
    ASSERT_NE(now_owner, cluster.owner_index().end()) << g.label();
    EXPECT_TRUE(cluster.is_alive(now_owner->second)) << g.label();
    EXPECT_EQ(cluster.server(now_owner->second).group_state(g)->streams.size(),
              streams)
        << g.label();
  }
  EXPECT_EQ(cluster.owner_index().at(group), holder);
  EXPECT_EQ(cluster.total_stats().groups_lost, 0u);
  EXPECT_EQ(cluster.check_invariants(), std::nullopt);
}

/// A loaded, replicated cluster and one group's owner -> heir -> next
/// holder chain on the oracle ring.
struct Chain {
  KeyGroup group;
  ServerId owner;
  ServerId heir;
  ServerId holder;
  std::size_t streams = 0;
};

Chain loaded_chain(SimCluster& cluster, std::uint64_t seed) {
  cluster.bootstrap();
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  const auto keys = load_streams(cluster, client, 80, seed);
  cluster.run_until(SimTime::from_minutes(5));
  cluster.run_all_load_checks();
  Chain c;
  c.group = *cluster.find_active_group(keys[0]);
  c.owner = *cluster.find_owner(keys[0]);
  const auto chain = cluster.ring().successors(
      cluster.hasher().hash_key(c.group.virtual_key()), 3);
  c.heir = chain[1];
  c.holder = chain[2];
  c.streams = cluster.server(c.owner).group_state(c.group)->streams.size();
  return c;
}

TEST(Failover, HeirPromotesOnlyOnceTheGraceWindowPassed) {
  // Log replication: an heir waits recovery_grace on the cluster's
  // clock for a fresher holder's suffix before it promotes.
  SimCluster cluster(replicated_config(2));
  const Chain c = loaded_chain(cluster, 41);
  ASSERT_TRUE(cluster.server(c.heir).has_replica(c.group));
  const SimDuration grace = cluster.clash_config().recovery_grace;

  cluster.crash_server(c.owner);
  cluster.evict_server(c.owner);
  EXPECT_EQ(cluster.owner_index().count(c.group), 0u)
      << "promoted before the grace window closed";
  cluster.run_until(cluster.now() + SimDuration{grace.usec - 1});
  EXPECT_EQ(cluster.owner_index().count(c.group), 0u);

  cluster.run_until(cluster.now() + SimDuration{1});
  ASSERT_EQ(cluster.owner_index().count(c.group), 1u);
  EXPECT_EQ(cluster.owner_index().at(c.group), c.heir);
  EXPECT_EQ(cluster.server(c.heir).group_state(c.group)->streams.size(),
            c.streams);
  EXPECT_EQ(cluster.check_invariants(), std::nullopt);
}

TEST(Failover, HeirCrashInsideTheGraceWindowCancelsItsTimer) {
  SimCluster cluster(replicated_config(2));
  const Chain c = loaded_chain(cluster, 43);
  const SimDuration grace = cluster.clash_config().recovery_grace;

  cluster.crash_server(c.owner);
  cluster.evict_server(c.owner);
  cluster.run_until(cluster.now() + SimDuration{grace.usec / 2});
  cluster.crash_server(c.heir);  // its promotion timer is still pending
  cluster.run_until(cluster.now() + grace);
  // The dead heir's timer never fired, and the next holder's ring still
  // maps the group to the heir.
  EXPECT_EQ(cluster.owner_index().count(c.group), 0u)
      << "a crashed heir's timer promoted the group";

  cluster.evict_server(c.heir);
  cluster.run_until(cluster.now() + grace);
  ASSERT_EQ(cluster.owner_index().count(c.group), 1u);
  EXPECT_EQ(cluster.owner_index().at(c.group), c.holder);
  EXPECT_EQ(cluster.server(c.holder).group_state(c.group)->streams.size(),
            c.streams);
  EXPECT_EQ(cluster.total_stats().groups_lost, 0u);
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
    cluster.run_until(SimTime::from_minutes(5 * (round + 1)));
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
  SimCluster cluster(replicated_config(2));
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
  cluster.run_until(SimTime::from_minutes(5));
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
