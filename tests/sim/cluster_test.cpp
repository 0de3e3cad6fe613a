#include "sim/cluster.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "tests/clash/test_util.hpp"

namespace clash::sim {
namespace {

TEST(Cluster, BootstrapCreatesInitialDepthRoots) {
  SimCluster cluster(testing::small_cluster_config(16, 8, 3));
  cluster.bootstrap();

  // 2^3 = 8 active root groups, prefix-free, covering the key space.
  EXPECT_EQ(cluster.owner_index().size(), 8u);
  for (const auto& [group, owner] : cluster.owner_index()) {
    EXPECT_EQ(group.depth(), 3u);
    EXPECT_TRUE(owner.valid());
    const auto* entry = cluster.server(owner).table().find(group);
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(entry->root);
  }
  EXPECT_EQ(cluster.check_invariants(), std::nullopt);

  // Every key has exactly one owner.
  for (std::uint64_t v = 0; v < 256; ++v) {
    EXPECT_TRUE(cluster.find_owner(Key(v, 8)).has_value());
  }
}

TEST(Cluster, BootstrapLineageSupportsShallowProbes) {
  SimCluster cluster(testing::small_cluster_config(16, 8, 3));
  cluster.bootstrap();
  // For every depth d < initial_depth, the server owning Map(shape(k,d))
  // holds a lineage entry whose prefix matches k to >= d bits, so a
  // client probing too shallow always gets dmin >= d (search soundness).
  for (std::uint64_t v = 0; v < 256; v += 7) {
    const Key k(v, 8);
    for (unsigned d = 0; d < 3; ++d) {
      const auto h = cluster.hasher().hash_key(shape(k, d));
      const ServerId owner = cluster.ring().map(h);
      EXPECT_GE(cluster.server(owner).table().longest_prefix_match(k), d);
    }
  }
}

TEST(Cluster, BootstrapResetsStats) {
  SimCluster cluster(testing::small_cluster_config(16, 8, 3));
  cluster.bootstrap();
  const auto stats = cluster.total_stats();
  EXPECT_EQ(stats.total_messages(), 0u);
  EXPECT_EQ(stats.splits, 0u);
}

TEST(Cluster, OwnerIndexTracksSplits) {
  SimCluster cluster(testing::small_cluster_config(16, 8, 3));
  cluster.bootstrap();
  const Key k(0b10110000, 8);
  const auto group_before = cluster.find_active_group(k).value();
  const auto owner = cluster.find_owner(k).value();
  ASSERT_TRUE(cluster.server(owner).force_split(group_before));

  const auto group_after = cluster.find_active_group(k).value();
  EXPECT_EQ(group_after.depth(), group_before.depth() + 1);
  EXPECT_EQ(cluster.check_invariants(), std::nullopt);
  // 8 roots -> 9 leaves after one split.
  EXPECT_EQ(cluster.owner_index().size(), 9u);
}

TEST(Cluster, ZeroDelayMessageLandsAfterItsSendersHandler) {
  SimCluster cluster(testing::small_cluster_config(16, 8, 2, 1e9));
  cluster.bootstrap();
  // A group whose right child maps to another server: its split ships
  // the child there in an AcceptKeyGroup.
  KeyGroup group;
  ServerId owner;
  ServerId right_owner;
  for (const auto& [g, o] : cluster.owner_index()) {
    const ServerId to = cluster.ring().map(
        cluster.hasher().hash_key(g.right_child().virtual_key()));
    if (to != o) {
      group = g;
      owner = o;
      right_owner = to;
      break;
    }
  }
  ASSERT_TRUE(owner.valid());
  const KeyGroup right = group.right_child();

  std::vector<std::string> order;
  const SimTime t = cluster.now();
  cluster.events().at(t, [&] {
    EXPECT_TRUE(cluster.server(owner).force_split(group));
    order.push_back(cluster.owner_index().count(right) > 0
                        ? "landed inside the sender's handler"
                        : "sender returned");
  });
  cluster.events().at(t, [&] {
    order.push_back(cluster.owner_index().count(right) > 0
                        ? "landed before the next event"
                        : "next event ran first");
  });
  cluster.run_until(t);
  EXPECT_EQ(order, (std::vector<std::string>{"sender returned",
                                             "landed before the next event"}));
  EXPECT_EQ(cluster.owner_index().at(right), right_owner);
  EXPECT_EQ(cluster.check_invariants(), std::nullopt);
}

TEST(Cluster, WithdrawStreamRemovesRate) {
  SimCluster cluster(testing::small_cluster_config(16, 8, 3));
  cluster.bootstrap();
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  const Key k(0b11100000, 8);
  AcceptObject obj;
  obj.key = k;
  obj.kind = ObjectKind::kData;
  obj.source = ClientId{5};
  obj.stream_rate = 12;
  ASSERT_TRUE(client.insert(obj).ok);

  const auto owner = cluster.find_owner(k).value();
  EXPECT_DOUBLE_EQ(cluster.server(owner).server_load(), 12.0);
  cluster.withdraw_stream(ClientId{5}, k);
  EXPECT_DOUBLE_EQ(cluster.server(owner).server_load(), 0.0);
}

TEST(Cluster, SnapshotReflectsLoadAndDepths) {
  SimCluster cluster(testing::small_cluster_config(16, 8, 3, 100.0));
  cluster.bootstrap();
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  AcceptObject obj;
  obj.key = Key(0b11100000, 8);
  obj.kind = ObjectKind::kData;
  obj.source = ClientId{1};
  obj.stream_rate = 50;
  ASSERT_TRUE(client.insert(obj).ok);

  const auto snap = cluster.snapshot();
  EXPECT_DOUBLE_EQ(snap.max_load_frac, 0.5);
  EXPECT_EQ(snap.active_servers, 1u);  // only one loaded server
  EXPECT_EQ(snap.active_groups, 8u);
  EXPECT_EQ(snap.min_depth, 3u);
  EXPECT_EQ(snap.max_depth, 3u);
  EXPECT_DOUBLE_EQ(snap.avg_depth, 3.0);
}

TEST(Cluster, EnsureGroupInstallsLazily) {
  auto cfg = testing::small_cluster_config(16, 8, 4);
  cfg.clash.ephemeral_groups = true;
  SimCluster cluster(cfg);  // no bootstrap: fixed-depth style
  const Key k(0b10101010, 8);
  const KeyGroup g = KeyGroup::of(k, 4);
  EXPECT_FALSE(cluster.find_owner(k).has_value());
  cluster.ensure_group(g);
  EXPECT_TRUE(cluster.find_owner(k).has_value());
  cluster.ensure_group(g);  // idempotent
  EXPECT_EQ(cluster.owner_index().size(), 1u);

  // Ephemeral: the entry disappears when its last object leaves.
  const auto owner = cluster.find_owner(k).value();
  AcceptObject obj;
  obj.key = k;
  obj.kind = ObjectKind::kData;
  obj.source = ClientId{1};
  obj.stream_rate = 1;
  obj.depth = 4;
  (void)cluster.server(owner).handle_accept_object(obj);
  cluster.withdraw_stream(ClientId{1}, k);
  EXPECT_FALSE(cluster.find_owner(k).has_value());
}

TEST(Cluster, LoadChecksSplitHotspotAcrossServers) {
  // One very hot base region: repeated load checks must spread it until
  // no server exceeds the overload threshold (the paper's core claim).
  auto cfg = testing::small_cluster_config(32, 10, 2, /*capacity=*/100.0);
  SimCluster cluster(cfg);
  cluster.bootstrap();

  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  Rng rng(5);
  // 400 units of load, all inside the top-left quarter of key space:
  // one root group holds 4x a server's capacity.
  for (int i = 0; i < 100; ++i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & 0xFF, 10);  // prefix 00
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{std::uint64_t(i)};
    obj.stream_rate = 4;
    ASSERT_TRUE(client.insert(obj).ok);
  }

  for (int round = 0; round < 12; ++round) {
    cluster.run_until(SimTime::from_minutes(5 * (round + 1)));
    cluster.run_all_load_checks();
  }
  const auto snap = cluster.snapshot();
  EXPECT_LE(snap.max_load_frac, 0.90 + 1e-9);
  EXPECT_GT(snap.active_servers, 3u);  // hotspot spread across servers
  EXPECT_EQ(cluster.check_invariants(), std::nullopt);
  EXPECT_GT(cluster.total_stats().splits, 0u);
}

TEST(Cluster, ConsolidationShrinksTreeWhenLoadLeaves) {
  auto cfg = testing::small_cluster_config(32, 10, 2, /*capacity=*/100.0);
  SimCluster cluster(cfg);
  cluster.bootstrap();
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  Rng rng(6);
  std::vector<Key> keys;
  for (int i = 0; i < 100; ++i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & 0xFF, 10);
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{std::uint64_t(i)};
    obj.stream_rate = 4;
    keys.push_back(obj.key);
    ASSERT_TRUE(client.insert(obj).ok);
  }
  for (int round = 0; round < 12; ++round) {
    cluster.run_until(SimTime::from_minutes(5 * (round + 1)));
    cluster.run_all_load_checks();
  }
  const auto peak_groups = cluster.owner_index().size();
  ASSERT_GT(peak_groups, 4u);

  // Load vanishes: the tree consolidates back toward the 4 roots.
  for (int i = 0; i < 100; ++i) {
    cluster.withdraw_stream(ClientId{std::uint64_t(i)}, keys[std::size_t(i)]);
  }
  for (int round = 12; round < 40; ++round) {
    cluster.run_until(SimTime::from_minutes(5 * (round + 1)));
    cluster.run_all_load_checks();
  }
  EXPECT_EQ(cluster.owner_index().size(), 4u);  // back to the root floor
  EXPECT_EQ(cluster.check_invariants(), std::nullopt);
  EXPECT_GT(cluster.total_stats().merges, 0u);
}

/// Another live server than `owner`.
ServerId other_than(ServerId owner) {
  return ServerId{(owner.value + 1) % 16};
}

TEST(Cluster, InvariantsCatchOverlappingActiveGroups) {
  SimCluster cluster(testing::small_cluster_config(16, 8, 3));
  cluster.bootstrap();
  const auto [group, owner] = *cluster.owner_index().begin();
  ServerTableEntry child;
  child.group = group.left_child();
  child.active = true;
  cluster.server(other_than(owner)).install_entry(child);
  const auto err = cluster.check_invariants();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, "active groups " + group.label() + " and " +
                      child.group.label() + " overlap");
}

TEST(Cluster, InvariantsCatchIndexDisagreeingWithATable) {
  SimCluster cluster(testing::small_cluster_config(16, 8, 3));
  cluster.bootstrap();
  const auto [group, owner] = *cluster.owner_index().begin();
  ServerTableEntry twin;
  twin.group = group;
  twin.active = true;
  // The index now names the second server; the owner's table disagrees.
  cluster.server(other_than(owner)).install_entry(twin);
  const auto err = cluster.check_invariants();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(*err, "owner index disagrees for " + group.label());
}

}  // namespace
}  // namespace clash::sim
