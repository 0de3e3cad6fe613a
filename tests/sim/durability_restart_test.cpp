// Crash + restart with the durable storage subsystem under the
// simulator: a killed node must come back with its own groups from
// local disk (zero lost queries), a torn WAL tail must heal through
// the replica set's suffix repair, and the local-disk path must move
// strictly fewer bytes over the network than a diskless node's
// evict -> promote -> rejoin -> hand-back path.
#include <gtest/gtest.h>

#include <map>

#include "clash/client.hpp"
#include "common/rng.hpp"
#include "sim/churn.hpp"
#include "sim/cluster.hpp"
#include "sim/runtime.hpp"

namespace clash::sim {
namespace {

struct Loaded {
  std::size_t streams = 0;
  std::size_t queries = 0;
};

SimCluster::Config durable_cluster_config(ClashConfig::DurabilityMode mode,
                                          unsigned factor) {
  SimCluster::Config cfg;
  cfg.num_servers = 16;
  cfg.seed = 42;
  cfg.clash.key_width = 24;
  cfg.clash.initial_depth = 4;
  cfg.clash.capacity = 1e9;  // no splitting noise
  cfg.clash.replication_factor = factor;
  cfg.clash.durability_mode = mode;
  cfg.clash.fsync_policy = ClashConfig::FsyncPolicy::kPerAppend;
  return cfg;
}

Loaded load_cluster(SimCluster& cluster, std::size_t n_streams,
                    std::size_t n_queries, std::uint64_t seed) {
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  Rng rng(seed);
  for (std::size_t i = 0; i < n_streams; ++i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & 0xFFFFFF, 24);
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{i};
    obj.stream_rate = 1;
    EXPECT_TRUE(client.insert(obj).ok);
  }
  for (std::size_t i = 0; i < n_queries; ++i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & 0xFFFFFF, 24);
    obj.kind = ObjectKind::kQuery;
    obj.query_id = QueryId{i};
    EXPECT_TRUE(client.insert(obj).ok);
  }
  return Loaded{n_streams, n_queries};
}

std::pair<std::size_t, std::size_t> count_objects(SimCluster& cluster) {
  std::size_t streams = 0;
  std::size_t queries = 0;
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    const ServerId id{i};
    if (!cluster.is_alive(id)) continue;
    streams += cluster.server(id).total_streams();
    queries += cluster.server(id).total_queries();
  }
  return {streams, queries};
}

/// Run the queue through the heirs' recovery grace window.
void wait_out_grace(SimCluster& cluster) {
  cluster.run_until(cluster.now() + cluster.clash_config().recovery_grace);
}

/// Crash `victim` and bring it back the way a node of this durability
/// mode comes back. A durable node restarts before anyone evicts it
/// and re-adopts its groups from disk. A diskless node knows nothing
/// of its groups, so it comes back through crash -> evict -> restart
/// -> join: the holders promote its groups, then hand them back.
void crash_and_restart(SimCluster& cluster, ServerId victim) {
  cluster.crash_server(victim);
  const bool diskless = cluster.clash_config().durability_mode ==
                        ClashConfig::DurabilityMode::kNone;
  if (diskless) {
    cluster.evict_server(victim);
    wait_out_grace(cluster);
  }
  cluster.restart_server(victim);
  wait_out_grace(cluster);
  if (diskless) cluster.join_server(victim);
}

ServerId busiest_server(SimCluster& cluster) {
  std::map<std::uint64_t, std::size_t> groups_of;
  for (const auto& [group, owner] : cluster.owner_index()) {
    groups_of[owner.value]++;
  }
  ServerId victim{0};
  std::size_t best = 0;
  for (const auto& [id, n] : groups_of) {
    if (n > best) {
      best = n;
      victim = ServerId{id};
    }
  }
  return victim;
}

TEST(DurabilityRestart, KilledNodeRecoversItsGroupsFromLocalDisk) {
  auto cfg = durable_cluster_config(
      ClashConfig::DurabilityMode::kWalSnapshot, 2);
  SimCluster cluster(cfg);
  cluster.bootstrap();
  const auto loaded = load_cluster(cluster, 600, 150, 7);
  cluster.run_until(SimTime::from_minutes(5));
  cluster.run_all_load_checks();

  const ServerId victim = busiest_server(cluster);
  const std::size_t victim_groups =
      cluster.server(victim).table().active_count();
  ASSERT_GT(victim_groups, 0u);
  const std::size_t victim_streams = cluster.server(victim).total_streams();
  const std::size_t victim_queries = cluster.server(victim).total_queries();

  const auto before = cluster.total_stats();
  cluster.crash_server(victim);
  cluster.restart_server(victim);
  wait_out_grace(cluster);
  const auto delta = cluster.total_stats() - before;

  // Every group is back on the victim, with its state, from disk.
  EXPECT_EQ(delta.groups_lost, 0u);
  EXPECT_EQ(cluster.server(victim).table().active_count(), victim_groups);
  EXPECT_EQ(cluster.server(victim).total_streams(), victim_streams);
  EXPECT_EQ(cluster.server(victim).total_queries(), victim_queries);
  const auto [streams, queries] = count_objects(cluster);
  EXPECT_EQ(streams, loaded.streams);
  EXPECT_EQ(queries, loaded.queries);
  EXPECT_EQ(cluster.check_invariants(), std::nullopt);
  // Local recovery: no snapshot needed to flow INTO the victim (the
  // outbound re-replication after promotion is the only chunk
  // traffic, and the recovery pull repaired zero entries — the disk
  // was complete).
  EXPECT_EQ(cluster.server(victim).recovery_stats().snapshots_pulled, 0u);
  EXPECT_EQ(cluster.server(victim).recovery_stats().entries_repaired, 0u);
}

TEST(DurabilityRestart, TornWalTailHealsFromReplicaSuffix) {
  auto cfg = durable_cluster_config(
      ClashConfig::DurabilityMode::kWalSnapshot, 2);
  // No fsync at all: the crash drops every byte the OS never flushed,
  // plus a torn record — the worst disk the policy allows.
  cfg.clash.fsync_policy = ClashConfig::FsyncPolicy::kNever;
  SimCluster cluster(cfg);
  cluster.bootstrap();
  const auto loaded = load_cluster(cluster, 400, 100, 11);
  cluster.run_until(SimTime::from_minutes(5));
  cluster.run_all_load_checks();

  const ServerId victim = busiest_server(cluster);
  auto* backend = cluster.storage_backend(victim);
  ASSERT_NE(backend, nullptr);
  backend->set_crash_fault(storage::MemBackend::CrashFault{false, 37});

  const std::size_t victim_streams = cluster.server(victim).total_streams();
  const std::size_t victim_queries = cluster.server(victim).total_queries();
  cluster.crash_server(victim);
  cluster.restart_server(victim);
  wait_out_grace(cluster);

  // The disk lost a tail, but the recovery pull streamed the missing
  // suffix from the surviving holders within the grace, before
  // promotion.
  EXPECT_GT(cluster.server(victim).recovery_stats().entries_repaired +
                cluster.server(victim).recovery_stats().snapshots_pulled,
            0u);
  EXPECT_EQ(cluster.server(victim).total_streams(), victim_streams);
  EXPECT_EQ(cluster.server(victim).total_queries(), victim_queries);
  const auto [streams, queries] = count_objects(cluster);
  EXPECT_EQ(streams, loaded.streams);
  EXPECT_EQ(queries, loaded.queries);
  EXPECT_EQ(cluster.check_invariants(), std::nullopt);
}

TEST(DurabilityRestart, SurvivesRestartWithoutAnyReplicas) {
  // Replication off entirely: the disk is the only copy. kNone loses
  // every group; kWalSnapshot loses nothing.
  for (const auto mode : {ClashConfig::DurabilityMode::kNone,
                          ClashConfig::DurabilityMode::kWalSnapshot}) {
    auto cfg = durable_cluster_config(mode, 0);
    SimCluster cluster(cfg);
    cluster.bootstrap();
    const auto loaded = load_cluster(cluster, 300, 80, 23);
    cluster.run_until(SimTime::from_minutes(5));
    cluster.run_all_load_checks();

    const ServerId victim = busiest_server(cluster);
    const std::size_t victim_groups =
        cluster.server(victim).table().active_count();
    crash_and_restart(cluster, victim);
    const auto [streams, queries] = count_objects(cluster);
    if (mode == ClashConfig::DurabilityMode::kNone) {
      EXPECT_LT(streams, loaded.streams);
      EXPECT_EQ(cluster.total_stats().groups_lost, victim_groups);
    } else {
      EXPECT_EQ(streams, loaded.streams);
      EXPECT_EQ(queries, loaded.queries);
    }
    EXPECT_EQ(cluster.check_invariants(), std::nullopt);
  }
}

TEST(DurabilityRestart, AckedPutSurvivesACrashInTheSameInstant) {
  // kPerAppend: no reply before its record is synced. The server's
  // commit runs at the end of the request's tick, before the reply
  // leaves; a crash at the same sim time, before the queue runs again,
  // must not lose the acked write.
  SimCluster cluster(
      durable_cluster_config(ClashConfig::DurabilityMode::kWalSnapshot, 0));
  cluster.bootstrap();
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    cluster.storage_backend(ServerId{i})->set_crash_fault(
        storage::MemBackend::CrashFault{.drop_unsynced = true});
  }

  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  AcceptObject obj;
  obj.key = Key(0xABCDEF, 24);
  obj.kind = ObjectKind::kData;
  obj.source = ClientId{7};
  obj.stream_rate = 1;
  const auto acked = client.insert(obj);
  ASSERT_TRUE(acked.ok);
  ASSERT_EQ(cluster.server(acked.server).total_streams(), 1u);

  cluster.crash_server(acked.server);
  cluster.restart_server(acked.server);
  EXPECT_EQ(cluster.server(acked.server).total_streams(), 1u)
      << "the acked put was lost with the unsynced WAL tail";
}

TEST(DurabilityRestart, PowerOfTwoPlacementAcksOnlySyncedPuts) {
  // The Runtime's power-of-two path picks the cooler candidate itself
  // and puts straight into it. It too counts a put as acked only once
  // the request's tick (its commit included) ran: a crash right after
  // the run must keep every placed object.
  RuntimeConfig rc;
  rc.cluster =
      durable_cluster_config(ClashConfig::DurabilityMode::kWalSnapshot, 0);
  rc.mode = Mode::kPowerOfTwo;
  rc.num_sources = 64;
  rc.num_query_clients = 16;
  rc.mean_stream_packets = 1e9;  // no key changes within the run
  rc.mean_query_lifetime = SimTime::from_hours(1e4);
  rc.phases = {{'A', SimTime::from_minutes(1)}};
  Runtime rt(std::move(rc));
  SimCluster& cluster = rt.cluster();
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    cluster.storage_backend(ServerId{i})->set_crash_fault(
        storage::MemBackend::CrashFault{.drop_unsynced = true});
  }
  const RunResult r = rt.run();
  ASSERT_EQ(r.failed_resolves, 0u);

  std::size_t streams = 0;
  std::size_t queries = 0;
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    streams += cluster.server(ServerId{i}).total_streams();
    queries += cluster.server(ServerId{i}).total_queries();
  }
  ASSERT_EQ(streams, 64u);
  ASSERT_EQ(queries, 16u);

  // Objects a server holds: its active groups, plus the recovered
  // records it did not re-adopt (placement need not follow the ring).
  const auto held = [&cluster](ServerId id) {
    const ClashServer& s = cluster.server(id);
    std::size_t n = s.total_streams() + s.total_queries();
    for (const KeyGroup& g : s.replica_groups()) {
      n += s.replica_state(g)->streams.size() +
           s.replica_state(g)->queries.size();
    }
    return n;
  };
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    const ServerId id{i};
    const std::size_t before = held(id);
    cluster.crash_server(id);
    cluster.restart_server(id);
    EXPECT_EQ(held(id), before)
        << "s" << i << " lost acked puts with its unsynced WAL tail";
  }
}

TEST(DurabilityRestart, FullChurnLifecycleComposesWithStaleDiskImages) {
  // Kill -> detect -> evict -> promote -> revive under live SWIM, with
  // durability on: the revived node restores a now-stale disk image
  // (its groups were failed over at higher epochs while it was down)
  // and the handoff/anti-entropy machinery must supersede it cleanly.
  ChurnSim::Config cfg;
  cfg.cluster.num_servers = 12;
  cfg.cluster.seed = 1234;
  cfg.cluster.clash.key_width = 16;
  cfg.cluster.clash.initial_depth = 3;
  cfg.cluster.clash.capacity = 1e9;
  cfg.cluster.clash.replication_factor = 2;
  cfg.cluster.clash.durability_mode =
      ClashConfig::DurabilityMode::kWalSnapshot;
  cfg.cluster.clash.fsync_policy = ClashConfig::FsyncPolicy::kPerAppend;
  cfg.seed = 99;
  ChurnSim sim(cfg);
  sim.start();

  ClashClient client(sim.cluster().clash_config(),
                     sim.cluster().client_env(ServerId{0}),
                     sim.cluster().hasher());
  Rng rng(17);
  constexpr std::size_t kQueries = 120;
  for (std::size_t i = 0; i < kQueries; ++i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & 0xFFFF, 16);
    obj.kind = ObjectKind::kQuery;
    obj.query_id = QueryId{i};
    ASSERT_TRUE(client.insert(obj).ok);
  }
  sim.run_for(SimTime::from_minutes(11));  // replication settles

  const ServerId victim{3};
  sim.kill(victim);
  for (int p = 0; p < 40 && !sim.all_survivors_see_dead(victim); ++p) {
    sim.run_for(sim.protocol_period());
  }
  ASSERT_TRUE(sim.all_survivors_see_dead(victim));
  sim.run_for(SimTime::from_minutes(6));  // failover re-replicates

  sim.revive(victim);
  for (int p = 0; p < 40 && !sim.all_survivors_see_alive(victim); ++p) {
    sim.run_for(sim.protocol_period());
  }
  sim.run_for(SimTime::from_minutes(11));  // handoffs + anti-entropy

  std::size_t queries = 0;
  for (std::size_t i = 0; i < 12; ++i) {
    if (!sim.cluster().is_alive(ServerId{i})) continue;
    queries += sim.cluster().server(ServerId{i}).total_queries();
  }
  EXPECT_EQ(queries, kQueries);
  EXPECT_EQ(sim.cluster().total_stats().groups_lost, 0u);
  EXPECT_EQ(sim.cluster().check_invariants(), std::nullopt);
}

TEST(DurabilityRestart, LocalRecoveryMovesFewerBytesThanNetworkPull) {
  std::map<int, std::uint64_t> bytes;
  for (const auto mode : {ClashConfig::DurabilityMode::kNone,
                          ClashConfig::DurabilityMode::kWalSnapshot}) {
    auto cfg = durable_cluster_config(mode, 2);
    SimCluster cluster(cfg);
    cluster.bootstrap();
    load_cluster(cluster, 600, 150, 7);
    cluster.run_until(SimTime::from_minutes(5));
    cluster.run_all_load_checks();

    const ServerId victim = busiest_server(cluster);
    const std::size_t victim_streams = cluster.server(victim).total_streams();
    const auto before = cluster.total_stats();
    crash_and_restart(cluster, victim);
    const auto delta = cluster.total_stats() - before;
    bytes[int(mode)] = delta.wire_bytes;
    EXPECT_EQ(delta.groups_lost, 0u);  // factor 2 keeps state either way
    // Either way the victim serves its own groups again, with state.
    EXPECT_EQ(cluster.server(victim).total_streams(), victim_streams);
    EXPECT_EQ(count_objects(cluster).first, 600u);
    EXPECT_EQ(cluster.check_invariants(), std::nullopt);
  }
  // Strictly fewer network bytes when the state comes off local disk.
  EXPECT_LT(bytes[int(ClashConfig::DurabilityMode::kWalSnapshot)],
            bytes[int(ClashConfig::DurabilityMode::kNone)]);
}

}  // namespace
}  // namespace clash::sim
