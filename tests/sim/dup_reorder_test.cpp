// Duplication + reordering link faults (the remaining ROADMAP fault
// modes): LinkMatrix verdicts, and regression coverage that the
// replication paths stay idempotent under them — duplicated ReplAppend
// frames must not double-apply, duplicated/reordered SnapshotChunks
// must not corrupt an assembly (worst case they nack-restart it), and
// a whole cluster under dup+reorder links converges with nothing lost.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "clash/client.hpp"
#include "common/rng.hpp"
#include "sim/cluster.hpp"
#include "sim/event_queue.hpp"
#include "sim/link_matrix.hpp"

namespace clash::sim {
namespace {

TEST(LinkMatrixDupReorder, VerdictsAndStats) {
  LinkMatrix links(7);
  const ServerId a{0};
  const ServerId b{1};
  links.set_duplication(a, b, 1.0);
  auto v = links.judge(a, b);
  EXPECT_TRUE(v.deliver);
  EXPECT_TRUE(v.duplicate);
  EXPECT_EQ(links.stats().duplicated, 1u);

  links.heal(a, b);
  links.set_reordering(a, b, 1.0, SimDuration{500});
  v = links.judge(a, b);
  EXPECT_TRUE(v.deliver);
  EXPECT_FALSE(v.duplicate);
  EXPECT_GT(v.delay.usec, 0);
  EXPECT_LE(v.delay.usec, 500);
  EXPECT_EQ(links.stats().reordered, 1u);

  // benign() must account for the new modes, or quiet() would skip
  // the judge entirely.
  LinkMatrix::Fault f;
  f.dup_prob = 0.5;
  EXPECT_FALSE(f.benign());
  f = LinkMatrix::Fault{};
  f.reorder_prob = 0.5;
  EXPECT_FALSE(f.benign());
  EXPECT_TRUE(LinkMatrix::Fault{}.benign());
}

struct DelayedCluster {
  explicit DelayedCluster(SimCluster::Config cfg)
      : cluster(std::move(cfg)) {
    cluster.set_delay_sink(
        [this](SimDuration delay, std::function<void()> deliver) {
          events.after(delay, std::move(deliver));
        });
  }

  void drain() {
    // Delayed deliveries can schedule further delayed deliveries
    // (nack -> restart -> more chunks); run to quiescence.
    while (!events.empty()) {
      events.run_until(SimTime{events.now().usec + 10'000'000});
    }
  }

  SimCluster cluster;
  EventQueue events;
};

SimCluster::Config replicated_config() {
  SimCluster::Config cfg;
  cfg.num_servers = 12;
  cfg.seed = 42;
  cfg.clash.key_width = 24;
  cfg.clash.initial_depth = 3;
  cfg.clash.capacity = 1e9;
  cfg.clash.replication_factor = 2;
  cfg.clash.snapshot_chunk_objects = 4;  // multi-chunk snapshots
  return cfg;
}

TEST(DupReorderReplication, DuplicatedAppendsApplyOnce) {
  DelayedCluster sim(replicated_config());
  SimCluster& cluster = sim.cluster;
  cluster.bootstrap();

  // Every link duplicates aggressively from the start.
  LinkMatrix::Fault f;
  f.dup_prob = 0.7;
  cluster.links().set_default_fault(f);

  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  Rng rng(3);
  double expected_rate = 0;
  for (std::size_t i = 0; i < 300; ++i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & 0xFFFFFF, 24);
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{i};
    obj.stream_rate = 2.0;
    expected_rate += 2.0;
    ASSERT_TRUE(client.insert(obj).ok);
  }
  sim.drain();
  ASSERT_GT(cluster.links().stats().duplicated, 0u);

  // Replica-side rates must equal the originals exactly: a re-applied
  // duplicate would double-count stream_rate.
  double replica_rate = 0;
  std::size_t replica_streams = 0;
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    const auto& server = cluster.server(ServerId{i});
    for (const auto& [group, owner] : cluster.owner_index()) {
      if (owner.value == i) continue;
      const GroupState* st = server.replica_state(group);
      if (st == nullptr) continue;
      replica_rate += st->stream_rate;
      replica_streams += st->streams.size();
    }
  }
  ASSERT_GT(replica_streams, 0u);
  EXPECT_DOUBLE_EQ(replica_rate / 2.0, expected_rate);
  EXPECT_EQ(replica_streams, 2u * 300u);
  EXPECT_EQ(cluster.check_invariants(), std::nullopt);
}

TEST(DupReorderReplication, SnapshotAssemblySurvivesDupAndReorder) {
  DelayedCluster sim(replicated_config());
  SimCluster& cluster = sim.cluster;
  cluster.bootstrap();

  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  Rng rng(5);
  for (std::size_t i = 0; i < 400; ++i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & 0xFFFFFF, 24);
    obj.kind = i % 4 == 0 ? ObjectKind::kQuery : ObjectKind::kData;
    obj.source = ClientId{i};
    obj.query_id = QueryId{i};
    obj.stream_rate = 1.0;
    ASSERT_TRUE(client.insert(obj).ok);
  }
  sim.drain();

  // Now make every link duplicate AND reorder, and run the repair
  // rounds through it (the log engine ships activations and repairs
  // past the compaction floor as chunked snapshots).
  LinkMatrix::Fault f;
  f.dup_prob = 0.4;
  f.reorder_prob = 0.4;
  f.reorder_window_usec = 2000;
  cluster.links().set_default_fault(f);

  for (int round = 1; round <= 6; ++round) {
    cluster.set_now(SimTime::from_minutes(5 * round));
    cluster.run_all_load_checks();
    sim.drain();
  }
  ASSERT_GT(cluster.links().stats().reordered, 0u);

  // Heal and give anti-entropy a clean round to settle stragglers.
  cluster.links().clear();
  cluster.set_now(SimTime::from_minutes(40));
  cluster.run_all_load_checks();
  sim.drain();

  // Every replica of every group sits exactly at its owner's head,
  // with the owner's exact object counts — reordered chunks at worst
  // nacked and restarted transfers, never installed a torn image.
  std::size_t verified = 0;
  for (const auto& [group, owner] : cluster.owner_index()) {
    const auto owner_head = cluster.server(owner).log_head(group);
    ASSERT_TRUE(owner_head.has_value());
    const GroupState* truth = cluster.server(owner).group_state(group);
    ASSERT_NE(truth, nullptr);
    for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
      if (i == owner.value) continue;
      const auto head = cluster.server(ServerId{i}).replica_head(group);
      if (!head.has_value()) continue;
      EXPECT_EQ(*head, *owner_head) << "group " << group.label();
      const GroupState* st =
          cluster.server(ServerId{i}).replica_state(group);
      ASSERT_NE(st, nullptr);
      EXPECT_EQ(st->streams.size(), truth->streams.size());
      EXPECT_EQ(st->queries.size(), truth->queries.size());
      EXPECT_DOUBLE_EQ(st->stream_rate, truth->stream_rate);
      ++verified;
    }
  }
  EXPECT_GT(verified, 0u);
  EXPECT_EQ(cluster.check_invariants(), std::nullopt);
}

}  // namespace
}  // namespace clash::sim
