// Partition acceptance for the replication subsystem under live SWIM
// churn: split-brain, asymmetric one-way cuts, flap schedules, and
// lossy links. Each server's ring follows its own verdicts, so a cut
// lets both sides fail each other's groups over; in every scenario the
// cluster must never crash anyone who is merely unreachable, keep
// serving, and after the heal converge to one owner per group and every
// replica to the owner's exact (epoch, seq) head, with zero lost
// continuous queries at replication factor >= 2.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "clash/client.hpp"
#include "common/rng.hpp"
#include "sim/churn.hpp"

namespace clash::sim {
namespace {

constexpr std::size_t kServers = 16;
constexpr unsigned kWidth = 10;
constexpr int kConvergenceBound = 40;

ChurnSim::Config partition_config() {
  ChurnSim::Config cfg;
  cfg.cluster.num_servers = kServers;
  cfg.cluster.seed = 4321;
  cfg.cluster.clash.key_width = kWidth;
  cfg.cluster.clash.initial_depth = 3;
  cfg.cluster.clash.capacity = 4000.0;  // no load-driven splits
  cfg.cluster.clash.replication_factor = 2;
  cfg.protocol_period = SimTime::from_seconds(1);
  cfg.gossip_delay = SimTime::from_seconds(0.02);
  cfg.seed = 17;
  return cfg;
}

std::vector<ServerId> minority_side() {
  return {ServerId{1}, ServerId{4}, ServerId{7}, ServerId{11}};
}

std::size_t register_queries(ChurnSim& sim, std::size_t n,
                             std::uint64_t first_id) {
  ClashClient client(sim.cluster().clash_config(),
                     sim.cluster().client_env(ServerId{0}),
                     sim.cluster().hasher());
  Rng rng(7 + first_id);
  std::size_t registered = 0;
  for (std::size_t i = 0; i < n; ++i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & 0x3FF, kWidth);
    obj.kind = ObjectKind::kQuery;
    obj.query_id = QueryId{first_id + i};
    EXPECT_TRUE(client.insert(obj).ok);
    ++registered;
  }
  return registered;
}

std::size_t live_protocol_queries(const SimCluster& cluster) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < kServers; ++i) {
    if (cluster.is_alive(ServerId{i})) {
      n += cluster.server(ServerId{i}).total_queries();
    }
  }
  return n;
}

/// Every replica of every active group sits at exactly the owner's
/// (epoch, seq) head; returns the first divergence found.
std::optional<std::string> heads_converged(const SimCluster& cluster) {
  for (const auto& [group, owner] : cluster.owner_index()) {
    const auto owner_head = cluster.server(owner).log_head(group);
    if (!owner_head) return "owner of " + group.label() + " has no log";
    for (std::size_t i = 0; i < kServers; ++i) {
      const ServerId id{i};
      if (!cluster.is_alive(id) || id == owner) continue;
      if (!cluster.server(id).has_replica(group)) continue;
      const auto head = cluster.server(id).replica_head(group);
      if (head != owner_head) {
        return group.label() + ": replica on s" + std::to_string(i) +
               " at " + head->to_string() + " != owner " +
               owner_head->to_string();
      }
    }
  }
  return std::nullopt;
}

TEST(Partition, SplitBrainNeverEvictsAndConvergesAfterHeal) {
  ChurnSim sim(partition_config());
  sim.start();
  std::size_t total = register_queries(sim, 40, 0);
  sim.run_for(SimTime::from_minutes(11));  // replication settles

  sim.partition(minority_side());
  // Mutations keep landing while the cluster is split (client RPCs
  // model retries and get through): replicas across the cut diverge.
  total += register_queries(sim, 20, 1000);
  sim.run_for(SimTime::from_minutes(3));

  // Unreachable is not dead: no side's view is unanimous, so nobody is
  // crashed. Each side's rings drop the other side, though, and each
  // fails over the groups it holds replicas of.
  EXPECT_FALSE(sim.ring_matches_membership());
  EXPECT_EQ(sim.cluster().alive_count(), kServers);
  EXPECT_GT(sim.cluster().total_stats().failovers, 0u);
  EXPECT_EQ(sim.cluster().total_stats().groups_lost, 0u);
  EXPECT_GT(sim.cluster().total_stats().link_drops, 0u);

  sim.heal_partitions();
  // Reconnect pings re-merge the views, handoffs fence the doubled
  // groups by epoch, and anti-entropy repairs the diverged holders over
  // the next load-check rounds.
  sim.run_for(SimTime::from_minutes(11));
  EXPECT_TRUE(sim.ring_matches_membership());
  EXPECT_EQ(heads_converged(sim.cluster()), std::nullopt);
  EXPECT_EQ(live_protocol_queries(sim.cluster()), total);
  EXPECT_EQ(sim.cluster().check_invariants(), std::nullopt);
}

TEST(Partition, AsymmetricOneWayCutConvergesAfterHeal) {
  ChurnSim sim(partition_config());
  sim.start();
  std::size_t total = register_queries(sim, 40, 0);
  sim.run_for(SimTime::from_minutes(11));

  // The minority can hear the majority but is never heard: its acks,
  // diffs, refutations, and replica appends all vanish one-way.
  sim.one_way_partition(minority_side());
  total += register_queries(sim, 20, 2000);
  sim.run_for(SimTime::from_minutes(3));
  EXPECT_EQ(sim.cluster().alive_count(), kServers);
  EXPECT_FALSE(sim.ring_matches_membership());

  sim.heal_partitions();
  sim.run_for(SimTime::from_minutes(11));
  EXPECT_TRUE(sim.ring_matches_membership());
  EXPECT_EQ(heads_converged(sim.cluster()), std::nullopt);
  EXPECT_EQ(live_protocol_queries(sim.cluster()), total);
  EXPECT_EQ(sim.cluster().check_invariants(), std::nullopt);
}

TEST(Partition, FlapScheduleConvergesAfterFinalHeal) {
  ChurnSim sim(partition_config());
  sim.start();
  std::size_t total = register_queries(sim, 30, 0);
  sim.run_for(SimTime::from_minutes(6));

  // Three cut/heal cycles, 30 s apart, with writes landing mid-flap.
  sim.schedule_flaps(minority_side(), SimTime::from_seconds(30), 3);
  total += register_queries(sim, 15, 3000);
  sim.run_for(SimTime::from_minutes(4));  // flaps done: last event heals
  total += register_queries(sim, 15, 4000);
  sim.run_for(SimTime::from_minutes(11));

  EXPECT_EQ(sim.cluster().alive_count(), kServers);
  EXPECT_EQ(sim.cluster().total_stats().groups_lost, 0u);
  EXPECT_EQ(heads_converged(sim.cluster()), std::nullopt);
  EXPECT_EQ(live_protocol_queries(sim.cluster()), total);
  EXPECT_EQ(sim.cluster().check_invariants(), std::nullopt);
}

TEST(Partition, LossyLinksConvergeOnceClean) {
  ChurnSim sim(partition_config());
  sim.start();
  std::size_t total = register_queries(sim, 40, 0);
  sim.run_for(SimTime::from_minutes(6));

  sim.set_loss_rate(0.05);  // every link drops 5% of messages
  total += register_queries(sim, 30, 5000);
  sim.run_for(SimTime::from_minutes(11));  // anti-entropy fights the loss
  EXPECT_GT(sim.cluster().total_stats().link_drops, 0u);
  EXPECT_EQ(sim.cluster().total_stats().groups_lost, 0u);

  sim.heal_partitions();  // clears the default fault too
  sim.run_for(SimTime::from_minutes(11));
  EXPECT_EQ(heads_converged(sim.cluster()), std::nullopt);
  EXPECT_EQ(live_protocol_queries(sim.cluster()), total);
  EXPECT_EQ(sim.cluster().check_invariants(), std::nullopt);
}

TEST(Partition, DeathDuringSplitStillFailsOverWithZeroLoss) {
  ChurnSim sim(partition_config());
  sim.start();
  const std::size_t total = register_queries(sim, 40, 0);
  sim.run_for(SimTime::from_minutes(11));

  const auto side = minority_side();
  sim.partition(side);
  // A majority-side server dies mid-split. Both sides time the dead
  // node out independently (direct probes go unanswered either way),
  // so every live ring drops it. The failover must complete with zero
  // loss even while the cluster is split, and once the partition heals
  // every live server must be back on every live ring.
  const ServerId victim{2};
  sim.kill(victim);
  bool evicted = false;
  for (int period = 0; period < kConvergenceBound && !evicted; ++period) {
    sim.run_for(sim.protocol_period());
    evicted = sim.all_survivors_see_dead(victim) &&
              sim.cluster().live_rings_holding(victim) == 0;
  }
  ASSERT_TRUE(evicted) << "dead node never evicted during the split";
  EXPECT_GT(sim.cluster().total_stats().failovers, 0u);
  EXPECT_EQ(sim.cluster().total_stats().groups_lost, 0u);

  sim.heal_partitions();
  sim.run_for(SimTime::from_minutes(11));
  for (std::size_t i = 0; i < kServers; ++i) {
    const ServerId id{i};
    if (id == victim) continue;
    EXPECT_EQ(sim.cluster().live_rings_holding(id),
            sim.cluster().alive_count())
        << "live s" << i << " still off a ring after the heal";
  }
  EXPECT_EQ(heads_converged(sim.cluster()), std::nullopt);
  EXPECT_EQ(live_protocol_queries(sim.cluster()), total);
  EXPECT_EQ(sim.cluster().check_invariants(), std::nullopt);
}

}  // namespace
}  // namespace clash::sim
