// The ISSUE's acceptance scenario: a 16-node simulated cluster under
// churn. Four servers are killed mid-run; SWIM detection (not the
// oracle) must converge within a bounded number of protocol periods,
// the Chord ring must end up reflecting exactly the surviving set, and
// every previously-active key group must be reachable again through
// promoted replicas with no state loss.
#include <gtest/gtest.h>

#include <algorithm>

#include "clash/client.hpp"
#include "common/rng.hpp"
#include "sim/churn.hpp"
#include "tests/clash/test_util.hpp"

namespace clash::sim {
namespace {

constexpr std::size_t kServers = 16;
constexpr unsigned kWidth = 10;
/// Detection + dissemination bound asserted by the churn tests:
/// rotation (<= 15) is bypassed by gossip, so convergence in practice
/// takes ~10 periods; 30 is the hard ceiling.
constexpr int kConvergenceBound = 30;

ChurnSim::Config churn_config(unsigned replication) {
  ChurnSim::Config cfg;
  cfg.cluster.num_servers = kServers;
  cfg.cluster.seed = 1234;
  cfg.cluster.clash.key_width = kWidth;
  cfg.cluster.clash.initial_depth = 3;
  cfg.cluster.clash.capacity = 2000.0;  // loads stay well below split
  cfg.cluster.clash.replication_factor = replication;
  cfg.protocol_period = SimTime::from_seconds(1);
  cfg.gossip_delay = SimTime::from_seconds(0.02);
  cfg.seed = 99;
  return cfg;
}

std::vector<Key> load_streams(ChurnSim& sim, std::size_t n) {
  ClashClient client(sim.cluster().clash_config(),
                     sim.cluster().client_env(ServerId{0}),
                     sim.cluster().hasher());
  Rng rng(7);
  std::vector<Key> keys;
  for (std::size_t i = 0; i < n; ++i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & 0x3FF, kWidth);
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{i};
    obj.stream_rate = 2;
    EXPECT_TRUE(client.insert(obj).ok);
    keys.push_back(obj.key);
  }
  return keys;
}

/// Steps the simulation one protocol period at a time until every
/// victim is seen dead by all survivors and the ring matches the
/// alive set; returns the number of periods it took (-1 on timeout).
int run_until_converged(ChurnSim& sim, const std::vector<ServerId>& victims) {
  for (int period = 1; period <= kConvergenceBound; ++period) {
    sim.run_for(sim.protocol_period());
    const bool all_dead =
        std::all_of(victims.begin(), victims.end(), [&](ServerId v) {
          return sim.all_survivors_see_dead(v);
        });
    if (all_dead && sim.ring_matches_membership()) return period;
  }
  return -1;
}

TEST(MembershipChurn, KillFourServersConvergesAndFailsOver) {
  ChurnSim sim(churn_config(/*replication=*/2));
  sim.start();
  const auto keys = load_streams(sim, 64);
  // Two load-check rounds so every active group is replicated.
  sim.run_for(SimTime::from_minutes(11));
  ASSERT_GT(sim.cluster().total_stats().replication_log_messages(), 0u);

  const std::vector<ServerId> victims{ServerId{1}, ServerId{5}, ServerId{9},
                                      ServerId{13}};
  for (const ServerId v : victims) sim.kill(v);

  const int periods = run_until_converged(sim, victims);
  ASSERT_GE(periods, 0) << "survivors never converged within "
                        << kConvergenceBound << " protocol periods";

  // The ring reflects exactly the surviving set.
  EXPECT_EQ(sim.cluster().alive_count(), kServers - victims.size());
  EXPECT_EQ(sim.cluster().ring_of(ServerId{0}).server_count(),
            kServers - victims.size());
  for (const ServerId v : victims) {
    EXPECT_EQ(sim.cluster().live_rings_holding(v), 0u);
  }

  // Failover promoted replicas: no group lost its state, and the
  // global invariants hold again.
  const auto stats = sim.cluster().total_stats();
  EXPECT_GT(stats.failovers, 0u);
  EXPECT_EQ(stats.groups_lost, 0u);
  EXPECT_EQ(sim.cluster().check_invariants(), std::nullopt);

  // Every stream survived somewhere alive...
  std::size_t streams_found = 0;
  for (std::size_t i = 0; i < kServers; ++i) {
    if (!sim.cluster().is_alive(ServerId{i})) continue;
    streams_found += sim.cluster().server(ServerId{i}).total_streams();
  }
  EXPECT_EQ(streams_found, keys.size());

  // ...and every key group is reachable again through a live owner.
  ClashClient fresh(sim.cluster().clash_config(),
                    sim.cluster().client_env(ServerId{2}),
                    sim.cluster().hasher());
  for (const auto& k : keys) {
    const auto out = fresh.resolve(k);
    ASSERT_TRUE(out.ok) << k.to_string();
    EXPECT_TRUE(sim.cluster().is_alive(out.server));
  }
}

TEST(MembershipChurn, SequentialKillsStayConsistent) {
  ChurnSim sim(churn_config(/*replication=*/3));
  sim.start();
  (void)load_streams(sim, 48);
  sim.run_for(SimTime::from_minutes(11));

  const std::vector<ServerId> victims{ServerId{3}, ServerId{7},
                                      ServerId{11}, ServerId{14}};
  for (const ServerId v : victims) {
    sim.kill(v);
    const int periods = run_until_converged(sim, {v});
    ASSERT_GE(periods, 0) << "no convergence on " << to_string(v);
    ASSERT_EQ(sim.cluster().check_invariants(), std::nullopt)
        << "after killing " << to_string(v);
    // Let replication re-spread before the next failure.
    sim.run_for(SimTime::from_minutes(6));
  }
  EXPECT_EQ(sim.cluster().alive_count(), kServers - victims.size());
  EXPECT_EQ(sim.cluster().total_stats().groups_lost, 0u);
}

TEST(MembershipChurn, RevivedServerRefutesAndRejoinsRing) {
  ChurnSim sim(churn_config(/*replication=*/2));
  sim.start();
  (void)load_streams(sim, 32);
  sim.run_for(SimTime::from_minutes(11));

  const ServerId victim{6};
  sim.kill(victim);
  ASSERT_GE(run_until_converged(sim, {victim}), 0);
  ASSERT_EQ(sim.cluster().live_rings_holding(victim), 0u);

  sim.revive(victim);
  bool rejoined = false;
  for (int period = 0; period < kConvergenceBound && !rejoined; ++period) {
    sim.run_for(sim.protocol_period());
    rejoined = sim.all_survivors_see_alive(victim) &&
               sim.cluster().live_rings_holding(victim) ==
                   sim.cluster().alive_count();
  }
  ASSERT_TRUE(rejoined) << "revived server never re-admitted";
  EXPECT_TRUE(sim.ring_matches_membership());
  EXPECT_EQ(sim.cluster().check_invariants(), std::nullopt);

  // The rejoined (empty) server participates again: the full key space
  // still resolves with it back on the ring.
  ClashClient fresh(sim.cluster().clash_config(),
                    sim.cluster().client_env(victim),
                    sim.cluster().hasher());
  for (std::uint64_t v = 0; v < 1024; v += 37) {
    const auto out = fresh.resolve(Key(v, kWidth));
    ASSERT_TRUE(out.ok) << v;
  }
}

TEST(MembershipChurn, NoFalsePositivesInHealthyCluster) {
  ChurnSim sim(churn_config(/*replication=*/0));
  sim.start();
  sim.run_for(SimTime::from_minutes(2));  // ~120 protocol periods
  for (std::size_t i = 0; i < kServers; ++i) {
    for (std::size_t j = 0; j < kServers; ++j) {
      EXPECT_EQ(sim.view_of(ServerId{i}).state_of(ServerId{j}),
                MemberState::kAlive)
          << i << " -> " << j;
    }
  }
  EXPECT_TRUE(sim.ring_matches_membership());
  EXPECT_GT(sim.gossip_messages(), 0u);
}

}  // namespace
}  // namespace clash::sim
