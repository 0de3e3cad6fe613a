// Clock skew: every server runs its SWIM protocol periods and load
// checks off its own local clock, skewed up to ±30% from true time.
// Suspicion timeouts count local ticks, so a fast node suspects
// eagerly and a slow node lazily — membership must stay correct
// anyway: no false evictions when everyone is healthy, real crashes
// still converge (within a bound scaled for the slowest clock), and
// refutation still wins for revived nodes.
#include <gtest/gtest.h>

#include "clash/client.hpp"
#include "common/rng.hpp"
#include "sim/churn.hpp"

namespace clash::sim {
namespace {

constexpr std::size_t kServers = 16;
constexpr unsigned kWidth = 10;
/// The un-skewed ceiling is 30 periods; the slowest clock here runs at
/// 0.7x, so scale the bound by ~1/0.7 and round up generously.
constexpr int kSkewedConvergenceBound = 60;

ChurnSim::Config config(unsigned replication) {
  ChurnSim::Config cfg;
  cfg.cluster.num_servers = kServers;
  cfg.cluster.seed = 5150;
  cfg.cluster.clash.key_width = kWidth;
  cfg.cluster.clash.initial_depth = 3;
  cfg.cluster.clash.capacity = 2000.0;
  cfg.cluster.clash.replication_factor = replication;
  cfg.protocol_period = SimTime::from_seconds(1);
  cfg.gossip_delay = SimTime::from_seconds(0.02);
  cfg.seed = 31;
  return cfg;
}

/// Deterministic ±30% spread across the cluster: rates cycle through
/// {0.7, 0.85, 1.0, 1.15, 1.3}.
void skew_everyone(ChurnSim& sim) {
  constexpr double kRates[] = {0.7, 0.85, 1.0, 1.15, 1.3};
  for (std::size_t i = 0; i < kServers; ++i) {
    sim.set_clock_rate(ServerId{i}, kRates[i % 5]);
  }
}

TEST(ClockSkew, HealthyClusterHasNoFalseEvictions) {
  ChurnSim sim(config(/*replication=*/0));
  sim.start();
  skew_everyone(sim);
  sim.run_for(SimTime::from_minutes(3));  // 126..240 local periods each

  for (std::size_t i = 0; i < kServers; ++i) {
    ASSERT_TRUE(sim.cluster().is_alive(ServerId{i})) << i;
    for (std::size_t j = 0; j < kServers; ++j) {
      EXPECT_EQ(sim.view_of(ServerId{i}).state_of(ServerId{j}),
                MemberState::kAlive)
          << i << " -> " << j;
    }
  }
  EXPECT_TRUE(sim.ring_matches_membership());
  EXPECT_EQ(sim.cluster().total_stats().slow_evictions, 0u);
}

TEST(ClockSkew, CrashStillConvergesUnderSkew) {
  ChurnSim sim(config(/*replication=*/2));
  sim.start();
  skew_everyone(sim);

  // Load a few streams so eviction exercises failover too.
  {
    ClashClient client(sim.cluster().clash_config(),
                       sim.cluster().client_env(ServerId{0}),
                       sim.cluster().hasher());
    Rng rng(7);
    for (std::size_t i = 0; i < 32; ++i) {
      AcceptObject obj;
      obj.key = Key(rng.next() & 0x3FF, kWidth);
      obj.kind = ObjectKind::kData;
      obj.source = ClientId{i};
      obj.stream_rate = 2;
      ASSERT_TRUE(client.insert(obj).ok);
    }
  }
  sim.run_for(SimTime::from_minutes(11));

  const ServerId victim{4};  // a 1.3x fast clock, for what it's worth
  sim.kill(victim);
  int converged = -1;
  for (int period = 1; period <= kSkewedConvergenceBound; ++period) {
    sim.run_for(sim.protocol_period());
    if (sim.all_survivors_see_dead(victim) && sim.ring_matches_membership()) {
      converged = period;
      break;
    }
  }
  ASSERT_GE(converged, 0) << "skewed survivors never converged within "
                          << kSkewedConvergenceBound << " true periods";
  EXPECT_EQ(sim.cluster().live_rings_holding(victim), 0u);
  EXPECT_EQ(sim.cluster().total_stats().groups_lost, 0u);
  EXPECT_EQ(sim.cluster().check_invariants(), std::nullopt);

  // Refutation beats skew too: the revived node (its fast clock kept)
  // re-announces itself and everyone re-admits it.
  sim.revive(victim);
  bool rejoined = false;
  for (int period = 0; period < kSkewedConvergenceBound && !rejoined;
       ++period) {
    sim.run_for(sim.protocol_period());
    rejoined = sim.all_survivors_see_alive(victim) &&
               sim.cluster().live_rings_holding(victim) ==
                   sim.cluster().alive_count();
  }
  EXPECT_TRUE(rejoined) << "revived server never re-admitted under skew";
  EXPECT_EQ(sim.cluster().check_invariants(), std::nullopt);
}

}  // namespace
}  // namespace clash::sim
