// Fail-slow detection: a node that keeps answering but at 100x latency
// must be suspected, unanimously declared dead, and excommunicated
// (fenced out of the ring with its groups failed over) within a
// bounded window — while a mildly slow node (10x) stays a member. Also
// covers the per-node suspicion-timeout override: the leash is the
// knob trading fail-slow detection speed for tolerance.
#include <gtest/gtest.h>

#include "clash/client.hpp"
#include "common/rng.hpp"
#include "sim/churn.hpp"

namespace clash::sim {
namespace {

constexpr std::size_t kServers = 16;
constexpr unsigned kWidth = 10;
/// Excommunicating a fail-slow node takes longer than evicting a crash
/// (the victim's late refutations keep breaking unanimity for a few
/// rounds); 120 periods is the hard ceiling, ~20 the typical case.
constexpr int kSlowEvictBound = 120;

ChurnSim::Config config(unsigned replication) {
  ChurnSim::Config cfg;
  cfg.cluster.num_servers = kServers;
  cfg.cluster.seed = 4321;
  cfg.cluster.clash.key_width = kWidth;
  cfg.cluster.clash.initial_depth = 3;
  cfg.cluster.clash.capacity = 2000.0;
  cfg.cluster.clash.replication_factor = replication;
  cfg.protocol_period = SimTime::from_seconds(1);
  cfg.gossip_delay = SimTime::from_seconds(0.02);
  cfg.seed = 77;
  return cfg;
}

void load_streams(ChurnSim& sim, std::size_t n) {
  ClashClient client(sim.cluster().clash_config(),
                     sim.cluster().client_env(ServerId{0}),
                     sim.cluster().hasher());
  Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & 0x3FF, kWidth);
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{i};
    obj.stream_rate = 2;
    ASSERT_TRUE(client.insert(obj).ok);
  }
}

/// Periods until the victim is excommunicated (-1 on timeout).
int run_until_excommunicated(ChurnSim& sim, ServerId victim, int bound) {
  for (int period = 1; period <= bound; ++period) {
    sim.run_for(sim.protocol_period());
    if (!sim.cluster().is_alive(victim)) return period;
  }
  return -1;
}

TEST(FailSlow, HundredTimesSlowNodeIsExcommunicatedWithinBound) {
  ChurnSim sim(config(/*replication=*/2));
  sim.start();
  load_streams(sim, 48);
  sim.run_for(SimTime::from_minutes(11));  // groups replicated

  const ServerId victim{5};
  sim.set_slow(victim, 100.0);  // ~2s extra lag per message, each way

  const int periods = run_until_excommunicated(sim, victim,
                                               kSlowEvictBound);
  ASSERT_GE(periods, 0) << "fail-slow node never excommunicated within "
                        << kSlowEvictBound << " periods";

  // Fenced, not merely suspected: crashed, off the ring, its groups
  // failed over from replicas, and the event counted.
  EXPECT_FALSE(sim.cluster().is_alive(victim));
  EXPECT_EQ(sim.cluster().live_rings_holding(victim), 0u);
  EXPECT_EQ(sim.cluster().total_stats().slow_evictions, 1u);
  EXPECT_EQ(sim.cluster().total_stats().groups_lost, 0u);
  EXPECT_EQ(sim.cluster().check_invariants(), std::nullopt);

  // A revive brings it back as a fresh process (restart clears the
  // slowness: replacement hardware) and it rejoins the ring.
  sim.revive(victim);
  EXPECT_EQ(sim.cluster().node_slow(victim), 1.0);
  bool rejoined = false;
  for (int p = 0; p < 60 && !rejoined; ++p) {
    sim.run_for(sim.protocol_period());
    rejoined = sim.cluster().live_rings_holding(victim) ==
                   sim.cluster().alive_count() &&
               sim.all_survivors_see_alive(victim);
  }
  EXPECT_TRUE(rejoined) << "excommunicated node never rejoined";
  EXPECT_EQ(sim.cluster().check_invariants(), std::nullopt);
}

TEST(FailSlow, TenTimesSlowNodeStaysAMember) {
  ChurnSim sim(config(/*replication=*/0));
  sim.start();
  sim.run_for(SimTime::from_minutes(2));

  const ServerId victim{5};
  sim.set_slow(victim, 10.0);  // ~180ms lag per message: inside timeouts
  sim.run_for(SimTime::from_minutes(3));

  EXPECT_TRUE(sim.cluster().is_alive(victim));
  EXPECT_EQ(sim.cluster().live_rings_holding(victim),
            sim.cluster().alive_count());
  EXPECT_EQ(sim.cluster().total_stats().slow_evictions, 0u);
  EXPECT_TRUE(sim.all_survivors_see_alive(victim));
}

TEST(FailSlow, PerNodeSuspicionLeashTunesTheVerdictWindow) {
  // Baseline: how fast does the default leash excommunicate?
  int baseline = 0;
  {
    ChurnSim sim(config(/*replication=*/0));
    sim.start();
    sim.run_for(SimTime::from_minutes(2));
    sim.set_slow(ServerId{5}, 100.0);
    baseline = run_until_excommunicated(sim, ServerId{5},
                                        kSlowEvictBound);
    ASSERT_GE(baseline, 0);
  }

  // A single long-leash survivor does NOT stall the cluster: the first
  // default-leash node to expire its suspicion gossips the dead rumour,
  // and everyone — the patient node included — adopts it. The per-node
  // leash governs a node's own suspicions, not rumours it hears.
  const unsigned kLongLeash = unsigned(baseline) + 30;
  {
    ChurnSim sim(config(/*replication=*/0));
    sim.start();
    sim.run_for(SimTime::from_minutes(2));
    sim.set_suspicion_periods(ServerId{2}, kLongLeash);
    sim.set_slow(ServerId{5}, 100.0);
    const int lone = run_until_excommunicated(sim, ServerId{5},
                                              kSlowEvictBound);
    ASSERT_GE(lone, 0)
        << "one patient observer must not veto the cluster's verdict";
  }

  // When EVERY survivor runs the longer leash there is no early
  // declarer left at all — and the leash now exceeds the slow node's
  // (late, ~2s) refutation latency, so every suspicion is refuted
  // before it expires: the cluster TOLERATES the fail-slow node. The
  // per-node leash is the knob trading detection speed for tolerance.
  ChurnSim sim(config(/*replication=*/0));
  sim.start();
  sim.run_for(SimTime::from_minutes(2));
  for (std::size_t i = 0; i < kServers; ++i) {
    if (i != 5) sim.set_suspicion_periods(ServerId{i}, kLongLeash);
  }
  sim.set_slow(ServerId{5}, 100.0);
  const int delayed = run_until_excommunicated(sim, ServerId{5},
                                               kSlowEvictBound);
  EXPECT_EQ(delayed, -1)
      << "observers on a refutation-sized leash must tolerate the slow "
         "node, not evict it";
  EXPECT_TRUE(sim.cluster().is_alive(ServerId{5}));
  EXPECT_EQ(sim.cluster().total_stats().slow_evictions, 0u);
}

}  // namespace
}  // namespace clash::sim
