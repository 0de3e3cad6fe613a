// Payload corruption: the simulator carries encoded frames, and a
// cluster-wide corrupt fault flips bytes inside each damaged frame's
// fenced span (wire::fenced_span). Every mangled payload must die at
// one of the two fences — the codec (structurally invalid, dropped in
// flight -> corrupt_drops) or the receiver's content CRC over the bytes
// it decoded (decoded-valid but mutated -> corrupt_rejected) — and
// never be installed. Queries registered
// before and during the fault must all survive, and the cluster must
// settle back to a clean, converged state once the fault clears.
#include <gtest/gtest.h>

#include "clash/client.hpp"
#include "common/rng.hpp"
#include "sim/churn.hpp"

namespace clash::sim {
namespace {

constexpr std::size_t kServers = 16;
constexpr unsigned kWidth = 10;

ChurnSim::Config config() {
  ChurnSim::Config cfg;
  cfg.cluster.num_servers = kServers;
  cfg.cluster.seed = 777;
  cfg.cluster.clash.key_width = kWidth;
  cfg.cluster.clash.initial_depth = 3;
  cfg.cluster.clash.capacity = 2000.0;
  cfg.cluster.clash.replication_factor = 2;
  cfg.protocol_period = SimTime::from_seconds(1);
  cfg.gossip_delay = SimTime::from_seconds(0.02);
  cfg.seed = 11;
  return cfg;
}

std::vector<QueryId> register_queries(ChurnSim& sim, std::size_t n,
                                      std::size_t first_id) {
  ClashClient client(sim.cluster().clash_config(),
                     sim.cluster().client_env(ServerId{0}),
                     sim.cluster().hasher());
  Rng rng(13 + first_id);
  std::vector<QueryId> ids;
  for (std::size_t i = 0; i < n; ++i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & 0x3FF, kWidth);
    obj.kind = ObjectKind::kQuery;
    obj.query_id = QueryId{first_id + i};
    obj.source = ClientId{first_id + i};
    EXPECT_TRUE(client.insert(obj).ok);
    ids.push_back(obj.query_id);
  }
  return ids;
}

std::size_t live_queries(ChurnSim& sim) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < kServers; ++i) {
    if (!sim.cluster().is_alive(ServerId{i})) continue;
    total += sim.cluster().server(ServerId{i}).total_queries();
  }
  return total;
}

TEST(Corruption, FencesRejectEveryMangledPayloadUnderFault) {
  ChurnSim sim(config());
  sim.start();
  const auto before = register_queries(sim, 24, 0);
  sim.run_for(SimTime::from_minutes(11));  // groups replicated
  ASSERT_EQ(live_queries(sim), before.size());

  // 5% of the messages on every link get 1-3 byte flips, which land
  // in the fenced types: gossip, replication appends, snapshot chunks.
  LinkMatrix::Fault f;
  f.corrupt_prob = 0.05;
  sim.links().set_default_fault(f);

  sim.run_for(SimTime::from_minutes(3));
  const auto during = register_queries(sim, 24, 1000);
  sim.run_for(SimTime::from_minutes(3));

  // Both fences fired: the codec on structurally-broken frames, the
  // content CRC on decoded-valid-but-mutated ones.
  const auto mid = sim.cluster().total_stats();
  EXPECT_GT(sim.links().stats().corrupted, 0u);
  EXPECT_GT(mid.corrupt_drops, 0u) << "codec fence never fired";
  EXPECT_GT(mid.corrupt_rejected + sim.gossip_corrupt_rejected(), 0u)
      << "content-CRC fence never fired";

  // Clear the fault and let anti-entropy repair whatever the drops
  // stalled; membership may have fenced a node whose refutations kept
  // getting mangled — revive any such casualty.
  sim.links().clear();
  for (std::size_t i = 0; i < kServers; ++i) {
    if (!sim.cluster().is_alive(ServerId{i})) sim.revive(ServerId{i});
  }
  bool settled = false;
  for (int period = 0; period < 240 && !settled; ++period) {
    sim.run_for(sim.protocol_period());
    settled = sim.cluster().alive_count() == kServers &&
              sim.ring_matches_membership() &&
              live_queries(sim) == before.size() + during.size();
  }
  ASSERT_TRUE(settled) << "cluster never settled after the fault: alive="
                       << sim.cluster().alive_count()
                       << " queries=" << live_queries(sim);
  sim.run_for(SimTime::from_minutes(6));  // one more repair round

  // No corruption was ever installed: invariants clean, nothing lost.
  EXPECT_EQ(sim.cluster().check_invariants(), std::nullopt);
  EXPECT_EQ(sim.cluster().total_stats().groups_lost, 0u);
  EXPECT_EQ(live_queries(sim), before.size() + during.size());
}

}  // namespace
}  // namespace clash::sim
