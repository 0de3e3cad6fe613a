// Elastic cluster demo: watch SWIM membership drive the ring through a
// kill / failover / revive cycle. Prints a timeline of suspicion,
// death declarations, ring changes, and replica promotions.
//
// Usage: example_elastic_cluster [--servers=16] [--streams=48]
#include <cstdio>

#include "clash/client.hpp"
#include "common/argparse.hpp"
#include "common/rng.hpp"
#include "sim/churn.hpp"

using namespace clash;
using namespace clash::sim;

namespace {

void report(ChurnSim& sim, const char* phase) {
  const auto& cluster = sim.cluster();
  const auto stats = cluster.total_stats();
  std::printf("[t=%7.1fs] %-28s alive=%zu ring=%zu failovers=%llu "
              "lost=%llu gossip=%llu\n",
              sim.events().now().seconds(), phase, cluster.alive_count(),
              cluster.ring_of(ServerId{0}).server_count(),
              (unsigned long long)stats.failovers,
              (unsigned long long)stats.groups_lost,
              (unsigned long long)stats.gossip_msgs);
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const auto n_servers = std::size_t(args.get_int("servers", 16));
  const auto n_streams = std::size_t(args.get_int("streams", 48));

  ChurnSim::Config cfg;
  cfg.cluster.num_servers = n_servers;
  cfg.cluster.clash.key_width = 12;
  cfg.cluster.clash.initial_depth = 3;
  cfg.cluster.clash.capacity = 5000;
  cfg.cluster.clash.replication_factor = 2;
  ChurnSim sim(cfg);
  sim.start();

  ClashClient client(sim.cluster().clash_config(),
                     sim.cluster().client_env(ServerId{0}),
                     sim.cluster().hasher());
  Rng rng(11);
  for (std::size_t i = 0; i < n_streams; ++i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & 0xFFF, 12);
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{i};
    obj.stream_rate = 2;
    if (!client.insert(obj).ok) return 1;
  }
  report(sim, "bootstrap + streams");

  sim.run_for(SimTime::from_minutes(11));
  report(sim, "replicas formed");

  // Kill a server that actually owns groups, so the failover shows up.
  const ServerId victim =
      sim.cluster().find_owner(Key(rng.next() & 0xFFF, 12)).value();
  sim.kill(victim);
  std::printf("           >>> killing %s\n", to_string(victim).c_str());
  for (int period = 1; period <= 40; ++period) {
    sim.run_for(sim.protocol_period());
    if (sim.all_survivors_see_dead(victim) && sim.ring_matches_membership()) {
      std::printf("           >>> declared dead by all survivors after "
                  "%d protocol periods\n",
                  period);
      break;
    }
  }
  report(sim, "after detection + failover");

  sim.revive(victim);
  std::printf("           >>> reviving %s\n", to_string(victim).c_str());
  for (int period = 1; period <= 40; ++period) {
    sim.run_for(sim.protocol_period());
    if (sim.all_survivors_see_alive(victim) &&
        sim.cluster().live_rings_holding(victim) ==
            sim.cluster().alive_count()) {
      std::printf("           >>> re-admitted to the ring after %d "
                  "protocol periods\n",
                  period);
      break;
    }
  }
  report(sim, "after rejoin");

  if (const auto err = sim.cluster().check_invariants()) {
    std::fprintf(stderr, "INVARIANT VIOLATION: %s\n", err->c_str());
    return 1;
  }
  std::printf("invariants hold; every stream still registered: %s\n",
              [&] {
                std::size_t total = 0;
                for (std::size_t i = 0; i < n_servers; ++i) {
                  if (sim.cluster().is_alive(ServerId{i})) {
                    total += sim.cluster().server(ServerId{i}).total_streams();
                  }
                }
                return total == n_streams ? "yes" : "NO";
              }());
  return 0;
}
