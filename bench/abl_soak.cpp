// Long-horizon soak: hours of simulated kill / revive / flap /
// fail-slow / clock-skew / corruption churn against live continuous
// queries, under live SWIM membership and log replication. Each round
// is a storm (two crashes, a flapping minority link, one fail-slow
// node at 100x, +/-30% clock skew on four nodes, and a default link
// fault corrupting payload bytes in flight) followed by a settle
// (heal, revive, converge). The run self-gates:
//
//   - zero lost acked writes: every query the client got an ack for is
//     live on some owner after every settle,
//   - converged heads: every replica matches its owner's (epoch, seq)
//     log head post-heal,
//   - bounded detection: each fail-slow victim is excommunicated
//     within --slow-evict-limit simulated seconds,
//   - corruption never installs: the content-CRC fences reject
//     in-flight damage (non-zero rejection counters, invariants clean),
//   - bounded growth: replica records and pending-event backlog return
//     to a fixed multiple of their post-bootstrap baseline each round,
//   - census health: after every settle the gossiped cost census is
//     converged (every live table holds exactly the live set), and
//     across the whole soak its gossip payload averages under
//     --census-budget bytes per node per protocol period — the budget
//     knobs (census_max_records, top_k) must actually bound the
//     traffic, storms included. (The relative census-vs-data-plane
//     gate lives in abl_census, which drives an ingest workload.)
//
// Usage: abl_soak [--servers=18] [--rounds=4] [--queries=40]
//                 [--storm-minutes=12] [--settle-minutes=30]
//                 [--slow-evict-limit=180] [--seed=42] [--json=PATH]
//                 [--census-budget=1024] [--metrics-json]
//
// Defaults cover ~90+ simulated minutes; CI smoke runs
// --rounds=1 --storm-minutes=8 --settle-minutes=25 in about a minute.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "clash/client.hpp"
#include "common/argparse.hpp"
#include "common/rng.hpp"
#include "obs/expose.hpp"
#include "obs/hub.hpp"
#include "obs/postmortem.hpp"
#include "sim/churn.hpp"

using namespace clash;
using namespace clash::sim;

namespace {

constexpr unsigned kWidth = 10;

struct RoundResult {
  unsigned round = 0;
  bool converged = false;
  double settle_minutes = 0;
  std::size_t queries_registered = 0;  // cumulative acked
  std::size_t queries_kept = 0;
  double slow_evict_seconds = -1;  // -1 = victim never evicted
  std::uint64_t corrupt_rejected = 0;  // cumulative, all fences
  std::uint64_t corrupt_drops = 0;     // cumulative codec-level drops
  std::size_t replica_records = 0;
  std::size_t pending_events = 0;
  bool census_ok = false;  // census tables == live set after settle
};

ChurnSim::Config base_config(std::size_t servers, std::uint64_t seed) {
  ChurnSim::Config cfg;
  cfg.cluster.num_servers = servers;
  cfg.cluster.seed = seed;
  cfg.cluster.clash.key_width = kWidth;
  cfg.cluster.clash.initial_depth = 3;
  cfg.cluster.clash.capacity = 1e9;  // isolate replication from splitting
  cfg.cluster.clash.replication_factor = 2;
  cfg.protocol_period = SimTime::from_seconds(1);
  cfg.gossip_delay = SimTime::from_seconds(0.02);
  cfg.seed = seed * 31 + 7;
  return cfg;
}

std::size_t register_queries(ChurnSim& sim, std::size_t n,
                             std::uint64_t first_id) {
  ClashClient client(sim.cluster().clash_config(),
                     sim.cluster().client_env(ServerId{0}),
                     sim.cluster().hasher());
  Rng rng(first_id * 131 + 5);
  std::size_t acked = 0;
  for (std::size_t i = 0; i < n; ++i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & ((1u << kWidth) - 1), kWidth);
    obj.kind = ObjectKind::kQuery;
    obj.query_id = QueryId{first_id + i};
    if (client.insert(obj).ok) ++acked;  // only acks count as durable
  }
  return acked;
}

std::size_t live_queries(const SimCluster& cluster) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    if (cluster.is_alive(ServerId{i})) {
      total += cluster.server(ServerId{i}).total_queries();
    }
  }
  return total;
}

std::size_t replica_records(const SimCluster& cluster) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
    total += cluster.server(ServerId{i}).replica_count();
  }
  return total;
}

std::optional<std::string> heads_converged(const SimCluster& cluster) {
  for (const auto& [group, owner] : cluster.owner_index()) {
    const auto owner_head = cluster.server(owner).log_head(group);
    if (!owner_head) return "owner of " + group.label() + " has no log";
    for (std::size_t i = 0; i < cluster.num_servers(); ++i) {
      const ServerId id{i};
      if (!cluster.is_alive(id) || id == owner) continue;
      if (!cluster.server(id).has_replica(group)) continue;
      if (cluster.server(id).replica_head(group) != owner_head) {
        return group.label() + ": replica on s" + std::to_string(i) +
               " diverged";
      }
    }
  }
  return std::nullopt;
}

/// Every live node's census table holds exactly the live set — the
/// telemetry plane survived the storm along with the data plane.
bool census_converged(ChurnSim& sim, std::size_t servers) {
  std::size_t alive = 0;
  for (std::size_t i = 0; i < servers; ++i) {
    if (sim.cluster().is_alive(ServerId{i})) ++alive;
  }
  for (std::size_t i = 0; i < servers; ++i) {
    const ServerId id{i};
    if (!sim.cluster().is_alive(id)) continue;
    if (sim.census_of(id).table_size() != alive) return false;
    for (std::size_t j = 0; j < servers; ++j) {
      if ((sim.census_of(id).record_of(ServerId{j}) != nullptr) !=
          sim.cluster().is_alive(ServerId{j})) {
        return false;
      }
    }
  }
  return true;
}

std::uint64_t total_corrupt_rejected(const ChurnSim& sim) {
  // Gossip fences live in the membership drivers, ReplAppend /
  // SnapshotChunk fences in the servers' event stats.
  return sim.gossip_corrupt_rejected() +
         sim.cluster().total_stats().corrupt_rejected;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const auto servers = std::size_t(args.get_int("servers", 18));
  const auto rounds = unsigned(args.get_int("rounds", 4));
  const auto queries = std::size_t(args.get_int("queries", 40));
  const auto seed = std::uint64_t(args.get_int("seed", 42));
  const double storm_minutes = double(args.get_int("storm-minutes", 12));
  const double settle_minutes = double(args.get_int("settle-minutes", 30));
  const double slow_evict_limit =
      double(args.get_int("slow-evict-limit", 180));
  const double corrupt_pct = double(args.get_int("corrupt-pct", 3));
  const unsigned flap_cycles = unsigned(args.get_int("flap-cycles", 3));
  const bool skew = args.get_int("skew", 1) != 0;
  const double census_budget = double(args.get_int("census-budget", 1024));

  ChurnSim sim(base_config(servers, seed));
  sim.start();
  // Any gate failure (or invariant abort) below dumps the global
  // flight ring + in-flight table next to the JSON artifact.
  obs::Postmortem& pm = obs::Postmortem::global();
  pm.set_dir(".");
  obs::register_hub_source(pm, obs::Hub::global(), "abl_soak",
                           [&sim] { return sim.cluster().now().usec; });
  // Metered for the whole soak: the census-overhead gate is cumulative
  // across every storm, not a quiet-window measurement.
  sim.cluster().set_wire_metering(true);
  Rng pick(seed * 77 + 3);

  std::printf("# Soak: %zu servers, %u rounds of "
              "kill/flap/slow/skew/corrupt churn, ~%.0f sim-minutes\n",
              servers, rounds,
              rounds * (storm_minutes + 4 + settle_minutes / 2));
  std::printf("%-6s %-9s %11s %13s %15s %15s %9s %8s %7s\n", "round",
              "converged", "settle_min", "queries_kept", "slow_evict_sec",
              "corrupt_rejd", "replicas", "events", "census");

  // Warm-up: register the first batch and let replication settle
  // before the first storm, so round 1 has durable state to threaten.
  std::size_t acked = register_queries(sim, queries, 0);
  sim.run_for(SimTime::from_minutes(11));
  const std::size_t replica_baseline = replica_records(sim.cluster());

  // Four nodes run the whole soak on skewed clocks: their SWIM periods
  // and load checks fire 30% fast / slow. Eviction and refutation must
  // stay correct anyway — the gates below make no allowance for it.
  const double skews[] = {0.7, 1.3, 0.75, 1.25};
  if (skew) {
    for (std::size_t i = 0; i < 4 && i + 2 < servers; ++i) {
      sim.set_clock_rate(ServerId{i + 2}, skews[i]);
    }
  }

  std::string json = "{\n  \"bench\": \"abl_soak\",\n  \"rounds\": [\n";
  bool ok = true;
  std::vector<RoundResult> results;

  for (unsigned round = 1; round <= rounds; ++round) {
    RoundResult r{};
    r.round = round;

    // --- Storm ---------------------------------------------------------
    // Background byte-rot + light loss on every link for the duration.
    LinkMatrix::Fault noise;
    noise.corrupt_prob = corrupt_pct / 100.0;
    noise.drop_prob = 0.01;
    sim.links().set_default_fault(noise);

    // Fresh acked writes land *during* the fault window.
    acked += register_queries(sim, queries / 2, 100000ULL * round);

    // Two crashes, spaced so SWIM convergence from the first completes
    // (bounds concurrently-dead to the replication factor).
    const ServerId dead1{pick.below(servers)};
    sim.kill(dead1);
    sim.run_for(SimTime::from_minutes(2.5));
    ServerId dead2{pick.below(servers)};
    while (dead2 == dead1) dead2 = ServerId{pick.below(servers)};
    sim.kill(dead2);

    // A two-node minority flaps: 30s cut, 30s heal, three cycles.
    std::vector<ServerId> flappers;
    for (std::size_t i = 0; i < servers && flappers.size() < 2; ++i) {
      const ServerId id{i};
      if (id != dead1 && id != dead2 && sim.cluster().is_alive(id)) {
        flappers.push_back(id);
      }
    }
    sim.schedule_flaps(flappers, SimTime::from_seconds(30), flap_cycles);

    // One fail-slow victim at 100x: still answering, far too late.
    // Measure crash-free detection: sim-time from onset to
    // excommunication (the survivors' unanimous verdict).
    ServerId slow{0};
    do {
      slow = ServerId{pick.below(servers)};
    } while (slow == dead1 || slow == dead2 ||
             (!flappers.empty() &&
              (slow == flappers[0] || slow == flappers[1])) ||
             !sim.cluster().is_alive(slow));
    sim.set_slow(slow, 100.0);
    const auto slow_onset = sim.cluster().now();
    while (sim.cluster().is_alive(slow) &&
           (sim.cluster().now() - slow_onset).seconds() <
               slow_evict_limit) {
      sim.run_for(SimTime::from_seconds(5));
    }
    if (!sim.cluster().is_alive(slow)) {
      r.slow_evict_seconds = (sim.cluster().now() - slow_onset).seconds();
    }

    // Ride out the rest of the storm under continued corruption.
    const double spent = (sim.cluster().now() - slow_onset).minutes();
    if (spent < storm_minutes) {
      sim.run_for(SimTime::from_minutes(storm_minutes - spent));
    }

    // --- Settle --------------------------------------------------------
    sim.heal_partitions();  // clears flap cuts AND the corrupt default
    // Revive everything dead — the two kills, the excommunicated slow
    // victim, and any node the group fenced spuriously (a flapper
    // caught in the post-heal refutation window gets excommunicated
    // exactly like a real flappy node kicked from a production group;
    // the operator restarts it). Lost-write and convergence gates make
    // no allowance for those extra fencings: replication must cover
    // every one of them.
    for (std::size_t i = 0; i < servers; ++i) {
      if (!sim.cluster().is_alive(ServerId{i})) sim.revive(ServerId{i});
    }

    const auto healed_at = sim.cluster().now();
    for (int m = 0; m < int(settle_minutes) && !r.converged; ++m) {
      sim.run_for(SimTime::from_minutes(1));
      r.converged = heads_converged(sim.cluster()) == std::nullopt &&
                    live_queries(sim.cluster()) == acked &&
                    sim.cluster().alive_count() == servers;
    }
    r.settle_minutes = (sim.cluster().now() - healed_at).minutes();
    if (!r.converged) {
      const auto head_err = heads_converged(sim.cluster());
      std::fprintf(stderr,
                   "round %u stuck: heads=%s queries=%zu/%zu alive=%zu/%zu "
                   "ring_ok=%d\n",
                   round,
                   head_err ? head_err->c_str() : "ok",
                   live_queries(sim.cluster()), acked,
                   sim.cluster().alive_count(), servers,
                   int(sim.ring_matches_membership()));
    }
    r.census_ok = census_converged(sim, servers);
    if (!r.census_ok) {
      // The data plane can converge while the last census records are
      // still in flight; give gossip a short grace before judging.
      sim.run_for(SimTime::from_minutes(2));
      r.census_ok = census_converged(sim, servers);
    }
    r.queries_registered = acked;
    r.queries_kept = live_queries(sim.cluster());
    r.corrupt_rejected = total_corrupt_rejected(sim);
    r.corrupt_drops = sim.cluster().total_stats().corrupt_drops;
    r.replica_records = replica_records(sim.cluster());
    r.pending_events = sim.events().pending();

    if (const auto err = sim.cluster().check_invariants()) {
      std::fprintf(stderr, "INVARIANT VIOLATION (round %u): %s\n", round,
                   err->c_str());
      obs::Postmortem::global().dump("abl_soak invariant: " + *err);
      std::abort();
    }

    std::printf("%-6u %-9s %11.1f %8zu/%-4zu %15.1f %15llu %9zu %8zu %7s\n",
                r.round, r.converged ? "yes" : "NO", r.settle_minutes,
                r.queries_kept, r.queries_registered, r.slow_evict_seconds,
                (unsigned long long)r.corrupt_rejected, r.replica_records,
                r.pending_events, r.census_ok ? "ok" : "STALE");

    // --- Gates ---------------------------------------------------------
    if (!r.converged || r.queries_kept != r.queries_registered) {
      std::fprintf(stderr,
                   "FAIL round %u: not converged (%zu/%zu queries)\n",
                   round, r.queries_kept, r.queries_registered);
      ok = false;
    }
    if (r.slow_evict_seconds < 0) {
      std::fprintf(stderr,
                   "FAIL round %u: fail-slow s%zu not evicted within "
                   "%.0fs\n",
                   round, slow.value, slow_evict_limit);
      ok = false;
    }
    if (!r.census_ok) {
      std::fprintf(stderr,
                   "FAIL round %u: census not converged after settle\n",
                   round);
      ok = false;
    }
    // Replica records may grow with the query load but must stay a
    // small multiple of the post-bootstrap baseline — unbounded growth
    // here is the leak signature of a retire/handoff bug.
    if (r.replica_records > 4 * replica_baseline + 8 * acked) {
      std::fprintf(stderr,
                   "FAIL round %u: replica records grew unbounded "
                   "(%zu, baseline %zu)\n",
                   round, r.replica_records, replica_baseline);
      ok = false;
    }

    results.push_back(r);
  }

  // Corruption must have been exercised AND fenced: at least one
  // structurally-valid damaged payload rejected by a content CRC, and
  // zero installs of corrupt state (converged + invariants already
  // proved the latter).
  const std::uint64_t rejected = total_corrupt_rejected(sim);
  const std::uint64_t codec_drops = sim.cluster().total_stats().corrupt_drops;
  if (rejected == 0) {
    std::fprintf(stderr,
                 "FAIL: no corrupted payload ever reached a content "
                 "fence (rejected=0, codec drops=%llu)\n",
                 (unsigned long long)codec_drops);
    ok = false;
  }

  // Census byte-rate across the whole soak, storms included.
  const auto wire = sim.cluster().total_stats();
  const double periods = sim.cluster().now().seconds();  // 1s period
  const double census_rate =
      periods <= 0 ? 0 : double(wire.census_bytes) / (periods * servers);
  if (wire.census_records == 0 ||
      wire.census_bytes == 0 ||
      census_rate > census_budget) {
    std::fprintf(stderr,
                 "FAIL: census gossip averaged %.0f bytes/node/period "
                 "(budget %.0f, records=%llu)\n",
                 census_rate, census_budget,
                 (unsigned long long)wire.census_records);
    ok = false;
  }

  bool first = true;
  for (const auto& r : results) {
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "    %s{\"round\": %u, \"converged\": %s, "
        "\"settle_minutes\": %.1f, \"queries_registered\": %zu, "
        "\"queries_kept\": %zu, \"slow_evict_seconds\": %.1f, "
        "\"corrupt_rejected\": %llu, \"corrupt_codec_drops\": %llu, "
        "\"replica_records\": %zu, \"pending_events\": %zu, "
        "\"census_converged\": %s}",
        first ? "" : ",", r.round, r.converged ? "true" : "false",
        r.settle_minutes, r.queries_registered, r.queries_kept,
        r.slow_evict_seconds, (unsigned long long)r.corrupt_rejected,
        (unsigned long long)r.corrupt_drops, r.replica_records,
        r.pending_events, r.census_ok ? "true" : "false");
    json += line;
    json += "\n";
    first = false;
  }
  json += "  ],\n";
  json += "  \"sim_minutes\": " +
          std::to_string(sim.cluster().now().minutes()) + ",\n";
  json += "  \"corrupt_rejected_total\": " + std::to_string(rejected) +
          ",\n";
  json += "  \"corrupt_codec_drops\": " + std::to_string(codec_drops) +
          ",\n";
  json += "  \"slow_evictions\": " +
          std::to_string(sim.cluster().total_stats().slow_evictions) +
          ",\n";
  json += "  \"census_records\": " + std::to_string(wire.census_records) +
          ",\n";
  json += "  \"census_bytes\": " + std::to_string(wire.census_bytes) + ",\n";
  json += "  \"census_bytes_per_node_period\": " +
          std::to_string(census_rate) + ",\n";
  json += "  \"passed\": " + std::string(ok ? "true" : "false") + "\n}\n";

  std::printf("\n# expectation: every round converges with zero lost "
              "acked writes; each fail-slow victim is excommunicated "
              "within the detection window without ever crashing; "
              "corrupted payloads die at CRC fences (%llu rejected, "
              "%llu codec drops), never installed.\n",
              (unsigned long long)rejected,
              (unsigned long long)codec_drops);

  obs::maybe_embed_metrics(args, json, obs::Hub::global().registry);
  if (!write_json_artifact(args, json)) return 1;
  if (!ok) obs::Postmortem::global().dump("abl_soak gate failure");
  return ok ? 0 : 1;
}
