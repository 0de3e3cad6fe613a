// Telemetry-plane ablation: the gossiped cost census and cross-node
// trace propagation, self-gated.
//
// Per cluster size (default 16, 64, 256), under live SWIM membership:
//
//   1. convergence: every node's census table must hold exactly the
//      live set within a bounded number of protocol periods,
//   2. accuracy under churn: after a kill + revive cycle and a settle,
//      every node's folded ClusterView must match ground truth — node
//      count, cluster totals, and the merged per-group cost ranking
//      (modulo each node's top-K truncation, replicated on the truth
//      side) — computed straight from the simulated servers.
//
// On the first (canonical, CI-smoke) size only, two more gates:
//
//   3. overhead: with wire metering on and a steady per-node ingest
//      workload, the census payload inside delivered gossip frames
//      must stay under --budget-pct (default 10%) of total wire bytes,
//   4. trace stitching: one query inserted with a trace id must leave
//      TraceRecorder spans on >= 2 distinct nodes (owner ingest +
//      replica apply) sharing that id.
//
// Usage: abl_census [--sizes=16,64,256] [--seed=42]
//                   [--ingest-per-node=40] [--overhead-periods=45]
//                   [--budget-pct=10] [--json=PATH] [--metrics-json]
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "clash/client.hpp"
#include "common/argparse.hpp"
#include "common/rng.hpp"
#include "obs/expose.hpp"
#include "obs/hub.hpp"
#include "sim/churn.hpp"

using namespace clash;
using namespace clash::sim;

namespace {

constexpr unsigned kWidth = 10;

struct SizeResult {
  std::size_t servers = 0;
  int converge_rounds = -1;   // -1 = never converged
  int churn_rounds = -1;      // reconvergence after kill + revive
  bool view_ok = false;
  std::string view_err;
};

ChurnSim::Config census_config(std::size_t servers, std::uint64_t seed) {
  ChurnSim::Config cfg;
  cfg.cluster.num_servers = servers;
  cfg.cluster.seed = seed;
  cfg.cluster.clash.key_width = kWidth;
  cfg.cluster.clash.initial_depth = 3;
  cfg.cluster.clash.capacity = 1e9;  // stable groups: no load splits
  cfg.cluster.clash.replication_factor = 2;
  cfg.protocol_period = SimTime::from_seconds(1);
  cfg.gossip_delay = SimTime::from_seconds(0.02);
  cfg.census.refresh_periods = 2;
  // Gossip budget knobs, scaled with the table (README "Cluster
  // telemetry"): bigger clusters piggyback more records per frame so
  // dissemination latency stays sublinear in N, and get a longer
  // aging leash so slow rotation can't flicker healthy peers out.
  cfg.membership.census_max_records = std::max<std::size_t>(2, servers / 32);
  cfg.census.ttl_periods = std::max<std::uint64_t>(96, 8 * servers);
  cfg.seed = seed * 131 + 7;
  return cfg;
}

/// Every live node's census table holds exactly the live set.
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
      const ServerId peer{j};
      if ((sim.census_of(id).record_of(peer) != nullptr) !=
          sim.cluster().is_alive(peer)) {
        return false;
      }
    }
  }
  return true;
}

int run_until_converged(ChurnSim& sim, std::size_t servers, int bound) {
  for (int period = 1; period <= bound; ++period) {
    sim.run_for(sim.protocol_period());
    if (census_converged(sim, servers)) return period;
  }
  return -1;
}

/// Insert `n` objects. With a nonzero `spread` they arrive one per
/// slice of that much sim time, not in one burst (whose ReplAppends
/// would leave as one batch per group, like one tick's on a node).
std::size_t ingest(ChurnSim& sim, std::size_t n, std::uint64_t salt,
                   SimDuration spread = SimDuration{0}) {
  ClashClient client(sim.cluster().clash_config(),
                     sim.cluster().client_env(ServerId{0}),
                     sim.cluster().hasher());
  Rng rng(salt * 977 + 13);
  std::size_t acked = 0;
  for (std::size_t i = 0; i < n; ++i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & ((1u << kWidth) - 1), kWidth);
    obj.kind = (i % 4 == 0) ? ObjectKind::kQuery : ObjectKind::kData;
    if (obj.kind == ObjectKind::kQuery) {
      obj.query_id = QueryId{salt * 1'000'000 + i};
    } else {
      obj.source = ClientId{salt * 1'000'000 + i};
      obj.stream_rate = 1.0;
    }
    if (client.insert(obj).ok) ++acked;
    if (spread.usec > 0) {
      sim.run_for(SimDuration{spread.usec / std::int64_t(n)});
    }
  }
  return acked;
}

/// Replicates the fold + merge on ground truth and diffs it against
/// every node's view. Empty string = all views match.
std::string check_views(ChurnSim& sim, std::size_t servers) {
  const std::size_t top_k = sim.census_of(ServerId{0}).config().top_k;
  std::uint64_t t_streams = 0, t_queries = 0, t_groups = 0;
  double t_load = 0;
  GroupCost t_totals;
  std::map<KeyGroup, GroupCost> t_merged;
  for (std::size_t i = 0; i < servers; ++i) {
    const auto& srv = sim.cluster().server(ServerId{i});
    t_streams += srv.total_streams();
    t_queries += srv.total_queries();
    t_groups += srv.table().active_count();
    t_load += srv.server_load();
    t_totals += srv.total_group_cost();
    // Per-node top-K with the census's deterministic ordering.
    std::vector<CensusGroupCost> top;
    top.reserve(srv.group_costs().size());
    for (const auto& [group, cost] : srv.group_costs()) {
      top.push_back(CensusGroupCost{group, cost});
    }
    std::sort(top.begin(), top.end(),
              [](const CensusGroupCost& a, const CensusGroupCost& b) {
                if (a.cost.total_bytes() != b.cost.total_bytes()) {
                  return a.cost.total_bytes() > b.cost.total_bytes();
                }
                return a.group < b.group;
              });
    if (top.size() > top_k) top.resize(top_k);
    for (const auto& gc : top) t_merged[gc.group] += gc.cost;
  }

  for (std::size_t i = 0; i < servers; ++i) {
    const auto view = sim.census_of(ServerId{i}).view();
    const std::string at = "node " + std::to_string(i) + ": ";
    if (view.nodes.size() != servers) {
      return at + "sees " + std::to_string(view.nodes.size()) + "/" +
             std::to_string(servers) + " nodes";
    }
    if (view.total_streams != t_streams || view.total_queries != t_queries) {
      return at + "streams/queries " + std::to_string(view.total_streams) +
             "/" + std::to_string(view.total_queries) + " != truth " +
             std::to_string(t_streams) + "/" + std::to_string(t_queries);
    }
    if (view.total_groups != t_groups) {
      return at + "groups " + std::to_string(view.total_groups) +
             " != truth " + std::to_string(t_groups);
    }
    if (view.totals.total_bytes() != t_totals.total_bytes()) {
      return at + "cost totals diverge from ground truth";
    }
    const double load_err = view.total_load - t_load;
    if (load_err > 1e-6 || load_err < -1e-6) {
      return at + "load diverges from ground truth";
    }
    if (view.top_groups.size() != t_merged.size()) {
      return at + "top-group count " +
             std::to_string(view.top_groups.size()) + " != truth " +
             std::to_string(t_merged.size());
    }
    for (const auto& gc : view.top_groups) {
      const auto it = t_merged.find(gc.group);
      if (it == t_merged.end()) {
        return at + "ranks unknown group " + gc.group.label();
      }
      if (gc.cost.total_bytes() != it->second.total_bytes()) {
        return at + "cost of " + gc.group.label() + " diverges";
      }
    }
    // Ranking head: the heaviest group agrees with ground truth.
    if (!view.top_groups.empty()) {
      const auto heaviest = std::max_element(
          t_merged.begin(), t_merged.end(), [](const auto& a, const auto& b) {
            if (a.second.total_bytes() != b.second.total_bytes()) {
              return a.second.total_bytes() < b.second.total_bytes();
            }
            return b.first < a.first;
          });
      if (!(view.top_groups.front().group == heaviest->first)) {
        return at + "top-ranked group " + view.top_groups.front().group.label() +
               " != truth " + heaviest->first.label();
      }
    }
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const auto seed = std::uint64_t(args.get_int("seed", 42));
  const auto ingest_per_node = std::size_t(args.get_int("ingest-per-node", 40));
  const auto overhead_periods = int(args.get_int("overhead-periods", 45));
  const double budget_pct = double(args.get_int("budget-pct", 10));

  std::vector<std::size_t> sizes;
  {
    std::string csv = args.get("sizes", "16,64,256");
    for (std::size_t pos = 0; pos < csv.size();) {
      const std::size_t comma = csv.find(',', pos);
      const std::string tok = csv.substr(pos, comma - pos);
      if (!tok.empty()) sizes.push_back(std::size_t(std::stoul(tok)));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }
  if (sizes.empty()) {
    std::fprintf(stderr, "no sizes given\n");
    return 1;
  }

  bool ok = true;
  std::vector<SizeResult> results;
  std::uint64_t census_bytes = 0, wire_bytes = 0, census_records = 0;
  double overhead_ratio = -1;
  std::size_t trace_nodes = 0;
  bool trace_ok = false;

  std::printf("# Census ablation: convergence + view accuracy at");
  for (const auto n : sizes) std::printf(" %zu", n);
  std::printf(" nodes; overhead + trace gates at %zu\n", sizes.front());
  std::printf("%-8s %-10s %-14s %-12s %-8s\n", "servers", "converge",
              "churn_rounds", "max_records", "view");

  for (std::size_t si = 0; si < sizes.size(); ++si) {
    const std::size_t servers = sizes[si];
    const auto cfg = census_config(servers, seed);
    // Presence converges via the epidemic push; the bound leaves room
    // for the round-robin backfill to cover big tables too.
    const int bound = int(std::max<std::size_t>(48, 3 * servers));
    ChurnSim sim(cfg);
    sim.start();
    ingest(sim, 4 * servers, /*salt=*/si + 1);

    SizeResult r;
    r.servers = servers;
    r.converge_rounds = run_until_converged(sim, servers, bound);
    if (r.converge_rounds < 0) {
      std::fprintf(stderr, "FAIL %zu nodes: census not converged in %d "
                           "periods\n", servers, bound);
      ok = false;
    }

    // Kill + revive churn, then require reconvergence and a view that
    // matches ground truth after the gauges settle.
    const ServerId victim{servers / 2};
    sim.kill(victim);
    int rounds = run_until_converged(sim, servers, bound);
    sim.revive(victim);
    const int back = run_until_converged(sim, servers, bound);
    r.churn_rounds = (rounds < 0 || back < 0) ? -1 : rounds + back;
    if (r.churn_rounds < 0) {
      std::fprintf(stderr, "FAIL %zu nodes: census lost convergence "
                           "across kill/revive\n", servers);
      ok = false;
    }
    // Settle: every node re-folds and the last gauge change propagates.
    sim.run_for(SimTime::from_seconds(
        double(2 * cfg.census.refresh_periods + bound / 4)));
    r.view_err = check_views(sim, servers);
    r.view_ok = r.view_err.empty();
    if (!r.view_ok) {
      std::fprintf(stderr, "FAIL %zu nodes: view mismatch: %s\n", servers,
                   r.view_err.c_str());
      ok = false;
    }

    std::printf("%-8zu %-10d %-14d %-12zu %-8s\n", servers,
                r.converge_rounds, r.churn_rounds,
                cfg.membership.census_max_records,
                r.view_ok ? "ok" : "MISMATCH");
    results.push_back(r);

    if (si != 0) continue;

    // --- Overhead gate (canonical size) ------------------------------
    // Steady ingest at a fixed per-node rate; the census payload must
    // stay a small fraction of everything on the wire.
    sim.cluster().reset_stats();
    sim.cluster().set_wire_metering(true);
    for (int p = 0; p < overhead_periods; ++p) {
      ingest(sim, ingest_per_node * servers, /*salt=*/1000 + p,
             sim.protocol_period());
    }
    sim.cluster().set_wire_metering(false);
    const auto stats = sim.cluster().total_stats();
    census_bytes = stats.census_bytes;
    wire_bytes = stats.wire_bytes;
    census_records = stats.census_records;
    overhead_ratio =
        wire_bytes == 0 ? 1.0 : double(census_bytes) / double(wire_bytes);
    std::printf("# overhead: %llu census bytes / %llu wire bytes = %.2f%% "
                "(budget %.0f%%), %llu records delivered\n",
                (unsigned long long)census_bytes,
                (unsigned long long)wire_bytes, 100 * overhead_ratio,
                budget_pct, (unsigned long long)census_records);
    if (census_records == 0 || overhead_ratio > budget_pct / 100.0) {
      std::fprintf(stderr, "FAIL: census overhead %.2f%% over the %.0f%% "
                           "budget (or no records flowed)\n",
                   100 * overhead_ratio, budget_pct);
      ok = false;
    }

    // --- Trace-stitching gate (canonical size) -----------------------
    auto& tracer = obs::Hub::global().tracer;
    tracer.clear();
    tracer.set_enabled(true);
    {
      ClashClient client(sim.cluster().clash_config(),
                         sim.cluster().client_env(ServerId{0}),
                         sim.cluster().hasher());
      AcceptObject obj;
      obj.key = Key(0b1011011011, kWidth);
      obj.kind = ObjectKind::kQuery;
      obj.query_id = QueryId{0xC0FFEE};
      obj.trace_id = 0xC1D2E3F4A5B60708ULL;
      if (!client.insert(obj).ok) {
        std::fprintf(stderr, "FAIL: traced query not accepted\n");
        ok = false;
      }
    }
    sim.run_for(SimTime::from_seconds(2));  // repl append flush + apply
    tracer.set_enabled(false);
    std::set<std::uint64_t> pids;
    bool saw_ingest = false, saw_apply = false;
    for (const auto& span : tracer.spans()) {
      if (span.trace_id != 0xC1D2E3F4A5B60708ULL) continue;
      pids.insert(span.pid);
      saw_ingest |= span.kind == obs::SpanKind::kIngest;
      saw_apply |= span.kind == obs::SpanKind::kReplApply;
    }
    trace_nodes = pids.size();
    trace_ok = trace_nodes >= 2 && saw_ingest && saw_apply;
    std::printf("# trace: query 0xC1D2E3F4A5B60708 left spans on %zu "
                "node(s), ingest=%d repl_apply=%d\n",
                trace_nodes, int(saw_ingest), int(saw_apply));
    if (!trace_ok) {
      std::fprintf(stderr, "FAIL: traced query did not stitch across >= 2 "
                           "nodes\n");
      ok = false;
    }
  }

  std::string json = "{\n  \"bench\": \"abl_census\",\n  \"sizes\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    %s{\"servers\": %zu, \"converge_rounds\": %d, "
                  "\"churn_rounds\": %d, \"view_ok\": %s}",
                  i == 0 ? "" : ",", r.servers, r.converge_rounds,
                  r.churn_rounds, r.view_ok ? "true" : "false");
    json += line;
    json += "\n";
  }
  json += "  ],\n";
  json += "  \"census_bytes\": " + std::to_string(census_bytes) + ",\n";
  json += "  \"wire_bytes\": " + std::to_string(wire_bytes) + ",\n";
  json += "  \"census_records\": " + std::to_string(census_records) + ",\n";
  json += "  \"overhead_pct\": " +
          std::to_string(overhead_ratio < 0 ? -1.0 : 100 * overhead_ratio) +
          ",\n";
  json += "  \"trace_nodes\": " + std::to_string(trace_nodes) + ",\n";
  json += "  \"trace_ok\": " + std::string(trace_ok ? "true" : "false") +
          ",\n";
  json += "  \"passed\": " + std::string(ok ? "true" : "false") + "\n}\n";

  std::printf("\n# expectation: census tables converge within the bound at "
              "every size, every view matches ground truth after churn, "
              "census stays within %.0f%% of wire bytes, and one traced "
              "query stitches across nodes.\n", budget_pct);

  obs::maybe_embed_metrics(args, json, obs::Hub::global().registry);
  if (!write_json_artifact(args, json)) return 1;
  return ok ? 0 : 1;
}
