// Fault-tolerance ablation: replication factor vs state survival and
// cost under the operation-log replication engine.
// Loads a cluster with streams AND continuous queries over links with
// a real propagation delay, lets replicas form, then crashes 25% of
// the servers one at a time — each crash sits through a 2 s detection
// window before the survivors evict it, like a SWIM deployment —
// and measures how much state survives, what the steady-state
// replication traffic costs, and what the observability layer saw:
// commit latency (ReplAppend -> ReplAck) and failover-time
// (crash -> evict/promote) histograms plus the per-group Gray cost
// vector, all embedded in the JSON artifact.
//
// Usage: abl_failover [--servers=64] [--sources=4000] [--queries=800]
//                     [--seed=42] [--json=PATH] [--metrics-json]
//                     [--trace=PATH]   (Chrome trace of the x2 run)
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "clash/client.hpp"
#include "common/argparse.hpp"
#include "common/rng.hpp"
#include "obs/expose.hpp"
#include "obs/hub.hpp"
#include "sim/cluster.hpp"
#include "tests/clash/test_util.hpp"

using namespace clash;
using namespace clash::sim;

namespace {

/// One-way link propagation delay: makes the commit round trip (and
/// therefore clash_repl_commit_usec) physically nonzero.
constexpr std::int64_t kLinkDelayUsec = 1500;
/// Crash -> eviction gap, standing in for SWIM's detection time.
constexpr std::int64_t kDetectWindowUsec = 2'000'000;

/// Runs the cluster's queue until every in-flight message chain has
/// landed: a bare SimCluster schedules nothing periodic, so its queue
/// empties once the wire is quiet.
void settle(SimCluster& cluster) {
  while (!cluster.events().empty()) {
    cluster.run_until(cluster.now() + SimDuration{kLinkDelayUsec});
  }
}

struct HistSummary {
  std::uint64_t count = 0;
  double p50 = 0;
  double p99 = 0;

  static HistSummary of(const char* name) {
    const auto snap =
        obs::Hub::global().registry.histogram_snapshot(name);
    HistSummary h;
    h.count = snap.count;
    if (snap.count > 0) {
      h.p50 = snap.percentile(50);
      h.p99 = snap.percentile(99);
    }
    return h;
  }
};

struct CostSummary {
  std::size_t groups = 0;
  GroupCost total;
  std::vector<std::pair<std::string, std::uint64_t>> top;  // label, bytes
};

struct RunResult {
  unsigned factor;
  std::uint64_t failovers;
  std::uint64_t lost;
  double streams_kept_pct;
  double queries_kept_pct;
  double repl_msgs_per_srv_sec;   // steady-state refresh traffic
  std::uint64_t snapshot_msgs;    // full-state messages in steady state
  std::uint64_t delta_msgs;       // incremental messages in steady state
  HistSummary commit_us;          // clash_repl_commit_usec
  HistSummary detect_us;          // clash_failover_detect_usec
  HistSummary recovery_us;        // clash_failover_recovery_usec
  CostSummary cost;
};

RunResult run_one(unsigned factor, std::size_t n_servers, std::size_t n_sources,
                  std::size_t n_queries, std::uint64_t seed,
                  const char* trace_path) {
  // Each configuration gets a clean slate of every clash_* series; the
  // per-run summaries below (and the --metrics-json section, which
  // reflects the final run) would otherwise mix configurations.
  obs::Hub::global().registry.reset();
  auto& tracer = obs::Hub::global().tracer;
  if (trace_path != nullptr) {
    tracer.clear();
    tracer.set_enabled(true);
  }

  SimCluster::Config cfg;
  cfg.num_servers = n_servers;
  cfg.seed = seed;
  cfg.clash.key_width = 24;
  cfg.clash.initial_depth = 6;
  cfg.clash.capacity = 1e9;  // isolate replication from splitting
  cfg.clash.replication_factor = factor;
  SimCluster cluster(cfg);
  cluster.bootstrap();

  LinkMatrix::Fault wire;
  wire.delay_usec = kLinkDelayUsec;
  cluster.links().set_default_fault(wire);

  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  Rng rng(seed);
  for (std::size_t i = 0; i < n_sources; ++i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & 0xFFFFFF, 24);
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{i};
    obj.stream_rate = 1;
    if (!client.insert(obj).ok) std::abort();
  }
  for (std::size_t i = 0; i < n_queries; ++i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & 0xFFFFFF, 24);
    obj.kind = ObjectKind::kQuery;
    obj.query_id = QueryId{i};
    if (!client.insert(obj).ok) std::abort();
  }
  // Let every in-flight append land and ack before anything crashes:
  // the replicas must be caught up for the survival gate to be a
  // statement about replication, not about racing the wire.
  settle(cluster);

  // Steady state: the registrations above already replicated (the log
  // streams each op). Measure two quiet check periods of refresh
  // traffic.
  cluster.run_until(SimTime::from_minutes(5));
  cluster.run_all_load_checks();
  settle(cluster);
  const auto before = cluster.total_stats();
  for (int round = 2; round <= 3; ++round) {
    cluster.run_until(SimTime::from_minutes(5 * round));
    cluster.run_all_load_checks();
    settle(cluster);
  }
  const auto steady = cluster.total_stats() - before;

  // Staged failures: each victim crashes, sits dead through the
  // detection window (clash_failover_detect_usec records it), then the
  // survivors evict it and the heirs promote.
  Rng crash_rng(seed + 1);
  for (std::size_t i = 0; i < n_servers / 4; ++i) {
    for (;;) {
      const ServerId victim{crash_rng.below(n_servers)};
      if (cluster.is_alive(victim)) {
        cluster.crash_server(victim);
        // In-flight frames to the corpse drop on arrival.
        cluster.run_until(cluster.now() + SimDuration{kDetectWindowUsec});
        cluster.evict_server(victim);
        settle(cluster);  // recovery pulls + re-replication settle
        break;
      }
    }
  }

  std::size_t streams_kept = 0;
  std::size_t queries_kept = 0;
  for (std::size_t i = 0; i < n_servers; ++i) {
    if (!cluster.is_alive(ServerId{i})) continue;
    streams_kept += cluster.server(ServerId{i}).total_streams();
    queries_kept += cluster.server(ServerId{i}).total_queries();
  }
  if (const auto err = cluster.check_invariants()) {
    std::fprintf(stderr, "INVARIANT VIOLATION: %s\n", err->c_str());
    std::abort();
  }

  const auto total = cluster.total_stats();
  RunResult r{};
  r.factor = factor;
  r.failovers = total.failovers;
  r.lost = total.groups_lost;
  r.streams_kept_pct = 100.0 * double(streams_kept) / double(n_sources);
  r.queries_kept_pct =
      n_queries == 0 ? 100.0
                     : 100.0 * double(queries_kept) / double(n_queries);
  r.repl_msgs_per_srv_sec = double(steady.replication_log_messages()) /
                           600.0 /* 2 periods */ / double(n_servers);
  r.snapshot_msgs = steady.snapshot_offers + steady.snapshot_chunks;
  r.delta_msgs = steady.repl_appends + steady.repl_acks +
                 steady.anti_entropy_probes + steady.anti_entropy_diffs;

  r.commit_us = HistSummary::of("clash_repl_commit_usec");
  r.detect_us = HistSummary::of("clash_failover_detect_usec");
  r.recovery_us = HistSummary::of("clash_failover_recovery_usec");

  // Per-group Gray cost vector, merged across every server that ever
  // touched the group (a failed-over group has cost at the old owner
  // and its heir).
  std::map<KeyGroup, GroupCost> merged;
  for (std::size_t i = 0; i < n_servers; ++i) {
    for (const auto& [group, cost] : cluster.server(ServerId{i}).group_costs()) {
      merged[group] += cost;
    }
  }
  r.cost.groups = merged.size();
  for (const auto& [group, cost] : merged) r.cost.total += cost;
  std::vector<std::pair<std::string, std::uint64_t>> ranked;
  ranked.reserve(merged.size());
  for (const auto& [group, cost] : merged) {
    ranked.emplace_back(group.label(), cost.total_bytes());
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (ranked.size() > 3) ranked.resize(3);
  r.cost.top = std::move(ranked);

  if (trace_path != nullptr) {
    tracer.set_enabled(false);
    const std::string json = tracer.to_chrome_json();
    if (FILE* f = std::fopen(trace_path, "w"); f != nullptr) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      // How many logical flows stitched across nodes: trace ids whose
      // spans landed on >= 2 distinct pids (ingest on the owner, apply
      // on a replica, snapshot legs on the heir, ...).
      std::map<std::uint64_t, std::set<std::uint64_t>> flows;
      for (const auto& span : tracer.spans()) {
        if (span.trace_id != 0) flows[span.trace_id].insert(span.pid);
      }
      std::size_t cross = 0;
      for (const auto& [id, pids] : flows) cross += pids.size() >= 2;
      std::printf("# trace: %llu spans (%llu overwritten), %zu/%zu flows "
                  "span >= 2 nodes -> %s\n",
                  (unsigned long long)tracer.spans().size(),
                  (unsigned long long)tracer.dropped(), cross, flows.size(),
                  trace_path);
    } else {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_path);
    }
  }
  return r;
}

void append_hist_json(std::string& json, const char* key,
                      const HistSummary& h) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"%s\": {\"count\": %llu, \"p50_us\": %.1f, "
                "\"p99_us\": %.1f}",
                key, (unsigned long long)h.count, h.p50, h.p99);
  json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const auto n_servers = std::size_t(args.get_int("servers", 64));
  const auto n_sources = std::size_t(args.get_int("sources", 4000));
  const auto n_queries = std::size_t(args.get_int("queries", 800));
  const auto seed = std::uint64_t(args.get_int("seed", 42));
  const std::string trace_path = args.get("trace", "");

  std::printf("# Failover ablation: %zu servers, %zu streams, %zu queries, "
              "crash 25%% of the cluster (staged: %.1fs detection window, "
              "%lldus links)\n",
              n_servers, n_sources, n_queries,
              double(kDetectWindowUsec) / 1e6, (long long)kLinkDelayUsec);
  std::printf("%-8s %10s %6s %14s %14s %15s %13s %11s %12s %12s\n",
              "replicas", "failovers", "lost", "streams_kept_%",
              "queries_kept_%", "repl msg/s/srv", "snapshot_msgs",
              "delta_msgs", "commit_p99us", "detect_p50us");

  std::string json = "{\n  \"bench\": \"abl_failover\",\n  \"runs\": [\n";
  bool first = true;
  for (const unsigned factor : {0u, 1u, 2u, 3u}) {
    // The trace follows the flagship configuration: x2.
    const bool traced = !trace_path.empty() && factor == 2;
    const RunResult r = run_one(factor, n_servers, n_sources, n_queries, seed,
                                traced ? trace_path.c_str() : nullptr);
    std::printf("%-8u %10llu %6llu %14.1f %14.1f %15.3f %13llu "
                "%11llu %12.0f %12.0f\n",
                r.factor, (unsigned long long)r.failovers,
                (unsigned long long)r.lost, r.streams_kept_pct,
                r.queries_kept_pct, r.repl_msgs_per_srv_sec,
                (unsigned long long)r.snapshot_msgs,
                (unsigned long long)r.delta_msgs, r.commit_us.p99,
                r.detect_us.p50);
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "    %s{\"factor\": %u, \"failovers\": %llu, "
        "\"groups_lost\": %llu, \"streams_kept_pct\": %.1f, "
        "\"queries_kept_pct\": %.1f, \"repl_msgs_per_srv_sec\": %.3f, "
        "\"snapshot_msgs\": %llu, \"delta_msgs\": %llu,\n     ",
        first ? "" : ",", r.factor, (unsigned long long)r.failovers,
        (unsigned long long)r.lost, r.streams_kept_pct, r.queries_kept_pct,
        r.repl_msgs_per_srv_sec, (unsigned long long)r.snapshot_msgs,
        (unsigned long long)r.delta_msgs);
    json += line;
    append_hist_json(json, "commit_latency", r.commit_us);
    json += ",\n     ";
    append_hist_json(json, "failover_detect", r.detect_us);
    json += ",\n     ";
    append_hist_json(json, "failover_recovery", r.recovery_us);
    char cost[384];
    std::snprintf(
        cost, sizeof(cost),
        ",\n     \"group_cost\": {\"groups\": %zu, \"puts\": %llu, "
        "\"matches\": %llu, \"bytes_served\": %llu, \"repl_bytes\": %llu, "
        "\"storage_bytes\": %llu, \"top_groups\": [",
        r.cost.groups, (unsigned long long)r.cost.total.puts,
        (unsigned long long)r.cost.total.matches,
        (unsigned long long)r.cost.total.bytes_served,
        (unsigned long long)r.cost.total.repl_bytes,
        (unsigned long long)r.cost.total.storage_bytes);
    json += cost;
    for (std::size_t i = 0; i < r.cost.top.size(); ++i) {
      char top[128];
      std::snprintf(top, sizeof(top),
                    "%s{\"group\": \"%s\", \"total_bytes\": %llu}",
                    i == 0 ? "" : ", ", r.cost.top[i].first.c_str(),
                    (unsigned long long)r.cost.top[i].second);
      json += top;
    }
    json += "]}}\n";
    first = false;

    // Acceptance gate: factor >= 2 must keep 100% of the state through
    // a 25% cluster loss.
    if (factor >= 2 &&
        (r.streams_kept_pct < 100.0 || r.queries_kept_pct < 100.0)) {
      std::fprintf(stderr,
                   "FAIL: factor %u lost state (%.1f%% streams, "
                   "%.1f%% queries)\n",
                   factor, r.streams_kept_pct, r.queries_kept_pct);
      return 1;
    }
    // Observability gate: a staged eviction MUST have shown up as a
    // nonzero detection latency, and replicated commits as a nonzero
    // round trip — otherwise the instrumentation went dark.
    if (r.detect_us.count == 0 || r.detect_us.p50 <= 0) {
      std::fprintf(stderr, "FAIL: no failover-detect samples recorded\n");
      return 1;
    }
    if (factor >= 1 && (r.commit_us.count == 0 || r.commit_us.p50 <= 0)) {
      std::fprintf(stderr, "FAIL: no commit-latency samples recorded\n");
      return 1;
    }
  }
  json += "  ]\n}\n";

  std::printf(
      "\n# expectation: factor 0 loses every crashed group's state; factor "
      ">= 2 keeps 100%%. The steady-state refresh is (epoch, seq) probes: "
      "snapshot_msgs stays 0 in a quiet cluster.\n");

  obs::maybe_embed_metrics(args, json, obs::Hub::global().registry);
  return write_json_artifact(args, json) ? 0 : 1;
}
