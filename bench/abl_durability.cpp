// Durability ablation: cold-restart recovery with and without the
// durable store (WAL + checkpoint snapshots). Loads a replicated
// cluster, crash+restarts the busiest server, and measures what the
// restart costs — network bytes
// moved during recovery, records replayed from disk, recovery wall
// time, and state kept. Also drives the two disk-damage paths: a
// simulated torn WAL tail (recovers to the last complete record, then
// the replica set streams the lost suffix), and a real kill -9 of a
// forked writer process over storage::FileBackend (run under ASan in
// CI).
//
// Self-gating: kWalSnapshot must recover every group of the killed
// node from local disk with zero lost queries and strictly fewer
// network bytes than the in-memory pull path (kNone), replay at most
// one compaction window per recovered group, and the torn tail must
// recover to the last complete record.
//
// Usage: abl_durability [--servers=16] [--sources=3000] [--queries=600]
//                       [--seed=42] [--json=PATH] [--no-kill9]
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <string>

#include "clash/client.hpp"
#include "common/argparse.hpp"
#include "obs/expose.hpp"
#include "obs/hub.hpp"
#include "common/rng.hpp"
#include "sim/cluster.hpp"
#include "storage/recovery.hpp"
#include "storage/store.hpp"

using namespace clash;
using namespace clash::sim;

namespace {

/// Retained log entries per group before a checkpoint. Low enough that
/// groups cross several checkpoint boundaries under the bench load —
/// the window the replay bound is stated in.
constexpr unsigned kLogCompactThreshold = 64;

struct RunResult {
  const char* mode;
  std::uint64_t recovery_wire_bytes = 0;  // crash->recovered window
  std::uint64_t groups_lost = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t snapshots_loaded = 0;
  double recovery_ms = 0;  // restart_server wall time (includes replay)
  double streams_kept_pct = 0;
  double queries_kept_pct = 0;
  std::uint64_t disk_bytes = 0;  // simulated-disk footprint at crash
};

const char* mode_name(ClashConfig::DurabilityMode mode) {
  switch (mode) {
    case ClashConfig::DurabilityMode::kNone:
      return "none";
    case ClashConfig::DurabilityMode::kWalSnapshot:
      return "walsnap";
  }
  return "?";
}

SimCluster::Config cluster_config(ClashConfig::DurabilityMode mode,
                                  std::size_t n_servers,
                                  std::uint64_t seed) {
  SimCluster::Config cfg;
  cfg.num_servers = n_servers;
  cfg.seed = seed;
  cfg.clash.key_width = 24;
  cfg.clash.initial_depth = 4;
  cfg.clash.capacity = 1e9;  // isolate durability from splitting
  cfg.clash.replication_factor = 2;
  cfg.clash.durability_mode = mode;
  cfg.clash.fsync_policy = ClashConfig::FsyncPolicy::kPerAppend;
  cfg.clash.wal_segment_bytes = 64 * 1024;
  cfg.clash.log_compact_threshold = kLogCompactThreshold;
  return cfg;
}

ServerId busiest_server(SimCluster& cluster) {
  std::map<std::uint64_t, std::size_t> groups_of;
  for (const auto& [group, owner] : cluster.owner_index()) {
    groups_of[owner.value]++;
  }
  ServerId victim{0};
  std::size_t best = 0;
  for (const auto& [id, n] : groups_of) {
    if (n > best) {
      best = n;
      victim = ServerId{id};
    }
  }
  return victim;
}

RunResult run_one(ClashConfig::DurabilityMode mode, std::size_t n_servers,
                  std::size_t n_sources, std::size_t n_queries,
                  std::uint64_t seed, std::uint32_t torn_tail_bytes = 0) {
  auto cfg = cluster_config(mode, n_servers, seed);
  if (torn_tail_bytes > 0) {
    cfg.clash.fsync_policy = ClashConfig::FsyncPolicy::kNever;
  }
  SimCluster cluster(cfg);
  cluster.bootstrap();

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
  cluster.set_now(SimTime::from_minutes(5));
  cluster.run_all_load_checks();

  const ServerId victim = busiest_server(cluster);
  if (auto* backend = cluster.storage_backend(victim)) {
    if (torn_tail_bytes > 0) {
      backend->set_crash_fault(
          storage::MemBackend::CrashFault{false, torn_tail_bytes});
    }
  }

  RunResult r{};
  r.mode = mode_name(mode);
  if (auto* backend = cluster.storage_backend(victim)) {
    r.disk_bytes = backend->bytes_stored();
  }

  cluster.set_wire_metering(true);
  const auto before = cluster.total_stats();
  cluster.crash_server(victim);
  const auto t0 = std::chrono::steady_clock::now();
  cluster.restart_server(victim);
  const auto t1 = std::chrono::steady_clock::now();
  const auto delta = cluster.total_stats() - before;
  cluster.set_wire_metering(false);

  r.recovery_wire_bytes = delta.wire_bytes;
  r.groups_lost = delta.groups_lost;
  r.recovery_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  if (auto* store = cluster.storage_of(victim)) {
    r.records_replayed = store->recovery_stats().records_replayed;
    r.snapshots_loaded = store->recovery_stats().snapshots_loaded;
  }

  std::size_t streams = 0;
  std::size_t queries = 0;
  for (std::size_t i = 0; i < n_servers; ++i) {
    if (!cluster.is_alive(ServerId{i})) continue;
    streams += cluster.server(ServerId{i}).total_streams();
    queries += cluster.server(ServerId{i}).total_queries();
  }
  r.streams_kept_pct = 100.0 * double(streams) / double(n_sources);
  r.queries_kept_pct =
      n_queries == 0 ? 100.0 : 100.0 * double(queries) / double(n_queries);
  if (const auto err = cluster.check_invariants()) {
    std::fprintf(stderr, "INVARIANT VIOLATION: %s\n", err->c_str());
    std::abort();
  }
  return r;
}

// --- kill -9 over real files -------------------------------------------

/// Child process: appends ops through a durable ClashServer until
/// killed. Never returns.
[[noreturn]] void kill9_child(const std::string& dir) {
  class NullEnv final : public ServerEnv {
   public:
    dht::LookupResult dht_lookup(dht::HashKey) override {
      return dht::LookupResult{ServerId{0}, 0};
    }
    void send(ServerId, const Message&) override {}
    [[nodiscard]] SimTime now() const override { return SimTime{0}; }
  };

  ClashConfig cfg;
  cfg.key_width = 16;
  cfg.initial_depth = 0;
  cfg.capacity = 1e12;
  cfg.durability_mode = ClashConfig::DurabilityMode::kWalSnapshot;
  cfg.fsync_policy = ClashConfig::FsyncPolicy::kPerAppend;
  cfg.log_compact_threshold = 64;

  storage::FileBackend backend(dir);
  storage::NodeStore store(backend, storage::NodeStore::Config::from(cfg));
  NullEnv env;
  ClashServer server(ServerId{0}, cfg, env,
                     dht::KeyHasher(32, dht::KeyHasher::Algo::kMix64, 0));
  server.set_storage(&store);
  ServerTableEntry entry;
  entry.group = KeyGroup::root(16);
  entry.root = true;
  entry.active = true;
  server.install_entry(entry);

  Rng rng(99);
  for (std::uint64_t i = 0;; ++i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & 0xFFFF, 16);
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{i % 512};
    obj.stream_rate = 1;
    (void)server.handle_accept_object(obj);
  }
}

struct Kill9Result {
  bool ok = false;
  std::uint64_t records_replayed = 0;
  std::uint64_t head_seq = 0;
  std::uint64_t torn_tails = 0;
};

void remove_store_dir(const std::string& dir) {
  storage::FileBackend backend(dir);
  for (const char* sub : {"wal", "snap"}) {
    for (const auto& path : backend.list(sub)) backend.remove_file(path);
    ::rmdir((dir + "/" + sub).c_str());
  }
  ::rmdir(dir.c_str());
}

Kill9Result run_kill9() {
  char dir_template[] = "/tmp/clash_abl_durability_XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) return {};
  const std::string dir = dir_template;

  const pid_t pid = ::fork();
  if (pid < 0) return {};
  if (pid == 0) kill9_child(dir);  // never returns

  // Wait until the writer has a healthy WAL going, then kill -9 it
  // mid-load — very likely mid-write.
  const std::string seg0 = dir + "/wal/00000000.seg";
  for (int spin = 0; spin < 2000; ++spin) {
    struct stat st{};
    if (::stat(seg0.c_str(), &st) == 0 && st.st_size > 96 * 1024) break;
    ::usleep(2000);
  }
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);

  storage::FileBackend backend(dir);
  const auto image = storage::recover_image(backend, "wal", "snap");
  Kill9Result r;
  r.records_replayed = image.stats.records_replayed;
  r.torn_tails = image.stats.torn_tails;
  if (image.groups.size() == 1) {
    const auto& g = image.groups.begin()->second;
    r.head_seq = g.head.seq;
    // The store must have made real progress and recovered a
    // consistent prefix: head chains snapshot + replayed records.
    r.ok = g.head.seq > 0 && !g.state.streams.empty();
  }
  remove_store_dir(dir);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const auto n_servers = std::size_t(args.get_int("servers", 16));
  const auto n_sources = std::size_t(args.get_int("sources", 3000));
  const auto n_queries = std::size_t(args.get_int("queries", 600));
  const auto seed = std::uint64_t(args.get_int("seed", 42));
  const bool kill9 = !args.get_bool("no-kill9", false);

  std::printf("# Durability ablation: crash + restart the busiest of %zu "
              "servers under %zu streams + %zu queries (repl factor 2)\n",
              n_servers, n_sources, n_queries);
  std::printf("%-9s %14s %12s %10s %10s %12s %14s %14s\n", "mode",
              "recov_bytes", "disk_bytes", "replayed", "snaps",
              "recov_ms", "streams_kept_%", "queries_kept_%");

  std::string json = "{\n  \"bench\": \"abl_durability\",\n  \"runs\": [\n";
  std::map<std::string, RunResult> results;
  bool first = true;
  for (const auto mode : {ClashConfig::DurabilityMode::kNone,
                          ClashConfig::DurabilityMode::kWalSnapshot}) {
    const RunResult r =
        run_one(mode, n_servers, n_sources, n_queries, seed);
    results[r.mode] = r;
    std::printf("%-9s %14llu %12llu %10llu %10llu %12.2f %14.1f %14.1f\n",
                r.mode, (unsigned long long)r.recovery_wire_bytes,
                (unsigned long long)r.disk_bytes,
                (unsigned long long)r.records_replayed,
                (unsigned long long)r.snapshots_loaded, r.recovery_ms,
                r.streams_kept_pct, r.queries_kept_pct);
    char line[384];
    std::snprintf(
        line, sizeof(line),
        "    %s{\"mode\": \"%s\", \"recovery_wire_bytes\": %llu, "
        "\"disk_bytes\": %llu, \"records_replayed\": %llu, "
        "\"snapshots_loaded\": %llu, \"recovery_ms\": %.3f, "
        "\"groups_lost\": %llu, \"streams_kept_pct\": %.1f, "
        "\"queries_kept_pct\": %.1f}",
        first ? "" : ",", r.mode,
        (unsigned long long)r.recovery_wire_bytes,
        (unsigned long long)r.disk_bytes,
        (unsigned long long)r.records_replayed,
        (unsigned long long)r.snapshots_loaded, r.recovery_ms,
        (unsigned long long)r.groups_lost, r.streams_kept_pct,
        r.queries_kept_pct);
    json += line;
    json += "\n";
    first = false;
  }

  // Torn-tail scenario: no fsync, the crash cuts a record mid-write;
  // recovery stops at the last complete record and the replica set
  // streams the divergent suffix.
  const RunResult torn =
      run_one(ClashConfig::DurabilityMode::kWalSnapshot, n_servers,
              n_sources, n_queries, seed, /*torn_tail_bytes=*/41);
  std::printf("%-9s %14llu %12llu %10llu %10llu %12.2f %14.1f %14.1f\n",
              "torntail", (unsigned long long)torn.recovery_wire_bytes,
              (unsigned long long)torn.disk_bytes,
              (unsigned long long)torn.records_replayed,
              (unsigned long long)torn.snapshots_loaded, torn.recovery_ms,
              torn.streams_kept_pct, torn.queries_kept_pct);
  {
    char line[384];
    std::snprintf(
        line, sizeof(line),
        "    ,{\"mode\": \"torntail\", \"recovery_wire_bytes\": %llu, "
        "\"records_replayed\": %llu, \"groups_lost\": %llu, "
        "\"streams_kept_pct\": %.1f, \"queries_kept_pct\": %.1f}",
        (unsigned long long)torn.recovery_wire_bytes,
        (unsigned long long)torn.records_replayed,
        (unsigned long long)torn.groups_lost, torn.streams_kept_pct,
        torn.queries_kept_pct);
    json += line;
    json += "\n";
  }

  Kill9Result k9;
  if (kill9) {
    k9 = run_kill9();
    std::printf("\n# kill -9 over real files: recovered=%s, replayed %llu "
                "records to head seq %llu (torn tails: %llu)\n",
                k9.ok ? "yes" : "NO",
                (unsigned long long)k9.records_replayed,
                (unsigned long long)k9.head_seq,
                (unsigned long long)k9.torn_tails);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    ,{\"mode\": \"kill9\", \"ok\": %s, "
                  "\"records_replayed\": %llu, \"head_seq\": %llu, "
                  "\"torn_tails\": %llu}",
                  k9.ok ? "true" : "false",
                  (unsigned long long)k9.records_replayed,
                  (unsigned long long)k9.head_seq,
                  (unsigned long long)k9.torn_tails);
    json += line;
    json += "\n";
  }
  json += "  ]\n}\n";

  std::printf(
      "\n# expectation: kNone pulls the dead node's groups over the "
      "network (snapshot chunks); kWalSnapshot recovers from local "
      "disk and moves only anti-entropy probes + the outbound "
      "re-replication both paths pay, replaying only the "
      "post-checkpoint tail.\n");

  // --- Acceptance gates -------------------------------------------------
  const RunResult& walsnap = results["walsnap"];
  const RunResult& none = results["none"];
  bool ok = true;
  if (walsnap.groups_lost != 0 || walsnap.streams_kept_pct < 100.0 ||
      walsnap.queries_kept_pct < 100.0) {
    std::fprintf(stderr, "FAIL: kWalSnapshot restart lost state\n");
    ok = false;
  }
  if (walsnap.recovery_wire_bytes >= none.recovery_wire_bytes) {
    std::fprintf(stderr,
                 "FAIL: local-disk recovery moved %llu bytes, not fewer "
                 "than the network pull's %llu\n",
                 (unsigned long long)walsnap.recovery_wire_bytes,
                 (unsigned long long)none.recovery_wire_bytes);
    ok = false;
  }
  // Checkpoints bound replay in absolute terms: at most one compaction
  // window past each recovered group's snapshot.
  const std::uint64_t replay_bound =
      std::uint64_t(kLogCompactThreshold + 1) * walsnap.snapshots_loaded;
  if (walsnap.records_replayed > replay_bound) {
    std::fprintf(stderr,
                 "FAIL: checkpointing did not bound replay (%llu records > "
                 "%llu = (log_compact_threshold + 1) x %llu groups)\n",
                 (unsigned long long)walsnap.records_replayed,
                 (unsigned long long)replay_bound,
                 (unsigned long long)walsnap.snapshots_loaded);
    ok = false;
  }
  if (torn.queries_kept_pct < 100.0 || torn.groups_lost != 0) {
    std::fprintf(stderr, "FAIL: torn tail lost state despite replicas\n");
    ok = false;
  }
  if (kill9 && !k9.ok) {
    std::fprintf(stderr, "FAIL: kill -9 recovery came back empty\n");
    ok = false;
  }

  obs::maybe_embed_metrics(args, json, obs::Hub::global().registry);
  if (!write_json_artifact(args, json)) return 1;
  return ok ? 0 : 1;
}
