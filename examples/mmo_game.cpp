// Massively-multiplayer game (the paper's motivating application and
// its authors' "CLASH-based middleware for online games"): the virtual
// world is quad-tree partitioned; a live event pulls thousands of
// players into one zone, CLASH splits that zone across servers
// on demand, and when the event ends consolidation shrinks the server
// footprint back — the utility-computing story end to end.
#include <cstdio>
#include <memory>
#include <vector>

#include "clash/client.hpp"
#include "common/rng.hpp"
#include "keys/quadtree.hpp"
#include "sim/cluster.hpp"

using namespace clash;

namespace {

// Game-side state attached through the AppHooks API (the paper's
// "API that game servers use to indicate application overload and to
// distribute application-specific state"): an opaque payload per zone
// that CLASH ships whenever it moves a zone between servers.
class ZoneApp final : public AppHooks {
 public:
  std::vector<std::uint8_t> export_state(const KeyGroup& group,
                                         ServerId) override {
    ++exports;
    // A real game would serialise NPCs/loot here; the label suffices to
    // prove round-tripping.
    const auto label = group.label();
    return {label.begin(), label.end()};
  }

  void import_state(const KeyGroup&,
                    const std::vector<std::uint8_t>& state) override {
    ++imports;
    bytes_in += state.size();
  }

  int exports = 0;
  int imports = 0;
  std::size_t bytes_in = 0;
};

void report(const sim::SimCluster& cluster, const char* phase) {
  const auto snap = cluster.snapshot();
  const auto stats = cluster.total_stats();
  std::printf("%-18s servers=%3zu groups=%3zu max_load=%5.0f%% depth<=%2u "
              "splits=%3llu merges=%3llu\n",
              phase, snap.active_servers, snap.active_groups,
              snap.max_load_frac * 100, snap.max_depth,
              (unsigned long long)stats.splits,
              (unsigned long long)stats.merges);
}

}  // namespace

int main() {
  const QuadTreeEncoder world(12);

  sim::SimCluster::Config cfg;
  cfg.num_servers = 64;
  cfg.clash.key_width = 24;
  cfg.clash.initial_depth = 4;  // 16 world zones at start
  cfg.clash.capacity = 150.0;
  sim::SimCluster cluster(cfg);
  cluster.bootstrap();

  // Attach the game's state-distribution hooks to every server.
  std::vector<std::unique_ptr<ZoneApp>> apps;
  for (std::size_t i = 0; i < cfg.num_servers; ++i) {
    apps.push_back(std::make_unique<ZoneApp>());
    cluster.server(ServerId{i}).set_app_hooks(apps.back().get());
  }

  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  Rng rng(7);

  // 900 players spread across the world (1 update/sec each).
  std::vector<std::pair<ClientId, Key>> players;
  for (std::uint64_t i = 0; i < 900; ++i) {
    const Key pos = world.encode(rng.uniform01(), rng.uniform01());
    AcceptObject obj;
    obj.key = pos;
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{i};
    obj.stream_rate = 1.0;
    (void)client.insert(obj);
    players.emplace_back(ClientId{i}, pos);
  }
  for (int r = 1; r <= 4; ++r) {
    cluster.run_until(SimTime::from_minutes(5 * r));
    cluster.run_all_load_checks();
  }
  report(cluster, "steady world");

  // The event: 80 % of players teleport into the arena (one tiny cell).
  std::printf("\n>> a world boss spawns at (0.30, 0.70): players converge\n");
  for (auto& [id, key] : players) {
    if (!rng.bernoulli(0.8)) continue;
    cluster.withdraw_stream(id, key);
    const Key arena = world.encode(0.30 + 0.02 * rng.uniform01(),
                                   0.70 + 0.02 * rng.uniform01());
    AcceptObject obj;
    obj.key = arena;
    obj.kind = ObjectKind::kData;
    obj.source = id;
    obj.stream_rate = 1.0;
    (void)client.insert(obj);
    key = arena;
  }
  // The game engine notices the pile-up before the next periodic load
  // check and sheds proactively (the application-overload API).
  const Key arena_key = world.encode(0.31, 0.71);
  const auto arena_owner = cluster.find_owner(arena_key).value();
  if (cluster.server(arena_owner).signal_overload()) {
    std::printf("game signalled overload at %s: zone shed ahead of the "
                "periodic check\n",
                to_string(arena_owner).c_str());
  }

  for (int r = 5; r <= 14; ++r) {
    cluster.run_until(SimTime::from_minutes(5 * r));
    cluster.run_all_load_checks();
  }
  report(cluster, "during event");

  int exports = 0, imports = 0;
  std::size_t bytes = 0;
  for (const auto& app : apps) {
    exports += app->exports;
    imports += app->imports;
    bytes += app->bytes_in;
  }
  std::printf("zone state distributed by CLASH: %d exports, %d imports, "
              "%zu bytes shipped\n",
              exports, imports, bytes);
  const Key arena_center = world.encode(0.31, 0.71);
  std::printf("arena zone is now %s (depth %u) — split %u levels below "
              "the 4-level zoning\n",
              cluster.find_active_group(arena_center)->label().c_str(),
              cluster.find_active_group(arena_center)->depth(),
              cluster.find_active_group(arena_center)->depth() - 4);

  // Event over: players scatter; consolidation reclaims the arena.
  std::printf("\n>> the boss despawns: players scatter\n");
  for (auto& [id, key] : players) {
    cluster.withdraw_stream(id, key);
    const Key pos = world.encode(rng.uniform01(), rng.uniform01());
    AcceptObject obj;
    obj.key = pos;
    obj.kind = ObjectKind::kData;
    obj.source = id;
    obj.stream_rate = 1.0;
    (void)client.insert(obj);
    key = pos;
  }
  for (int r = 15; r <= 40; ++r) {
    cluster.run_until(SimTime::from_minutes(5 * r));
    cluster.run_all_load_checks();
  }
  report(cluster, "after event");

  const auto err = cluster.check_invariants();
  std::printf("\ncluster invariants: %s\n", err ? err->c_str() : "OK");
  return err ? 1 : 0;
}
