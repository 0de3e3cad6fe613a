// Telematics (Mobiscope-style): continuous spatial queries over moving
// vehicles. Vehicle positions are quad-tree encoded into 24-bit CLASH
// keys, so spatially close vehicles share key prefixes and cluster on
// servers; a downtown hotspot triggers binary splitting while rural
// regions stay consolidated.
#include <cstdio>
#include <map>
#include <vector>

#include "clash/client.hpp"
#include "common/rng.hpp"
#include "cq/stream_engine.hpp"
#include "keys/quadtree.hpp"
#include "sim/cluster.hpp"

using namespace clash;

namespace {

struct Vehicle {
  ClientId id;
  double x, y;
  Key key{0, 24};
};

}  // namespace

int main() {
  const QuadTreeEncoder geo(12);  // 12 quad levels -> 24-bit keys

  sim::SimCluster::Config cfg;
  cfg.num_servers = 32;
  cfg.clash.key_width = geo.key_width();
  cfg.clash.initial_depth = 6;
  cfg.clash.capacity = 200.0;
  sim::SimCluster cluster(cfg);
  cluster.bootstrap();

  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  Rng rng(2024);

  // 600 vehicles: 70 % jammed downtown (a small square), 30 % rural.
  std::vector<Vehicle> fleet;
  for (std::uint64_t i = 0; i < 600; ++i) {
    Vehicle v;
    v.id = ClientId{i};
    if (rng.bernoulli(0.7)) {
      v.x = 0.60 + 0.05 * rng.uniform01();  // downtown cell
      v.y = 0.40 + 0.05 * rng.uniform01();
    } else {
      v.x = rng.uniform01();
      v.y = rng.uniform01();
    }
    v.key = geo.encode(v.x, v.y);
    AcceptObject obj;
    obj.key = v.key;
    obj.kind = ObjectKind::kData;
    obj.source = v.id;
    obj.stream_rate = 1.0;  // one position report/sec
    (void)client.insert(obj);
    fleet.push_back(v);
  }

  std::printf("fleet registered: %zu vehicles, %zu active key groups\n",
              fleet.size(), cluster.owner_index().size());

  // Let CLASH adapt: the downtown group is ~420 units on one server.
  for (int round = 1; round <= 8; ++round) {
    cluster.run_until(SimTime::from_minutes(5 * round));
    cluster.run_all_load_checks();
  }
  const auto snap = cluster.snapshot();
  std::printf("after adaptation: max load %.0f%%, %zu loaded servers, "
              "depths %u..%u\n",
              snap.max_load_frac * 100, snap.active_servers, snap.min_depth,
              snap.max_depth);

  // Depth map: how finely is downtown split vs the countryside?
  const Key downtown = geo.encode(0.625, 0.425);
  const Key rural = geo.encode(0.1, 0.9);
  std::printf("downtown cell group: %s (depth %u)\n",
              cluster.find_active_group(downtown)->label().c_str(),
              cluster.find_active_group(downtown)->depth());
  std::printf("rural cell group:    %s (depth %u)\n",
              cluster.find_active_group(rural)->label().c_str(),
              cluster.find_active_group(rural)->depth());

  // Continuous spatial queries: "alert me for vehicles inside this
  // rectangle". A region is a key *range*, so the client resolves every
  // active group intersecting the scope (the paper's range-query
  // extension) and registers the query on each segment's server; the
  // per-server StreamEngine evaluates incoming reports.
  std::map<std::uint64_t, cq::StreamEngine> engines;  // server -> engine
  const struct {
    const char* name;
    double x, y;
    unsigned depth;
  } regions[] = {
      {"downtown-8", 0.625, 0.425, 8},
      {"downtown-12", 0.61, 0.41, 12},
      {"rural-4", 0.1, 0.9, 4},
  };
  std::uint64_t qid = 1;
  for (const auto& r : regions) {
    const KeyGroup scope = KeyGroup::of(geo.encode(r.x, r.y), r.depth);
    const auto range = client.resolve_scope(scope);
    if (!range.ok) {
      std::printf("range resolution failed for %s\n", r.name);
      return 1;
    }
    for (const auto& [segment, server] : range.segments) {
      AcceptObject obj;
      obj.key = segment.virtual_key();
      obj.kind = ObjectKind::kQuery;
      obj.query_id = QueryId{qid};
      (void)client.insert(obj);
      auto [it, _] = engines.try_emplace(server.value, geo.key_width());
      it->second.register_query(
          cq::ContinuousQuery{QueryId{qid}, scope, {}});
      ++qid;
    }
    std::printf("query %-12s scope=%s -> %zu segment(s) on %zu server(s)\n",
                r.name, scope.label().c_str(), range.segments.size(),
                range.distinct_servers());
  }

  // Route one round of position reports and count matches.
  std::uint64_t matches = 0;
  for (const auto& v : fleet) {
    const auto owner = cluster.find_owner(v.key);
    const auto it = engines.find(owner->value);
    if (it == engines.end()) continue;
    matches += it->second.process(cq::Record{v.key, {}});
  }
  std::printf("one report round: %llu query matches fired\n",
              (unsigned long long)matches);

  const auto err = cluster.check_invariants();
  std::printf("cluster invariants: %s\n", err ? err->c_str() : "OK");
  return err ? 1 : 0;
}
