// Telematics (Mobiscope-style): continuous spatial queries over moving
// vehicles. Vehicle positions are quad-tree encoded into 24-bit CLASH
// keys, so spatially close vehicles share key prefixes and cluster on
// servers; a downtown hotspot triggers binary splitting while rural
// regions stay consolidated.
#include <cstdio>
#include <vector>

#include "clash/client.hpp"
#include "common/rng.hpp"
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
  // extension) and registers the query, under one id, on each segment.
  // The segment's group stores it with its scope, which may be wider
  // than the group: a later split hands it to both halves.
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
    for (const auto& [segment, _] : range.segments) {
      // A key inside both the segment and the scope: the deeper one's.
      const KeyGroup& inner =
          segment.depth() >= scope.depth() ? segment : scope;
      AcceptObject obj;
      obj.key = inner.virtual_key();
      obj.kind = ObjectKind::kQuery;
      obj.query_id = QueryId{qid};
      obj.scope_depth = scope.depth();
      if (!client.insert(obj).ok) {
        std::printf("registration failed for %s on %s\n", r.name,
                    segment.label().c_str());
        return 1;
      }
    }
    ++qid;
    std::printf("query %-12s scope=%s -> %zu segment(s) on %zu server(s)\n",
                r.name, scope.label().c_str(), range.segments.size(),
                range.distinct_servers());
  }

  // Route one round of position reports to their groups' owners and
  // count matches.
  std::uint64_t matches = 0;
  for (const auto& v : fleet) {
    const auto owner = cluster.find_owner(v.key);
    if (!owner) continue;
    matches += cluster.server(*owner).match(cq::Record{v.key, {}});
  }
  std::printf("one report round: %llu query matches fired\n",
              (unsigned long long)matches);

  const auto err = cluster.check_invariants();
  std::printf("cluster invariants: %s\n", err ? err->c_str() : "OK");
  return err ? 1 : 0;
}
