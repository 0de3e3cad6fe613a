// Range-query extension (Section 7): "For range queries, the CLASH
// overhead vis-a-vis DHT will decrease, since CLASH will cluster ranges
// of objects on a common server and thus incur lower query replication
// overhead." This bench loads a cluster with workload C, lets the tree
// adapt, then measures — for range scopes of decreasing size — how many
// segments/servers a range subscription touches under CLASH vs
// fine-grained basic DHT.
//
// Usage: abl_range [--servers=200] [--sources=10000] [--seed=42]
//        [--json=PATH]
#include <cstdio>
#include <string>
#include <set>

#include "clash/client.hpp"
#include "common/argparse.hpp"
#include "obs/expose.hpp"
#include "obs/hub.hpp"
#include "common/rng.hpp"
#include "sim/cluster.hpp"
#include "sim/workload.hpp"

using namespace clash;
using namespace clash::sim;

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const auto n_servers = std::size_t(args.get_int("servers", 200));
  const auto n_sources = std::size_t(args.get_int("sources", 10000));
  const auto seed = std::uint64_t(args.get_int("seed", 42));

  SimCluster::Config cfg;
  cfg.num_servers = n_servers;
  cfg.seed = seed;
  cfg.virtual_servers = 8;
  cfg.clash.key_width = 24;
  cfg.clash.initial_depth = 6;
  // Capacity such that workload C forces a deep hot subtree.
  cfg.clash.capacity = 2400.0 * double(n_sources) / 100000.0 *
                       (1000.0 / double(n_servers));
  SimCluster cluster(cfg);
  cluster.bootstrap();

  // Load with workload C and adapt.
  const auto spec = workload_c();
  KeyGenerator gen(spec, 24);
  Rng rng(seed);
  ClashClient loader(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  for (std::size_t i = 0; i < n_sources; ++i) {
    AcceptObject obj;
    obj.key = gen.sample(rng);
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{i};
    obj.stream_rate = spec.source_rate;
    if (!loader.insert(obj).ok) {
      std::fprintf(stderr, "load failed\n");
      return 1;
    }
  }
  for (int round = 1; round <= 16; ++round) {
    cluster.run_until(SimTime::from_minutes(5 * round));
    cluster.run_all_load_checks();
  }
  const auto snap = cluster.snapshot();
  std::printf("# cluster adapted under workload C: %zu groups, depths "
              "%u..%u, max load %.0f%%\n",
              snap.active_groups, snap.min_depth, snap.max_depth,
              snap.max_load_frac * 100);

  std::printf("\n%-22s %10s %10s %12s | %12s %12s\n", "range scope",
              "segments", "servers", "probes", "DHT12_srvs", "DHT24_srvs");

  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  const dht::KeyHasher& hasher = cluster.hasher();

  // Scopes centred on the hot region (where the tree is deepest) from
  // wide to narrow, plus one cold scope for contrast.
  const Key hot = gen.sample(rng);
  struct Scope {
    const char* name;
    KeyGroup group;
  };
  const Scope scopes[] = {
      {"hot /4 (1M keys)", KeyGroup::of(hot, 4)},
      {"hot /6 (256k keys)", KeyGroup::of(hot, 6)},
      {"hot /8 (64k keys)", KeyGroup::of(hot, 8)},
      {"hot /10 (16k keys)", KeyGroup::of(hot, 10)},
      {"cold /6 (256k keys)", KeyGroup::of(Key(0, 24), 6)},
  };

  std::string json = "{\n  \"bench\": \"abl_range\",\n  \"runs\": [\n";
  bool json_first = true;
  for (const auto& scope : scopes) {
    const auto out = client.resolve_scope(scope.group);
    if (!out.ok) {
      std::fprintf(stderr, "range resolve failed\n");
      return 1;
    }
    // Basic DHT server contacts for the same subscription: sample keys
    // in the scope and count distinct owners of their fixed-depth
    // groups.
    std::set<std::uint64_t> dht12, dht24;
    Rng sampler(seed + 1);
    const unsigned free_bits = 24 - scope.group.depth();
    for (int i = 0; i < 4096; ++i) {
      const std::uint64_t suffix =
          free_bits >= 64 ? sampler.next()
                          : (sampler.next() &
                             ((std::uint64_t{1} << free_bits) - 1));
      const Key k(scope.group.virtual_key().value() | suffix, 24);
      dht12.insert(
          cluster.ring().map(hasher.hash_key(shape(k, 12))).value);
      dht24.insert(cluster.ring().map(hasher.hash_key(k)).value);
    }
    std::printf("%-22s %10zu %10zu %12u | %12zu %12zu\n", scope.name,
                out.segments.size(), out.distinct_servers(), out.probes,
                dht12.size(), dht24.size());
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    %s{\"scope\": \"%s\", \"segments\": %zu, "
                  "\"servers\": %zu, \"probes\": %u, \"dht12_srvs\": %zu, "
                  "\"dht24_srvs\": %zu}",
                  json_first ? "" : ",", scope.name, out.segments.size(),
                  out.distinct_servers(), out.probes, dht12.size(),
                  dht24.size());
    json += line;
    json += "\n";
    json_first = false;
  }
  json += "  ]\n}\n";

  std::printf(
      "\n# expectation: CLASH touches a handful of servers per range "
      "(only hot subtrees fan out); fixed-depth hashing scatters the "
      "same range across most of the pool — the paper's query "
      "replication argument\n");
  obs::maybe_embed_metrics(args, json, obs::Hub::global().registry);
  return write_json_artifact(args, json) ? 0 : 1;
}
