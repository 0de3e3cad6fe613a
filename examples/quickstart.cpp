// Quickstart: a CLASH cluster in one process.
//
// Builds a 16-server overlay, inserts data streams and a continuous
// query, shows a server's table (Figure 2 style), overloads one key
// region to watch binary splitting shed load, and resolves keys through
// the client's depth search.
#include <cstdio>

#include "clash/client.hpp"
#include "sim/cluster.hpp"

using namespace clash;

int main() {
  // 1. A 16-server cluster managing 24-bit hierarchical keys, bootstrap
  //    tree depth 6 (64 root key groups), 100 load-units per server.
  sim::SimCluster::Config cfg;
  cfg.num_servers = 16;
  cfg.clash.key_width = 24;
  cfg.clash.initial_depth = 6;
  cfg.clash.capacity = 100.0;
  sim::SimCluster cluster(cfg);
  cluster.bootstrap();
  std::printf("bootstrapped: %zu active key groups over %zu servers\n",
              cluster.owner_index().size(), cluster.num_servers());

  // 2. A client that inserts objects. The client guesses the key depth
  //    and converges via the INCORRECT_DEPTH binary search.
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());

  AcceptObject stream;
  stream.key = Key(0xABCDEF, 24);
  stream.kind = ObjectKind::kData;
  stream.source = ClientId{1};
  stream.stream_rate = 5.0;  // packets/sec
  const auto out = client.insert(stream);
  std::printf("insert key=%s -> server %s at depth %u (%u probes, %u "
              "DHT hops)\n",
              stream.key.to_string().c_str(), to_string(out.server).c_str(),
              out.depth, out.probes, out.dht_hops);

  AcceptObject query;
  query.key = Key(0xABCD00, 24);
  query.kind = ObjectKind::kQuery;
  query.query_id = QueryId{7};
  (void)client.insert(query);

  // 3. Overload one region: 30 streams x 5 pkt/s = 150 units land in one
  //    depth-6 group (capacity is 100, overload threshold 90). The
  //    streams spread across the group, so splitting can shed them.
  for (int i = 0; i < 30; ++i) {
    AcceptObject s;
    s.key = Key(0xAB0000u + std::uint64_t(i) * 0x800u, 24);
    s.kind = ObjectKind::kData;
    s.source = ClientId{std::uint64_t(100 + i)};
    s.stream_rate = 5.0;
    (void)client.insert(s);
  }
  const ServerId hot = cluster.find_owner(Key(0xAB0000, 24)).value();
  std::printf("\nserver %s load before load check: %.0f / %.0f\n",
              to_string(hot).c_str(), cluster.server(hot).server_load(),
              cfg.clash.capacity);

  // 4. Periodic load checks run the CLASH protocol: the hottest group
  //    splits, the right child moves to whatever server the DHT picks.
  for (int round = 1; round <= 4; ++round) {
    cluster.run_until(SimTime::from_minutes(5 * round));
    cluster.run_all_load_checks();
  }
  const auto stats = cluster.total_stats();
  std::printf("after load checks: %llu splits, %llu group transfers, max "
              "load %.0f%%\n",
              (unsigned long long)stats.splits,
              (unsigned long long)stats.keygroup_transfers,
              cluster.snapshot().max_load_frac * 100);

  // 5. The hot server's table now shows lineage entries (Figure 2).
  std::printf("\nserver %s table:\n%s", to_string(hot).c_str(),
              cluster.server(hot).table().to_string().c_str());

  // 6. Clients re-resolve moved keys transparently.
  const auto again = client.resolve(Key(0xAB0000, 24));
  std::printf("re-resolve hot key -> server %s depth %u (%u probes)\n",
              to_string(again.server).c_str(), again.depth, again.probes);

  const auto err = cluster.check_invariants();
  std::printf("\ncluster invariants: %s\n", err ? err->c_str() : "OK");
  return err ? 1 : 0;
}
