// End-to-end integration over real TCP on localhost: a cluster of
// ClashNodes bootstraps the paper's tree, an unmodified ClashClient
// resolves keys through BlockingClient, overload triggers splits whose
// ACCEPT_KEYGROUP traffic crosses real sockets, and the client chases
// the moved group.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "clash/bootstrap.hpp"
#include "net/blocking_client.hpp"
#include "net/node.hpp"

namespace clash::net {
namespace {

constexpr unsigned kWidth = 16;
constexpr unsigned kInitialDepth = 3;

struct NetCluster {
  static constexpr std::size_t kNodes = 5;

  NetCluster() {
    ClashConfig clash;
    clash.key_width = kWidth;
    clash.initial_depth = kInitialDepth;
    clash.capacity = 100;

    // Start every node on an auto-assigned port, then share the final
    // address book (members are needed before traffic, not before bind).
    std::map<ServerId, Endpoint> members;
    for (std::size_t i = 0; i < kNodes; ++i) {
      NodeConfig cfg;
      cfg.id = ServerId{i};
      cfg.listen = Endpoint{"127.0.0.1", 0};
      cfg.members[cfg.id] = cfg.listen;  // placeholder; fixed below
      cfg.clash = clash;
      cfg.ring_salt = 99;
      cfg.load_check_interval = std::chrono::milliseconds(25);
      configs.push_back(cfg);
    }
    // Bind pass: create and start with placeholder member lists, ports
    // resolve on start. Nodes are then rebuilt with the full book.
    for (std::size_t i = 0; i < kNodes; ++i) {
      auto probe = std::make_unique<ClashNode>(configs[i]);
      probe->start();
      members[ServerId{i}] =
          Endpoint{"127.0.0.1", probe->port()};
      probe->stop();
      configs[i].listen = members[ServerId{i}];
    }
    for (auto& cfg : configs) cfg.members = members;
    for (const auto& cfg : configs) {
      nodes.push_back(std::make_unique<ClashNode>(cfg));
    }

    // Paper bootstrap: computed once, installed everywhere.
    const auto& ring_view = *static_ring();
    const auto entries =
        compute_bootstrap_entries(ring_view, ring_view.hasher(), clash);
    for (auto& node : nodes) {
      const auto it = entries.find(node->id());
      if (it != entries.end()) node->install_entries(it->second);
      node->start();
    }

    BlockingClient::Config ccfg;
    ccfg.members = members;
    ccfg.ring_salt = 99;
    client_env = std::make_unique<BlockingClient>(ccfg);
    client = std::make_unique<ClashClient>(clash, *client_env,
                                           client_env->hasher());
  }

  ~NetCluster() {
    for (auto& node : nodes) node->stop();
  }

  /// Ring view identical to every node's (same ids, salt, params).
  const dht::ChordRing* static_ring() {
    if (!ring) {
      ring = std::make_unique<dht::ChordRing>(dht::ChordRing::Config{
          32, 8, dht::KeyHasher::Algo::kSha1, 99});
      for (std::size_t i = 0; i < kNodes; ++i) ring->add_server(ServerId{i});
    }
    return ring.get();
  }

  std::vector<NodeConfig> configs;
  std::vector<std::unique_ptr<ClashNode>> nodes;
  std::unique_ptr<dht::ChordRing> ring;
  std::unique_ptr<BlockingClient> client_env;
  std::unique_ptr<ClashClient> client;
};

TEST(NetCluster, ResolveAndInsertOverTcp) {
  NetCluster cluster;

  AcceptObject obj;
  obj.key = Key(0xBEEF, kWidth);
  obj.kind = ObjectKind::kData;
  obj.source = ClientId{1};
  obj.stream_rate = 5;
  const auto out = cluster.client->insert(obj);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.depth, kInitialDepth);
  EXPECT_EQ(cluster.client_env->transport_errors(), 0u);

  // The stream landed on the node the ring designates.
  const auto owner = cluster.static_ring()->map(
      cluster.static_ring()->hasher().hash_key(shape(obj.key,
                                                     kInitialDepth)));
  const auto streams = cluster.nodes[owner.value]->run_on_loop(
      [](ClashServer& s) { return s.total_streams(); });
  EXPECT_EQ(streams, 1u);
}

TEST(NetCluster, OverloadSplitsAcrossRealSockets) {
  NetCluster cluster;

  // Saturate one depth-3 group well past capacity (100): 40 streams x 5,
  // all under the "101*" prefix (0xA000..0xA9C0).
  for (int i = 0; i < 40; ++i) {
    AcceptObject obj;
    obj.key = Key(0xA000 + std::uint64_t(i) * 0x40, kWidth);
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{std::uint64_t(100 + i)};
    obj.stream_rate = 5;
    ASSERT_TRUE(cluster.client->insert(obj).ok);
  }

  // Load checks run every 25 ms on every node; poll until the cascade
  // has split the group and shed the overload, or a deadline generous
  // enough for a starved host passes.
  std::uint64_t total_splits = 0;
  double max_load = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  do {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    total_splits = 0;
    max_load = 0;
    for (auto& node : cluster.nodes) {
      total_splits += node->run_on_loop(
          [](ClashServer& s) { return s.stats().splits; });
      max_load = std::max(max_load, node->run_on_loop([](ClashServer& s) {
        return s.server_load();
      }));
    }
  } while ((total_splits == 0 || max_load > 100.0) &&
           std::chrono::steady_clock::now() < deadline);
  EXPECT_GT(total_splits, 0u);
  EXPECT_LE(max_load, 100.0);

  // Tables stay consistent on every node.
  for (auto& node : cluster.nodes) {
    const auto err = node->run_on_loop([](ClashServer& s) {
      const auto violation = s.table().check_invariants();
      return violation ? *violation : std::string();
    });
    EXPECT_TRUE(err.empty()) << err;
  }

  // A fresh client still resolves every hot key to a real owner.
  BlockingClient::Config ccfg;
  ccfg.members = cluster.configs[0].members;
  ccfg.ring_salt = 99;
  BlockingClient fresh_env(ccfg);
  ClashClient fresh(cluster.configs[0].clash, fresh_env, fresh_env.hasher());
  for (int i = 0; i < 40; i += 7) {
    const Key k(0xA000 + std::uint64_t(i) * 0x40, kWidth);
    const auto out = fresh.resolve(k);
    EXPECT_TRUE(out.ok) << i;
  }
}

TEST(NetCluster, QueryStateMigratesOnSplit) {
  NetCluster cluster;

  // A query plus enough data load to force its group to split.
  AcceptObject query;
  query.key = Key(0xC0DE, kWidth);
  query.kind = ObjectKind::kQuery;
  query.query_id = QueryId{31337};
  ASSERT_TRUE(cluster.client->insert(query).ok);

  for (int i = 0; i < 30; ++i) {
    AcceptObject obj;
    obj.key = Key((0xC000 | (std::uint64_t(i) * 0x80)) & 0xFFFF, kWidth);
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{std::uint64_t(500 + i)};
    obj.stream_rate = 6;
    ASSERT_TRUE(cluster.client->insert(obj).ok);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  // The query survives somewhere, exactly once.
  std::size_t total_queries = 0;
  for (auto& node : cluster.nodes) {
    total_queries += node->run_on_loop(
        [](ClashServer& s) { return s.total_queries(); });
  }
  EXPECT_EQ(total_queries, 1u);

  // And the client can still reach its group.
  const auto out = cluster.client->resolve(query.key);
  EXPECT_TRUE(out.ok);
}

}  // namespace
}  // namespace clash::net
