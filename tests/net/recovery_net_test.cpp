// Replication & recovery over real TCP: continuous queries
// survive the owner's death — SWIM detects it, the heir holds the
// promotion open for the recovery-grace window while peers stream the
// missing log suffix, and matches keep firing on the promoted node's
// stream engine. A stopped node restarted in place is re-admitted via
// incarnation refutation and receives its groups back with state
// (the rejoin-gap fix) instead of serving them empty.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "clash/bootstrap.hpp"
#include "cq/engine_hooks.hpp"
#include "net/blocking_client.hpp"
#include "net/node.hpp"

namespace clash::net {
namespace {

constexpr unsigned kWidth = 16;
constexpr unsigned kInitialDepth = 3;
constexpr std::size_t kNodes = 4;

struct RecoveryNetCluster {
  explicit RecoveryNetCluster(
      std::chrono::milliseconds grace = std::chrono::milliseconds(60)) {
    ClashConfig clash;
    clash.key_width = kWidth;
    clash.initial_depth = kInitialDepth;
    clash.capacity = 10000;  // no load-driven splits
    clash.replication_factor = 2;

    std::map<ServerId, Endpoint> members;
    for (std::size_t i = 0; i < kNodes; ++i) {
      NodeConfig cfg;
      cfg.id = ServerId{i};
      cfg.listen = Endpoint{"127.0.0.1", 0};
      cfg.members[cfg.id] = cfg.listen;
      cfg.clash = clash;
      cfg.ring_salt = 77;
      cfg.load_check_interval = std::chrono::milliseconds(25);
      cfg.protocol_period = std::chrono::milliseconds(20);
      cfg.clash.recovery_grace = SimDuration(grace.count() * 1000);
      configs.push_back(cfg);
    }
    for (std::size_t i = 0; i < kNodes; ++i) {
      auto probe = std::make_unique<ClashNode>(configs[i]);
      probe->start();
      members[ServerId{i}] = Endpoint{"127.0.0.1", probe->port()};
      probe->stop();
      configs[i].listen = members[ServerId{i}];
    }
    for (auto& cfg : configs) cfg.members = members;

    ring = std::make_unique<dht::ChordRing>(dht::ChordRing::Config{
        32, 8, dht::KeyHasher::Algo::kSha1, 77});
    for (std::size_t i = 0; i < kNodes; ++i) ring->add_server(ServerId{i});
    const auto entries =
        compute_bootstrap_entries(*ring, ring->hasher(), clash);
    for (std::size_t i = 0; i < kNodes; ++i) {
      boot(i);
      const auto it = entries.find(nodes[i]->id());
      if (it != entries.end()) nodes[i]->install_entries(it->second);
      nodes[i]->start();
    }
  }

  ~RecoveryNetCluster() {
    for (auto& node : nodes) {
      if (node != nullptr) node->stop();
    }
  }

  /// (Re)create node `i` with a fresh engine + hooks and bind them.
  void boot(std::size_t i) {
    engines.resize(kNodes);
    hooks.resize(kNodes);
    nodes.resize(kNodes);
    engines[i] = std::make_unique<cq::StreamEngine>(kWidth);
    hooks[i] = std::make_unique<cq::EngineHooks>(*engines[i]);
    nodes[i] = std::make_unique<ClashNode>(configs[i]);
    (void)nodes[i]->run_on_loop([&, i](ClashServer& s) {
      hooks[i]->bind(&s);
      s.set_app_hooks(hooks[i].get());
      return true;
    });
  }

  template <typename Pred>
  bool eventually(Pred pred, int rounds = 400) {
    for (int i = 0; i < rounds; ++i) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  /// Fire a record on node `i`'s engine, serialised onto its loop.
  std::size_t fire(std::size_t i, const Key& key) {
    return nodes[i]->run_on_loop([&, i](ClashServer&) {
      return engines[i]->process(cq::Record{key, {}});
    });
  }

  /// The live node whose table actively covers `key` (SIZE_MAX: none).
  std::size_t owner_of(const Key& key, std::size_t skip = SIZE_MAX) {
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (i == skip || nodes[i] == nullptr || !nodes[i]->running()) continue;
      const bool active = nodes[i]->run_on_loop([&](ClashServer& s) {
        return s.table().active_entry_for(key) != nullptr;
      });
      if (active) return i;
    }
    return SIZE_MAX;
  }

  /// Register `n` continuous queries through real sockets, mirror each
  /// into its owner's stream engine (an app delta through the log),
  /// and let the appends reach the replica sets. Returns their keys.
  std::vector<Key> register_queries(std::size_t n) {
    BlockingClient::Config ccfg;
    ccfg.members = configs[0].members;
    ccfg.ring_salt = 77;
    BlockingClient env(ccfg);
    ClashClient client(configs[0].clash, env, env.hasher());
    std::vector<Key> keys;
    for (std::size_t i = 0; i < n; ++i) {
      AcceptObject obj;
      obj.key = Key((0x1357 * (i + 1)) & 0xFFFF, kWidth);
      obj.kind = ObjectKind::kQuery;
      obj.query_id = QueryId{i};
      EXPECT_TRUE(client.insert(obj).ok);
      keys.push_back(obj.key);
      const std::size_t owner = owner_of(obj.key);
      if (owner == SIZE_MAX) {
        ADD_FAILURE() << "query " << i << " has no owner";
        continue;
      }
      const bool registered = nodes[owner]->run_on_loop([&](ClashServer&) {
        cq::ContinuousQuery q;
        q.id = QueryId{i};
        q.scope = KeyGroup::of(obj.key, kWidth);
        return hooks[owner]->register_query(q);
      });
      EXPECT_TRUE(registered) << "query " << i;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return keys;
  }

  /// How many running nodes other than `skip` actively own each group.
  std::map<KeyGroup, std::size_t> owner_counts(std::size_t skip = SIZE_MAX) {
    std::map<KeyGroup, std::size_t> counts;
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (i == skip || nodes[i] == nullptr || !nodes[i]->running()) continue;
      const auto groups = nodes[i]->run_on_loop([](ClashServer& s) {
        std::vector<KeyGroup> out;
        for (const auto* e : s.table().active_entries()) {
          out.push_back(e->group);
        }
        return out;
      });
      for (const auto& g : groups) ++counts[g];
    }
    return counts;
  }

  /// Queries held by the running nodes.
  std::size_t live_queries() {
    std::size_t total = 0;
    for (auto& node : nodes) {
      if (!node->running()) continue;
      total +=
          node->run_on_loop([](ClashServer& s) { return s.total_queries(); });
    }
    return total;
  }

  std::vector<NodeConfig> configs;
  std::vector<std::unique_ptr<ClashNode>> nodes;
  std::vector<std::unique_ptr<cq::StreamEngine>> engines;
  std::vector<std::unique_ptr<cq::EngineHooks>> hooks;
  std::unique_ptr<dht::ChordRing> ring;
};

TEST(RecoveryNet, QueriesSurviveOwnerDeathAndKeepFiring) {
  RecoveryNetCluster cluster;
  constexpr std::size_t kQueries = 12;
  const auto keys = cluster.register_queries(kQueries);
  ASSERT_FALSE(::testing::Test::HasFailure());

  const ServerId victim = cluster.ring->map(
      cluster.ring->hasher().hash_key(shape(keys[0], kInitialDepth)));
  ASSERT_GT(cluster.fire(victim.value, keys[0]), 0u);  // fires pre-kill
  const auto groups_before = cluster.owner_counts();
  cluster.nodes[victim.value]->stop();

  // Survivors converge, promote with recovery, and every query
  // reappears on a live node.
  const bool recovered = cluster.eventually([&] {
    std::size_t total = 0;
    for (auto& node : cluster.nodes) {
      if (node->id() == victim) continue;
      if (node->member_state(victim) != MemberState::kDead) return false;
      total +=
          node->run_on_loop([](ClashServer& s) { return s.total_queries(); });
    }
    return total == kQueries;
  });
  ASSERT_TRUE(recovered) << "queries lost in failover";

  // No group lost and none owned twice: every group active before the
  // kill is active on exactly one survivor.
  const bool owned_once = cluster.eventually([&] {
    const auto after = cluster.owner_counts(victim.value);
    for (const auto& [group, _] : groups_before) {
      const auto it = after.find(group);
      if (it == after.end() || it->second != 1) return false;
    }
    return true;
  });
  EXPECT_TRUE(owned_once) << "a group went unowned or doubly owned";

  // The app-level query state came along: the promoted owner's engine
  // still matches the record.
  const std::size_t heir = cluster.owner_of(keys[0], victim.value);
  ASSERT_NE(heir, SIZE_MAX);
  EXPECT_GT(cluster.fire(heir, keys[0]), 0u)
      << "promoted owner lost the app query state";
}

TEST(RecoveryNet, HeirDyingInsideItsGraceWindowStillFailsOver) {
  // Owner X dies; its heir H declares it dead and holds the promotion
  // of X's group open for a long grace window — and dies inside it.
  // The last holder of that group must still promote it: when H leaves
  // its ring it re-evaluates every replica record, including the ones
  // that still name X, not only the records H owned.
  RecoveryNetCluster cluster(std::chrono::milliseconds(1500));
  constexpr std::size_t kQueries = 12;
  const auto keys = cluster.register_queries(kQueries);
  ASSERT_FALSE(::testing::Test::HasFailure());

  const auto chain = cluster.ring->successors(
      cluster.ring->hasher().hash_key(shape(keys[0], kInitialDepth)), 3);
  ASSERT_EQ(chain.size(), 3u);
  const ServerId owner = chain[0];
  const ServerId heir = chain[1];
  const std::size_t holder = chain[2].value;
  ASSERT_GT(cluster.fire(owner.value, keys[0]), 0u);  // fires pre-kill

  cluster.nodes[owner.value]->stop();
  ASSERT_TRUE(cluster.eventually([&] {
    for (auto& node : cluster.nodes) {
      if (node->running() && node->member_state(owner) != MemberState::kDead) {
        return false;
      }
    }
    return true;
  })) << "survivors never declared the owner dead";
  // Every survivor, the heir included, has just opened its grace
  // window: stop the heir well before it can promote.
  cluster.nodes[heir.value]->stop();

  const bool recovered = cluster.eventually([&] {
    for (auto& node : cluster.nodes) {
      if (node->running() && node->member_state(heir) != MemberState::kDead) {
        return false;
      }
    }
    return cluster.live_queries() == kQueries;
  });
  ASSERT_TRUE(recovered) << "queries lost: " << cluster.live_queries()
                         << " of " << kQueries << " left";
  EXPECT_EQ(cluster.owner_of(keys[0]), holder);
  EXPECT_GT(cluster.fire(holder, keys[0]), 0u)
      << "the last holder lost the app query state";
}

TEST(RecoveryNet, RestartedNodeIsHandedItsGroupsBackWithState) {
  RecoveryNetCluster cluster;

  BlockingClient::Config ccfg;
  ccfg.members = cluster.configs[0].members;
  ccfg.ring_salt = 77;
  BlockingClient env(ccfg);
  ClashClient client(cluster.configs[0].clash, env, env.hasher());
  constexpr std::size_t kStreams = 16;
  for (std::size_t i = 0; i < kStreams; ++i) {
    AcceptObject obj;
    obj.key = Key((0x2222 * (i + 1)) & 0xFFFF, kWidth);
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{i};
    obj.stream_rate = 1;
    ASSERT_TRUE(client.insert(obj).ok);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // Stop one node and wait for eviction + failover.
  const ServerId victim{1};
  cluster.nodes[victim.value]->stop();
  ASSERT_TRUE(cluster.eventually([&] {
    std::size_t total = 0;
    for (auto& node : cluster.nodes) {
      if (node->id() == victim) continue;
      if (node->member_state(victim) != MemberState::kDead) return false;
      total +=
          node->run_on_loop([](ClashServer& s) { return s.total_streams(); });
    }
    return total == kStreams;
  })) << "survivors never absorbed the victim's groups";

  // Restart it in place: fresh process, same identity and address. It
  // refutes its death rumour, rejoins the ring, and the current owners
  // hand its mapped groups back with full state.
  cluster.boot(victim.value);
  cluster.nodes[victim.value]->start();
  const bool handed_back = cluster.eventually([&] {
    for (auto& node : cluster.nodes) {
      if (node->member_state(victim) != MemberState::kAlive) return false;
      if (node->ring_server_count() != kNodes) return false;
    }
    const auto streams = cluster.nodes[victim.value]->run_on_loop(
        [](ClashServer& s) { return s.total_streams(); });
    return streams > 0;
  });
  EXPECT_TRUE(handed_back)
      << "rejoined node still serves empty state (rejoin gap)";

  // Nothing was lost end to end.
  std::size_t total = 0;
  for (auto& node : cluster.nodes) {
    total +=
        node->run_on_loop([](ClashServer& s) { return s.total_streams(); });
  }
  EXPECT_EQ(total, kStreams);
}

}  // namespace
}  // namespace clash::net
