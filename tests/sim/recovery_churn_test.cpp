// Acceptance scenarios for the replication & recovery subsystem under
// live SWIM churn (log-replication mode): a kill/revive cycle must end
// with zero lost continuous queries, matches still firing on the
// promoted owners' stream engines, replicas converged to identical
// (epoch, seq) heads per group, and a rejoined node actually serving
// its handed-back groups instead of empty state.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "clash/client.hpp"
#include "common/rng.hpp"
#include "cq/engine_hooks.hpp"
#include "sim/churn.hpp"
#include "tests/clash/test_util.hpp"

namespace clash::sim {
namespace {

constexpr std::size_t kServers = 16;
constexpr unsigned kWidth = 10;
constexpr int kConvergenceBound = 30;

ChurnSim::Config log_churn_config() {
  ChurnSim::Config cfg;
  cfg.cluster.num_servers = kServers;
  cfg.cluster.seed = 1234;
  cfg.cluster.clash.key_width = kWidth;
  cfg.cluster.clash.initial_depth = 3;
  cfg.cluster.clash.capacity = 4000.0;  // no load-driven splits
  cfg.cluster.clash.replication_factor = 2;
  cfg.protocol_period = SimTime::from_seconds(1);
  cfg.gossip_delay = SimTime::from_seconds(0.02);
  cfg.seed = 99;
  return cfg;
}

/// One StreamEngine + EngineHooks pair per simulated server, rebound
/// after every revival (a restarted process loses its engine too).
struct AppLayer {
  explicit AppLayer(ChurnSim& sim) : sim_(sim) {
    for (std::size_t i = 0; i < kServers; ++i) attach(ServerId{i});
  }

  void attach(ServerId id) {
    engines[id.value] = std::make_unique<cq::StreamEngine>(kWidth);
    hooks[id.value] = std::make_unique<cq::EngineHooks>(*engines[id.value]);
    ClashServer& server = sim_.cluster().server(id);
    hooks[id.value]->bind(&server);
    server.set_app_hooks(hooks[id.value].get());
  }

  /// Register an exact-key continuous query on the key's owner.
  bool register_on_owner(QueryId id, const Key& key) {
    const auto owner = sim_.cluster().find_owner(key);
    if (!owner) return false;
    cq::ContinuousQuery q;
    q.id = id;
    q.scope = KeyGroup::of(key, key.width());
    return hooks[owner->value]->register_query(q);
  }

  [[nodiscard]] std::size_t live_query_count() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < kServers; ++i) {
      if (sim_.cluster().is_alive(ServerId{i})) {
        n += engines[i]->query_count();
      }
    }
    return n;
  }

  /// Matches fired when the key's current owner processes a record.
  std::size_t fire(const Key& key) {
    const auto owner = sim_.cluster().find_owner(key);
    if (!owner) return 0;
    return engines[owner->value]->process(cq::Record{key, {}});
  }

  ChurnSim& sim_;
  std::unique_ptr<cq::StreamEngine> engines[kServers];
  std::unique_ptr<cq::EngineHooks> hooks[kServers];
};

std::vector<Key> register_queries(ChurnSim& sim, AppLayer& app,
                                  std::size_t n) {
  ClashClient client(sim.cluster().clash_config(),
                     sim.cluster().client_env(ServerId{0}),
                     sim.cluster().hasher());
  Rng rng(7);
  std::vector<Key> keys;
  for (std::size_t i = 0; i < n; ++i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & 0x3FF, kWidth);
    obj.kind = ObjectKind::kQuery;
    obj.query_id = QueryId{i};
    EXPECT_TRUE(client.insert(obj).ok);
    // The same query also lives in the owner's stream engine, riding
    // the log as an app delta.
    EXPECT_TRUE(app.register_on_owner(QueryId{i}, obj.key));
    keys.push_back(obj.key);
  }
  return keys;
}

int run_until_converged(ChurnSim& sim, const std::vector<ServerId>& victims) {
  for (int period = 1; period <= kConvergenceBound; ++period) {
    sim.run_for(sim.protocol_period());
    bool all_dead = true;
    for (const ServerId v : victims) {
      all_dead = all_dead && sim.all_survivors_see_dead(v);
    }
    if (all_dead && sim.ring_matches_membership()) return period;
  }
  return -1;
}

/// Every replica of every active group sits at exactly the owner's
/// (epoch, seq) head. Returns the first divergence found.
std::optional<std::string> check_heads_converged(const SimCluster& cluster) {
  for (const auto& [group, owner] : cluster.owner_index()) {
    const auto owner_head = cluster.server(owner).log_head(group);
    if (!owner_head) {
      return "owner of " + group.label() + " has no log";
    }
    for (std::size_t i = 0; i < kServers; ++i) {
      const ServerId id{i};
      if (!cluster.is_alive(id) || id == owner) continue;
      if (!cluster.server(id).has_replica(group)) continue;
      const auto head = cluster.server(id).replica_head(group);
      if (head != owner_head) {
        return group.label() + ": replica on s" + std::to_string(i) +
               " at " + head->to_string() + " != owner " +
               owner_head->to_string();
      }
    }
  }
  return std::nullopt;
}

TEST(RecoveryChurn, KillReviveLosesNoQueriesAndConvergesHeads) {
  ChurnSim sim(log_churn_config());
  AppLayer app(sim);
  sim.start();
  // start() bootstraps fresh server tables; rebind the app layer to be
  // safe against any future re-ordering (hooks survive bootstrap).
  const auto keys = register_queries(sim, app, 48);
  ASSERT_EQ(app.live_query_count(), keys.size());
  sim.run_for(SimTime::from_minutes(11));  // replication settles

  // Matches fire before any failure.
  ASSERT_GT(app.fire(keys[0]), 0u);

  // --- Kill the owner of keys[0] plus one more server. ----------------
  const ServerId victim = *sim.cluster().find_owner(keys[0]);
  ServerId second{(victim.value + 5) % kServers};
  const std::vector<ServerId> victims{victim, second};
  for (const ServerId v : victims) sim.kill(v);
  ASSERT_GE(run_until_converged(sim, victims), 0);

  // Zero lost queries: protocol state and app state both survived.
  const auto stats = sim.cluster().total_stats();
  EXPECT_GT(stats.failovers, 0u);
  EXPECT_EQ(stats.groups_lost, 0u);
  std::size_t protocol_queries = 0;
  for (std::size_t i = 0; i < kServers; ++i) {
    if (!sim.cluster().is_alive(ServerId{i})) continue;
    protocol_queries += sim.cluster().server(ServerId{i}).total_queries();
  }
  EXPECT_EQ(protocol_queries, keys.size());
  EXPECT_EQ(app.live_query_count(), keys.size());
  EXPECT_EQ(sim.cluster().check_invariants(), std::nullopt);

  // Matches keep firing on the promoted owner's engine.
  EXPECT_GT(app.fire(keys[0]), 0u);

  // --- Revive the first victim: restart -> refute -> rejoin -> catch
  // up through handed-back groups. --------------------------------------
  sim.revive(victim);
  app.attach(victim);  // the restarted process gets a fresh engine
  bool rejoined = false;
  for (int period = 0; period < kConvergenceBound && !rejoined; ++period) {
    sim.run_for(sim.protocol_period());
    rejoined = sim.all_survivors_see_alive(victim) &&
               sim.cluster().live_rings_holding(victim) ==
                   sim.cluster().alive_count();
  }
  ASSERT_TRUE(rejoined);

  // The rejoined node serves its mapped groups WITH state: nothing was
  // lost in the handback, and a record owned by it still matches.
  EXPECT_EQ(app.live_query_count(), keys.size());
  std::size_t revived_owned = 0;
  for (const auto& [group, owner] : sim.cluster().owner_index()) {
    if (owner == victim) ++revived_owned;
  }
  EXPECT_GT(revived_owned, 0u)
      << "ring re-admission handed no groups back to the revived node";
  EXPECT_GT(sim.cluster().total_stats().handoffs, 0u);
  for (const auto& k : keys) {
    if (*sim.cluster().find_owner(k) == victim) {
      EXPECT_GT(app.fire(k), 0u) << "rejoined node serves empty state";
      break;
    }
  }

  // Let anti-entropy finish and the stale-replica lease GC sweep the
  // ex-holders (3 check periods), then demand fully converged heads.
  sim.run_for(SimTime::from_minutes(21));
  EXPECT_EQ(check_heads_converged(sim.cluster()), std::nullopt);
  EXPECT_EQ(sim.cluster().check_invariants(), std::nullopt);
  EXPECT_EQ(app.live_query_count(), keys.size());
}

TEST(RecoveryChurn, LogModeReplicationTrafficIsIncremental) {
  // Steady-state replication must not re-ship full snapshots: after
  // the initial activation snapshots, periodic traffic is probes (and
  // the occasional diff), not per-period SnapshotChunks.
  ChurnSim sim(log_churn_config());
  AppLayer app(sim);
  sim.start();
  (void)register_queries(sim, app, 32);
  sim.run_for(SimTime::from_minutes(6));
  sim.cluster().reset_stats();

  sim.run_for(SimTime::from_minutes(10));  // two quiet check periods
  const auto stats = sim.cluster().total_stats();
  EXPECT_GT(stats.anti_entropy_probes, 0u);
  // Quiet cluster: converged holders do not need snapshots.
  EXPECT_EQ(stats.snapshot_chunks, 0u);
  EXPECT_EQ(check_heads_converged(sim.cluster()), std::nullopt);
}

}  // namespace
}  // namespace clash::sim
