// Counter accuracy against the simulator's ground truth: a latency
// histogram's sample count must equal the number of operations it
// times, and a restart must not erase what a server counted. Each expected count is computed from sim state (the puts the
// test made, the groups the victim owned, the offers delivered), never
// from the branch that records the sample. Every sim server records
// into the process-global hub, which other tests share, so each check
// takes a before/after delta.
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "clash/client.hpp"
#include "common/rng.hpp"
#include "obs/hub.hpp"
#include "sim/cluster.hpp"
#include "tests/clash/test_util.hpp"

namespace clash::sim {
namespace {

constexpr std::size_t kServers = 24;

std::uint64_t hist_count(std::string_view name) {
  return obs::Hub::global().registry.histogram(name).raw()->count();
}

/// Registers `n` streams with distinct sources and deterministic keys.
void put_streams(ClashClient& client, std::size_t first, std::size_t n,
                 std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = first; i < first + n; ++i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & 0x3FF, 10);
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{i};
    obj.stream_rate = 2;
    ASSERT_TRUE(client.insert(obj).ok);
  }
}

/// A replicated cluster with load, its replica sets formed.
struct Replicated {
  Replicated()
      : cluster([] {
          auto cfg = testing::small_cluster_config(kServers, 10, 3, 200.0);
          cfg.clash.replication_factor = 2;
          return cfg;
        }()),
        client(cluster.clash_config(), cluster.client_env(ServerId{0}),
               cluster.hasher()) {
    cluster.bootstrap();
    put_streams(client, 0, 60, 17);
    cluster.run_until(SimTime::from_minutes(5));
    cluster.run_all_load_checks();
  }

  SimCluster cluster;
  ClashClient client;
};

TEST(HistogramAccuracy, CommitCountEqualsCommittedBatches) {
  Replicated r;
  // Between load checks every put is one new stream, logged as one op;
  // the sim's defer runs inline, so each op leaves as its own batch to
  // both replica targets, and the first ack commits it.
  constexpr std::size_t kPuts = 40;
  const auto before = r.cluster.total_stats();
  const std::uint64_t commits_before = hist_count("clash_repl_commit_usec");
  put_streams(r.client, 1000, kPuts, 29);
  const auto delta = r.cluster.total_stats() - before;
  ASSERT_EQ(delta.repl_appends, 2 * kPuts) << "one batch per put, rf 2";
  EXPECT_EQ(delta.repl_acks, delta.repl_appends);
  EXPECT_EQ(hist_count("clash_repl_commit_usec") - commits_before, kPuts);
}

TEST(HistogramAccuracy, FailoverAndInstallCountsMatchAFailServer) {
  Replicated r;
  const ServerId victim = r.cluster.owner_index().begin()->second;
  std::vector<KeyGroup> owned;
  for (const auto& [group, owner] : r.cluster.owner_index()) {
    if (owner == victim) owned.push_back(group);
  }
  ASSERT_FALSE(owned.empty());

  const auto before = r.cluster.total_stats();
  const std::uint64_t failovers_before =
      hist_count("clash_failover_recovery_usec");
  const std::uint64_t installs_before =
      hist_count("clash_snapshot_install_usec");
  EXPECT_EQ(r.cluster.fail_server(victim), owned.size());
  const auto delta = r.cluster.total_stats() - before;

  // Every group the victim owned now lives on exactly one survivor.
  for (const auto& group : owned) {
    const auto it = r.cluster.owner_index().find(group);
    ASSERT_NE(it, r.cluster.owner_index().end()) << group.label();
    EXPECT_NE(it->second, victim);
  }
  EXPECT_EQ(r.cluster.check_invariants(), std::nullopt);
  EXPECT_EQ(delta.failovers, owned.size());
  EXPECT_EQ(hist_count("clash_failover_recovery_usec") - failovers_before,
            owned.size());

  // Fault-free and synchronous: every delivered offer is followed by
  // all of its chunks, so each one installs.
  ASSERT_EQ(delta.snapshot_offers_ignored, 0u);
  ASSERT_EQ(delta.snapshot_aborts, 0u);
  ASSERT_EQ(delta.corrupt_rejected, 0u);
  EXPECT_GT(delta.snapshot_offers, 0u);
  EXPECT_EQ(hist_count("clash_snapshot_install_usec") - installs_before,
            delta.snapshot_offers);
}

TEST(CounterAccuracy, RestartKeepsWhatTheServerCounted) {
  // Peer messages are counted by the server that handles them. A
  // restart replaces that server, so the cluster keeps its counts: the
  // totals of a crash + restart with no traffic in between stay put.
  Replicated r;
  ServerId target{};
  for (std::size_t i = 0; i < kServers; ++i) {
    if (r.cluster.server(ServerId{i}).stats().total_messages() > 0) {
      target = ServerId{i};
      break;
    }
  }
  const auto before = r.cluster.total_stats();
  ASSERT_GT(r.cluster.server(target).stats().total_messages(), 0u);
  r.cluster.crash_server(target);
  r.cluster.restart_server(target);
  ASSERT_EQ(r.cluster.server(target).stats().total_messages(), 0u);
  const auto after = r.cluster.total_stats();
  EXPECT_EQ(after.total_messages(), before.total_messages());
  EXPECT_EQ(after.replication_log_messages(),
            before.replication_log_messages());
}

}  // namespace
}  // namespace clash::sim
