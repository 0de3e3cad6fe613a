// Property test: under arbitrary interleavings of stream churn, query
// churn, load checks, forced splits, and resolutions, the cluster's
// global invariants hold at every step and no state is ever lost.
#include <gtest/gtest.h>

#include <map>

#include "clash/client.hpp"
#include "common/rng.hpp"
#include "sim/cluster.hpp"
#include "tests/clash/test_util.hpp"

namespace clash::sim {
namespace {

struct ChurnSweep : ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnSweep, InvariantsHoldUnderRandomChurn) {
  const std::uint64_t seed = GetParam();
  auto cfg = testing::small_cluster_config(24, 10, 3, /*capacity=*/60.0);
  cfg.seed = seed;
  SimCluster cluster(cfg);
  cluster.bootstrap();

  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher());
  Rng rng(seed * 7919 + 3);

  std::map<std::uint64_t, Key> live_streams;   // source id -> key
  std::map<std::uint64_t, Key> live_queries;   // query id -> key
  std::uint64_t next_id = 1;
  int checks = 0;

  for (int step = 0; step < 600; ++step) {
    const auto dice = rng.below(100);
    if (dice < 30) {  // add a stream
      const Key k(rng.next() & 0x3FF, 10);
      AcceptObject obj;
      obj.key = k;
      obj.kind = ObjectKind::kData;
      obj.source = ClientId{next_id};
      obj.stream_rate = 1 + double(rng.below(10));
      const auto out = client.insert(obj);
      ASSERT_TRUE(out.ok) << "step " << step;
      live_streams[next_id++] = k;
    } else if (dice < 45 && !live_streams.empty()) {  // remove a stream
      auto it = live_streams.begin();
      std::advance(it, long(rng.below(live_streams.size())));
      cluster.withdraw_stream(ClientId{it->first}, it->second);
      live_streams.erase(it);
    } else if (dice < 60) {  // add a query
      const Key k(rng.next() & 0x3FF, 10);
      AcceptObject obj;
      obj.key = k;
      obj.kind = ObjectKind::kQuery;
      obj.query_id = QueryId{next_id};
      const auto out = client.insert(obj);
      ASSERT_TRUE(out.ok) << "step " << step;
      live_queries[next_id++] = k;
    } else if (dice < 70 && !live_queries.empty()) {  // expire a query
      auto it = live_queries.begin();
      std::advance(it, long(rng.below(live_queries.size())));
      cluster.withdraw_query(QueryId{it->first}, it->second);
      live_queries.erase(it);
    } else if (dice < 85) {  // a server runs its load check
      cluster.run_until(SimTime::from_minutes(5 * ++checks));
      cluster.run_load_check(ServerId{rng.below(cfg.num_servers)});
    } else if (dice < 92) {  // adversarial forced split
      const Key k(rng.next() & 0x3FF, 10);
      const auto g = cluster.find_active_group(k);
      if (g && g->depth() < 10) {
        (void)cluster.server(*cluster.find_owner(k)).force_split(*g);
      }
    } else {  // resolution of a random key must always succeed
      const auto out = client.resolve(Key(rng.next() & 0x3FF, 10));
      ASSERT_TRUE(out.ok) << "step " << step;
    }

    if (step % 25 == 0) {
      const auto err = cluster.check_invariants();
      ASSERT_EQ(err, std::nullopt) << "step " << step << ": " << *err;
    }
  }

  // Conservation: every live stream and query is stored exactly once,
  // at the server the owner index designates.
  std::size_t streams_found = 0, queries_found = 0;
  for (std::size_t i = 0; i < cfg.num_servers; ++i) {
    streams_found += cluster.server(ServerId{i}).total_streams();
    queries_found += cluster.server(ServerId{i}).total_queries();
  }
  EXPECT_EQ(streams_found, live_streams.size());
  EXPECT_EQ(queries_found, live_queries.size());

  for (const auto& [id, k] : live_streams) {
    const auto owner = cluster.find_owner(k);
    ASSERT_TRUE(owner.has_value());
    const auto* gs = cluster.server(*owner).group_state(
        *cluster.find_active_group(k));
    ASSERT_NE(gs, nullptr);
    EXPECT_EQ(gs->streams.count(ClientId{id}), 1u) << "stream " << id;
  }

  // Load accounting has not drifted: per-group cached rates equal the
  // sum of live stream rates.
  double total_rate_stored = 0;
  for (std::size_t i = 0; i < cfg.num_servers; ++i) {
    for (const auto* e : cluster.server(ServerId{i}).table().active_entries()) {
      const auto* gs = cluster.server(ServerId{i}).group_state(e->group);
      if (gs == nullptr) continue;
      double member_sum = 0;
      for (const auto& [_, s] : gs->streams) member_sum += s.rate;
      EXPECT_NEAR(gs->stream_rate, member_sum, 1e-6)
          << "rate drift in " << e->group.label();
      total_rate_stored += member_sum;
    }
  }
  double total_rate_live = 0;
  (void)total_rate_stored;
  (void)total_rate_live;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u));

}  // namespace
}  // namespace clash::sim
