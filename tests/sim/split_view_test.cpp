// Split views under live SWIM: each server's ring follows its own
// verdicts, so a partition lets both sides fail each other's groups
// over. After the heal, the epoch fence leaves exactly one owner per
// group. Plus the batching epoch fence: a ReplAppend batch queued on
// the event queue leaves under its old epoch before the new line.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "clash/client.hpp"
#include "common/rng.hpp"
#include "sim/churn.hpp"

namespace clash::sim {
namespace {

constexpr std::size_t kServers = 16;
constexpr unsigned kWidth = 10;

ChurnSim::Config split_config() {
  ChurnSim::Config cfg;
  cfg.cluster.num_servers = kServers;
  cfg.cluster.seed = 4321;
  cfg.cluster.clash.key_width = kWidth;
  cfg.cluster.clash.initial_depth = 3;
  cfg.cluster.clash.capacity = 4000.0;  // no load-driven splits
  cfg.cluster.clash.replication_factor = 2;
  cfg.seed = 17;
  return cfg;
}

void register_queries(ChurnSim& sim, std::size_t n, std::uint64_t first_id) {
  ClashClient client(sim.cluster().clash_config(),
                     sim.cluster().client_env(ServerId{0}),
                     sim.cluster().hasher());
  Rng rng(7 + first_id);
  for (std::size_t i = 0; i < n; ++i) {
    AcceptObject obj;
    obj.key = Key(rng.next() & 0x3FF, kWidth);
    obj.kind = ObjectKind::kQuery;
    obj.query_id = QueryId{first_id + i};
    ASSERT_TRUE(client.insert(obj).ok);
  }
}

/// Live servers holding `group` active, with their log epochs.
std::map<ServerId, std::uint64_t> copies(const SimCluster& cluster,
                                         const KeyGroup& group) {
  std::map<ServerId, std::uint64_t> out;
  for (std::size_t i = 0; i < kServers; ++i) {
    const ServerId id{i};
    if (!cluster.is_alive(id)) continue;
    const ServerTableEntry* e = cluster.server(id).table().find(group);
    if (e != nullptr && e->active) {
      out[id] = cluster.server(id).log_head(group).value_or(
          repl::LogHead{}).epoch;
    }
  }
  return out;
}

TEST(SplitView, BothSidesPromoteAndHealToOneOwnerAtTheHigherEpoch) {
  ChurnSim sim(split_config());
  sim.start();
  register_queries(sim, 40, 0);
  sim.run_for(SimTime::from_minutes(11));
  const auto before = sim.cluster().owner_index();
  const std::set<ServerId> minority{ServerId{1}, ServerId{4}, ServerId{7},
                                    ServerId{11}};

  sim.partition({minority.begin(), minority.end()});
  sim.run_for(SimTime::from_minutes(3));
  // Each side fails over the other side's groups it holds replicas of.
  bool minority_promoted = false;
  bool majority_promoted = false;
  std::map<KeyGroup, std::uint64_t> split_epoch;  // doubled groups only
  for (const auto& [group, owner] : before) {
    const auto held = copies(sim.cluster(), group);
    for (const auto& [id, epoch] : held) {
      if (id == owner) continue;
      (minority.count(id) > 0 ? minority_promoted : majority_promoted) = true;
    }
    if (held.size() > 1) {
      for (const auto& [_, epoch] : held) {
        split_epoch[group] = std::max(split_epoch[group], epoch);
      }
    }
  }
  EXPECT_TRUE(minority_promoted);
  EXPECT_TRUE(majority_promoted);
  ASSERT_FALSE(split_epoch.empty()) << "no group was owned on both sides";

  sim.heal_partitions();
  sim.run_for(SimTime::from_minutes(11));
  EXPECT_TRUE(sim.ring_matches_membership());
  EXPECT_EQ(sim.cluster().check_invariants(), std::nullopt);
  for (const auto& [group, _] : before) {
    const auto held = copies(sim.cluster(), group);
    ASSERT_EQ(held.size(), 1u) << group.label();
    if (const auto it = split_epoch.find(group); it != split_epoch.end()) {
      EXPECT_GT(held.begin()->second, it->second) << group.label();
    }
  }
  std::size_t queries = 0;
  for (std::size_t i = 0; i < kServers; ++i) {
    queries += sim.cluster().server(ServerId{i}).total_queries();
  }
  EXPECT_EQ(queries, 40u);
}

TEST(SplitView, QueuedBatchFlushesUnderTheOldEpochBeforeTheBump) {
  auto cfg = split_config();
  cfg.cluster.num_servers = 8;
  cfg.cluster.clash.replication_factor = 1;
  ChurnSim sim(cfg);
  sim.start();
  sim.run_for(SimTime::from_minutes(1));
  SimCluster& cluster = sim.cluster();
  const auto& [group, owner] = *cluster.owner_index().begin();
  const ServerId replica = cluster.ring_of(owner).successors(
      cluster.hasher().hash_key(group.virtual_key()), 2)[1];
  const auto old_head = cluster.server(replica).replica_head(group);
  ASSERT_TRUE(old_head.has_value());
  const std::uint64_t appends = cluster.server(replica).stats().repl_appends;

  // The write's ReplAppend waits on the event queue for the end of the
  // (here: outer) event, as it waits for the end of a loop tick on a
  // node.
  AcceptObject put;
  put.key = group.virtual_key();
  put.kind = ObjectKind::kData;
  put.source = ClientId{99};
  put.stream_rate = 1.0;
  ASSERT_TRUE(std::holds_alternative<AcceptObjectOk>(
      cluster.server(owner).handle_accept_object(put)));
  EXPECT_EQ(cluster.server(replica).stats().repl_appends, appends);

  // The epoch bumps first: a copy of the group lands on its owner.
  auto& tracer = obs::Hub::global().tracer;
  tracer.set_enabled(true);
  AcceptKeyGroup copy;
  copy.group = group;
  copy.epoch = old_head->epoch + 5;
  cluster.server(owner).deliver(replica, copy);
  tracer.set_enabled(false);

  // The queued batch reached the replica (applied: a ReplAppend under
  // any other epoch is nacked) before the owner's new line started.
  EXPECT_EQ(cluster.server(replica).stats().repl_appends, appends + 1);
  const std::uint64_t new_epoch = cluster.server(owner).log_head(group)->epoch;
  EXPECT_GT(new_epoch, copy.epoch);
  const auto spans = tracer.spans();
  const auto applied = std::find_if(spans.begin(), spans.end(), [&](
      const obs::Span& s) {
    return s.kind == obs::SpanKind::kReplApply && s.pid == replica.value &&
           s.arg == 1;
  });
  const auto bumped = std::find_if(spans.begin(), spans.end(), [&](
      const obs::Span& s) {
    return s.kind == obs::SpanKind::kEpochBump && s.pid == owner.value &&
           s.arg2 == new_epoch;
  });
  ASSERT_NE(applied, spans.end());
  ASSERT_NE(bumped, spans.end());
  EXPECT_LT(applied - spans.begin(), bumped - spans.begin());
  sim.run_for(SimTime::from_seconds(1));
  EXPECT_EQ(cluster.server(replica).replica_head(group)->epoch, new_epoch);
}

}  // namespace
}  // namespace clash::sim
