// MembershipDriver protocol tests over an in-memory network with
// controllable link failures: detection, indirection, refutation, and
// the rejoin handshake.
#include "membership/driver.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

namespace clash::membership {
namespace {

// A tiny synchronous network: messages queue up and are delivered in
// order; individual directed links can be cut and whole nodes crashed.
struct LoopbackNet {
  struct Node : MembershipEnv {
    LoopbackNet* net = nullptr;
    ServerId id{};
    bool alive = true;
    std::unique_ptr<MembershipDriver> driver;
    std::vector<ServerId> deaths;
    std::vector<ServerId> joins;

    void gossip_send(ServerId to, const Gossip& msg) override {
      net->queue.emplace_back(id, to, msg);
    }
    void on_member_dead(ServerId dead) override { deaths.push_back(dead); }
    void on_member_joined(ServerId joined) override {
      joins.push_back(joined);
    }
  };

  explicit LoopbackNet(std::size_t n, MembershipConfig cfg = {}) {
    for (std::size_t i = 0; i < n; ++i) {
      auto node = std::make_unique<Node>();
      node->net = this;
      node->id = ServerId{i};
      node->driver = std::make_unique<MembershipDriver>(ServerId{i}, cfg,
                                                        *node, 1000 + i);
      nodes.push_back(std::move(node));
    }
    for (auto& node : nodes) {
      for (std::size_t j = 0; j < n; ++j) node->driver->add_seed(ServerId{j});
    }
  }

  void cut(ServerId a, ServerId b) {  // cut both directions
    cuts.insert({a.value, b.value});
    cuts.insert({b.value, a.value});
  }
  void heal(ServerId a, ServerId b) {
    cuts.erase({a.value, b.value});
    cuts.erase({b.value, a.value});
  }

  void deliver_all() {
    while (!queue.empty()) {
      auto [from, to, msg] = queue.front();
      queue.pop_front();
      if (!nodes[to.value]->alive) continue;
      if (cuts.count({from.value, to.value}) > 0) continue;
      nodes[to.value]->driver->handle(from, msg);
    }
  }

  /// One protocol period everywhere, then full message delivery.
  void tick_all() {
    for (auto& node : nodes) {
      if (node->alive) node->driver->tick();
    }
    deliver_all();
  }

  [[nodiscard]] MemberState state(std::size_t observer,
                                  std::size_t subject) const {
    return nodes[observer]->driver->view().state_of(ServerId{subject});
  }

  std::vector<std::unique_ptr<Node>> nodes;
  std::deque<std::tuple<ServerId, ServerId, Gossip>> queue;
  std::set<std::pair<std::uint64_t, std::uint64_t>> cuts;
};

TEST(MembershipDriver, HealthyClusterStaysFullyAlive) {
  LoopbackNet net(5);
  for (int period = 0; period < 20; ++period) net.tick_all();
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(net.nodes[i]->deaths.empty());
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_EQ(net.state(i, j), MemberState::kAlive) << i << "->" << j;
    }
  }
}

TEST(MembershipDriver, CrashedNodeIsDeclaredDeadEverywhere) {
  LoopbackNet net(5);
  for (int period = 0; period < 3; ++period) net.tick_all();

  net.nodes[2]->alive = false;
  // Worst case: rotation (4) + ping timeout (1) + indirect (1) +
  // suspicion (3) + dissemination; 20 periods is a generous bound.
  int converged_at = -1;
  for (int period = 0; period < 20 && converged_at < 0; ++period) {
    net.tick_all();
    bool all = true;
    for (std::size_t i = 0; i < 5; ++i) {
      if (i == 2 || !net.nodes[i]->alive) continue;
      all = all && net.state(i, 2) == MemberState::kDead;
    }
    if (all) converged_at = period;
  }
  ASSERT_GE(converged_at, 0) << "survivors never converged on the death";

  // Each survivor fired the death callback exactly once.
  for (std::size_t i = 0; i < 5; ++i) {
    if (i == 2) continue;
    ASSERT_EQ(net.nodes[i]->deaths.size(), 1u) << "survivor " << i;
    EXPECT_EQ(net.nodes[i]->deaths[0], ServerId{2});
  }
}

TEST(MembershipDriver, PingReqIndirectionAvoidsFalsePositive) {
  MembershipConfig cfg;
  cfg.detector.ping_req_fanout = 2;
  LoopbackNet net(3, cfg);
  // 0 cannot talk to 1 directly, but 2 relays both ways.
  net.cut(ServerId{0}, ServerId{1});

  for (int period = 0; period < 30; ++period) net.tick_all();
  EXPECT_EQ(net.state(0, 1), MemberState::kAlive);
  EXPECT_EQ(net.state(1, 0), MemberState::kAlive);
  EXPECT_TRUE(net.nodes[0]->deaths.empty());
  EXPECT_TRUE(net.nodes[1]->deaths.empty());
}

TEST(MembershipDriver, SuspectRefutesWithIncarnationBump) {
  MembershipConfig cfg;
  cfg.suspicion_periods = 8;  // long fuse: give the refutation room
  cfg.detector.ping_req_fanout = 1;
  LoopbackNet net(3, cfg);

  // Fully isolate node 1 until someone suspects it.
  net.cut(ServerId{0}, ServerId{1});
  net.cut(ServerId{2}, ServerId{1});
  bool suspected = false;
  for (int period = 0; period < 12 && !suspected; ++period) {
    net.tick_all();
    suspected = net.state(0, 1) == MemberState::kSuspect ||
                net.state(2, 1) == MemberState::kSuspect;
  }
  ASSERT_TRUE(suspected);

  // Reconnect: the suspicion rumour reaches node 1, which refutes.
  net.heal(ServerId{0}, ServerId{1});
  net.heal(ServerId{2}, ServerId{1});
  for (int period = 0; period < 12; ++period) net.tick_all();

  EXPECT_EQ(net.state(0, 1), MemberState::kAlive);
  EXPECT_EQ(net.state(2, 1), MemberState::kAlive);
  EXPECT_GE(net.nodes[1]->driver->view().self_incarnation(), 1u);
  EXPECT_TRUE(net.nodes[0]->deaths.empty());
  EXPECT_TRUE(net.nodes[2]->deaths.empty());
}

TEST(MembershipDriver, DeadNodeRejoinsByRefutingItsDeath) {
  LoopbackNet net(4);
  net.nodes[3]->alive = false;
  for (int period = 0; period < 20; ++period) net.tick_all();
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(net.state(i, 3), MemberState::kDead) << i;
  }

  // Restart node 3 with a fresh driver (it lost all state, including
  // its incarnation). It learns of its own death from the survivors'
  // replies and refutes with a bumped incarnation.
  auto& node = *net.nodes[3];
  node.driver = std::make_unique<MembershipDriver>(ServerId{3},
                                                   MembershipConfig{}, node,
                                                   999);
  for (std::size_t j = 0; j < 4; ++j) node.driver->add_seed(ServerId{j});
  node.alive = true;

  for (int period = 0; period < 20; ++period) net.tick_all();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(net.state(i, 3), MemberState::kAlive) << i;
    // The rejoin surfaced as a join event exactly once.
    EXPECT_EQ(std::count(net.nodes[i]->joins.begin(),
                         net.nodes[i]->joins.end(), ServerId{3}),
              1);
  }
}

TEST(MembershipDriver, HealedPartitionReMergesViews) {
  LoopbackNet net(4);
  const auto cross = [&](bool cut) {
    for (std::size_t a : {0, 1}) {
      for (std::size_t b : {2, 3}) {
        cut ? net.cut(ServerId{a}, ServerId{b})
            : net.heal(ServerId{a}, ServerId{b});
      }
    }
  };
  cross(true);
  for (int period = 0; period < 30; ++period) net.tick_all();
  // Each side holds the other dead, and nobody probes the dead.
  ASSERT_EQ(net.state(0, 2), MemberState::kDead);
  ASSERT_EQ(net.state(2, 0), MemberState::kDead);

  cross(false);
  // Reconnect pings reach the other side; each exchange carries both
  // verdicts, and each side refutes its own.
  for (int period = 0; period < 60; ++period) net.tick_all();
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      if (i != j) {
        EXPECT_EQ(net.state(i, j), MemberState::kAlive) << i << j;
      }
    }
  }
}

TEST(MembershipDriver, GossipCarriesBoundedUpdateBatches) {
  MembershipConfig cfg;
  cfg.gossip_max_updates = 2;
  LoopbackNet net(6, cfg);
  net.nodes[1]->alive = false;
  net.nodes[2]->alive = false;

  std::size_t max_batch = 0;
  for (int period = 0; period < 15; ++period) {
    for (auto& node : net.nodes) {
      if (node->alive) node->driver->tick();
    }
    for (const auto& [from, to, msg] : net.queue) {
      max_batch = std::max(max_batch, msg.updates.size());
    }
    net.deliver_all();
  }
  EXPECT_LE(max_batch, 2u);
}

}  // namespace
}  // namespace clash::membership
