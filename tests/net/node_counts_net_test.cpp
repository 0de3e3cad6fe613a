// Counter accuracy over real TCP: a node's clash_msgs_<class> series
// count the peer messages its ClashServer handled, so across a quiet
// cluster they must add up to the frames the transports received. The
// ground truth is the transport's own frame counter
// (clash_net_frames_received_total), which the protocol layer never
// touches.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "clash/bootstrap.hpp"
#include "net/blocking_client.hpp"
#include "net/node.hpp"

namespace clash::net {
namespace {

constexpr unsigned kWidth = 16;
constexpr std::size_t kNodes = 3;

/// The twelve server -> server message classes ClashServer::deliver
/// counts.
std::uint64_t peer_messages(const MessageStats& s) {
  return s.keygroup_transfers + s.keygroup_acks + s.load_reports +
         s.reclaim_requests + s.reclaim_replies + s.replica_drops +
         s.repl_appends + s.repl_acks + s.snapshot_offers +
         s.snapshot_chunks + s.anti_entropy_probes + s.anti_entropy_diffs;
}

template <typename Pred>
bool eventually(Pred pred, int rounds = 250) {
  for (int i = 0; i < rounds; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

TEST(NodeCountsNet, PeerMessageClassesEqualFramesReceived) {
  ClashConfig clash;
  clash.key_width = kWidth;
  clash.initial_depth = 3;
  clash.capacity = 1e9;  // no load-driven splits
  clash.replication_factor = 2;

  // Gossip frames carry no message class, so membership stays off.
  // Self-sends are delivered in-process without a frame, so the run
  // must have none: load checks never fire (no LoadReport to a parent
  // on the same node, no anti-entropy round), which leaves activation
  // snapshots, ReplAppend fan-out and ReplAcks. Replica targets
  // exclude the owner, so every one of those crosses a socket.
  std::vector<NodeConfig> configs(kNodes);
  std::map<ServerId, Endpoint> members;
  for (std::size_t i = 0; i < kNodes; ++i) {
    NodeConfig& cfg = configs[i];
    cfg.id = ServerId{i};
    cfg.listen = Endpoint{"127.0.0.1", 0};
    cfg.members[cfg.id] = cfg.listen;
    cfg.clash = clash;
    cfg.ring_salt = 31;
    cfg.enable_membership = false;
    cfg.load_check_interval = std::chrono::hours(1);
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    ClashNode probe(configs[i]);
    probe.start();
    members[ServerId{i}] = Endpoint{"127.0.0.1", probe.port()};
    probe.stop();
    configs[i].listen = members[ServerId{i}];
  }
  for (auto& cfg : configs) cfg.members = members;

  dht::ChordRing ring(dht::ChordRing::Config{32, 8,
                                             dht::KeyHasher::Algo::kSha1,
                                             31});
  for (std::size_t i = 0; i < kNodes; ++i) ring.add_server(ServerId{i});
  const auto entries = compute_bootstrap_entries(ring, ring.hasher(), clash);
  std::vector<std::unique_ptr<ClashNode>> nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    nodes.push_back(std::make_unique<ClashNode>(configs[i]));
    const auto it = entries.find(ServerId{i});
    if (it != entries.end()) nodes.back()->install_entries(it->second);
    nodes.back()->start();
  }

  // Every ACCEPT_OBJECT round trip is one request frame a node receives.
  BlockingClient::Config ccfg;
  ccfg.members = members;
  ccfg.ring_salt = 31;
  BlockingClient env(ccfg);
  ClashClient client(clash, env, env.hasher());
  constexpr std::size_t kPuts = 48;
  std::uint64_t requests = 0;
  for (std::size_t i = 0; i < kPuts; ++i) {
    AcceptObject obj;
    obj.key = Key((0x2467 * (i + 1)) & 0xFFFF, kWidth);
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{i};
    obj.stream_rate = 1;
    const auto out = client.insert(obj);
    ASSERT_TRUE(out.ok) << "put " << i;
    requests += out.probes;
  }
  ASSERT_EQ(env.transport_errors(), 0u);
  ASSERT_GE(requests, kPuts);

  struct Totals {
    std::uint64_t classes = 0;
    std::uint64_t frames = 0;
    std::uint64_t repl_appends = 0;
  };
  const auto totals = [&] {
    Totals t;
    for (auto& node : nodes) {
      const MessageStats s =
          node->run_on_loop([](ClashServer& srv) { return srv.stats(); });
      t.classes += peer_messages(s);
      t.repl_appends += s.repl_appends;
      // Transport counters are striped atomics: safe to read off-loop.
      t.frames += node->hub().registry.counter_value(
          "clash_net_frames_received_total");
    }
    return t;
  };
  // Replication drains once the counts meet; hold the equality across
  // a quiet spell so a late frame cannot slip past the check.
  Totals t;
  const bool met = eventually([&] {
    t = totals();
    return t.classes + requests == t.frames;
  });
  EXPECT_TRUE(met) << "classes " << t.classes << " + requests " << requests
                   << " != frames received " << t.frames;
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  t = totals();
  EXPECT_EQ(t.classes + requests, t.frames);
  // The puts replicated: the owner shipped at least one append each to
  // its two replica targets.
  EXPECT_GE(t.repl_appends, 2 * kPuts);

  // The node exports exactly the fields its server counts.
  const std::string text = nodes[0]->scrape_text();
  EXPECT_NE(text.find("clash_msgs_repl_appends"), std::string::npos);
  EXPECT_EQ(text.find("clash_msgs_groups_lost"), std::string::npos);
  EXPECT_EQ(text.find("clash_msgs_dht_hops"), std::string::npos);
  for (auto& node : nodes) node->stop();
}

}  // namespace
}  // namespace clash::net
