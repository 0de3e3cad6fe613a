// net::FaultInjector on the TCP transport: deterministic frame drops,
// exact drop_next scripting, and delayed delivery at the Connection
// level; and end-to-end snapshot-chunk pacing — a replica cut off past
// the compaction floor, behind a deliberately tiny pace window, still
// converges because the drain callback keeps resuming the transfer.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>

#include "clash/bootstrap.hpp"
#include "net/blocking_client.hpp"
#include "net/connection.hpp"
#include "net/fault.hpp"
#include "net/node.hpp"
#include "wire/buffer.hpp"
#include "wire/codec.hpp"

namespace clash::net {
namespace {

struct FaultConnFixture : ::testing::Test {
  void SetUp() override {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    raw_peer = fds[1];
    conn = Connection::adopt(
        loop, Fd(fds[0]), [](std::span<const std::uint8_t>) {}, [] {});
    injector = std::make_shared<FaultInjector>();
    conn->set_fault_injector(injector);
  }

  void TearDown() override {
    if (raw_peer >= 0) ::close(raw_peer);
  }

  void pump(int ms = 50) {
    CLASH_ASSERT_ON_LOOP(loop);  // idle between run()s: we hold affinity
    loop.call_after(std::chrono::milliseconds(ms), [this] { loop.stop(); });
    loop.run();
  }

  /// Frames fully received on the raw peer socket so far.
  std::size_t drain_raw_frames() {
    std::uint8_t buf[4096];
    for (;;) {
      const ssize_t n = ::recv(raw_peer, buf, sizeof(buf), MSG_DONTWAIT);
      if (n <= 0) break;
      received.insert(received.end(), buf, buf + n);
    }
    std::size_t frames = 0;
    std::size_t pos = 0;
    while (received.size() - pos >= 4) {
      const auto len = wire::load_u32_le(received.data() + pos);
      if (received.size() - pos - 4 < len) break;
      pos += 4 + len;
      ++frames;
    }
    return frames;
  }

  EventLoop loop;
  std::shared_ptr<Connection> conn;
  std::shared_ptr<FaultInjector> injector;
  std::vector<std::uint8_t> received;
  int raw_peer = -1;
};

std::vector<std::uint8_t> payload_of(std::size_t n, std::uint8_t fill) {
  return std::vector<std::uint8_t>(n, fill);
}

TEST_F(FaultConnFixture, CutDropsEveryFrameSilently) {
  FaultInjector::Config cfg;
  cfg.cut = true;
  injector->configure(cfg);
  for (int i = 0; i < 3; ++i) {
    const auto p = payload_of(16, std::uint8_t(i));
    EXPECT_TRUE(conn->send_frame(p));  // the sender cannot tell
  }
  pump();
  EXPECT_EQ(drain_raw_frames(), 0u);
  EXPECT_EQ(conn->stats().faults_dropped, 3u);
  EXPECT_EQ(conn->stats().frames_sent, 0u);

  // Healing the link restores clean delivery on the same connection.
  injector->configure(FaultInjector::Config{});
  EXPECT_TRUE(conn->send_frame(payload_of(16, 0xEE)));
  pump();
  EXPECT_EQ(drain_raw_frames(), 1u);
}

TEST_F(FaultConnFixture, DropNextEatsExactlyTheScriptedFrames) {
  injector->drop_next(2);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(conn->send_frame(payload_of(8, std::uint8_t(i))));
  }
  pump();
  EXPECT_EQ(drain_raw_frames(), 2u);
  EXPECT_EQ(conn->stats().faults_dropped, 2u);
  EXPECT_EQ(conn->stats().frames_sent, 2u);
}

TEST_F(FaultConnFixture, DelayHoldsFramesUntilTheTimerFires) {
  FaultInjector::Config cfg;
  cfg.delay_usec = 60'000;
  injector->configure(cfg);
  EXPECT_TRUE(conn->send_frame(payload_of(8, 0x42)));
  pump(20);
  EXPECT_EQ(drain_raw_frames(), 0u) << "frame leaked ahead of its delay";
  pump(80);
  EXPECT_EQ(drain_raw_frames(), 1u);
  EXPECT_EQ(conn->stats().faults_delayed, 1u);
}

TEST_F(FaultConnFixture, HealingMidDelayNeverReordersFrames) {
  // A frame parked in a delay timer must not be overtaken by frames
  // sent after the injector is cleared — snapshot assembly depends on
  // in-order chunks, so the healed link keeps the delayed frame's
  // horizon.
  FaultInjector::Config cfg;
  cfg.delay_usec = 60'000;
  injector->configure(cfg);
  EXPECT_TRUE(conn->send_frame(payload_of(8, 0xAA)));  // delayed
  conn->set_fault_injector(nullptr);                   // link heals
  EXPECT_TRUE(conn->send_frame(payload_of(8, 0xBB)));  // must not pass it
  pump(20);
  EXPECT_EQ(drain_raw_frames(), 0u) << "late frame overtook a delayed one";
  pump(100);
  ASSERT_EQ(drain_raw_frames(), 2u);
  // First frame on the wire is the delayed 0xAA, not the healed 0xBB.
  ASSERT_GE(received.size(), 5u);
  EXPECT_EQ(received[4], 0xAA);
}

TEST_F(FaultConnFixture, DuplicationSendsTheFrameTwice) {
  FaultInjector::Config cfg;
  cfg.dup_prob = 1.0;
  injector->configure(cfg);
  EXPECT_TRUE(conn->send_frame(payload_of(8, 0x11)));
  EXPECT_TRUE(conn->send_frame(payload_of(8, 0x22)));
  pump();
  EXPECT_EQ(drain_raw_frames(), 4u);
  EXPECT_EQ(conn->stats().faults_duplicated, 2u);
  // Both copies of each frame, in send order.
  ASSERT_GE(received.size(), 24u);
  EXPECT_EQ(received[4], 0x11);
  EXPECT_EQ(received[16], 0x11);
}

TEST_F(FaultConnFixture, ReorderedFrameIsOvertakenByLaterSends) {
  FaultInjector::Config cfg;
  cfg.reorder_prob = 1.0;
  cfg.reorder_window_usec = 60'000;
  injector->configure(cfg);
  EXPECT_TRUE(conn->send_frame(payload_of(8, 0xAA)));  // jittered
  conn->set_fault_injector(nullptr);                   // link heals
  EXPECT_TRUE(conn->send_frame(payload_of(8, 0xBB)));  // sails past
  pump(150);
  ASSERT_EQ(drain_raw_frames(), 2u);
  // Unlike plain delay (which keeps FIFO), reordering lets the later
  // frame arrive first.
  ASSERT_GE(received.size(), 5u);
  EXPECT_EQ(received[4], 0xBB);
  EXPECT_EQ(conn->stats().faults_reordered, 1u);
}

TEST_F(FaultConnFixture, SlowFactorStretchesTheConfiguredLatency) {
  // Fail-slow link: the same 20ms base latency, multiplied 4x. The
  // frame must still be absent well after the un-stretched deadline.
  FaultInjector::Config cfg;
  cfg.delay_usec = 20'000;
  cfg.slow_factor = 4.0;  // effective 80ms
  injector->configure(cfg);
  EXPECT_TRUE(conn->send_frame(payload_of(8, 0x42)));
  pump(45);
  EXPECT_EQ(drain_raw_frames(), 0u)
      << "frame arrived at 1x speed despite the slow factor";
  pump(100);
  EXPECT_EQ(drain_raw_frames(), 1u);
  EXPECT_EQ(conn->stats().faults_delayed, 1u);
}

TEST_F(FaultConnFixture, CorruptionFlipsBytesOnlyInsideChecksummedFrames) {
  FaultInjector::Config cfg;
  cfg.corrupt_prob = 1.0;
  injector->configure(cfg);

  // A checksummed kind (Gossip) gets a byte flipped inside its content
  // region — header and type byte stay intact, so the frame still
  // parses and dies at the receiver's content-CRC fence instead.
  Gossip gossip;
  gossip.kind = GossipKind::kPing;
  gossip.sequence = 7;
  gossip.target = ServerId{1};
  gossip.updates.push_back({ServerId{2}, MemberState::kSuspect, 3});
  gossip.checksum = wire::content_crc(gossip);
  auto w = begin_frame(wire::Envelope{wire::FrameKind::kOneway, 1, ServerId{0}});
  wire::encode_message(w, Message{gossip});
  const auto clean = wire::finish_frame(std::move(w));
  auto copy = clean;
  EXPECT_TRUE(conn->send_wire_frame(std::move(copy)));
  pump();
  ASSERT_EQ(drain_raw_frames(), 1u);
  EXPECT_EQ(conn->stats().faults_corrupted, 1u);
  ASSERT_EQ(received.size(), clean.size());
  // Header + type byte untouched...
  EXPECT_TRUE(std::equal(clean.begin(), clean.begin() + 23, received.begin()));
  // ...but the content differs somewhere.
  EXPECT_FALSE(std::equal(clean.begin(), clean.end(), received.begin()));

  // A non-checksummed kind passes through byte-identical even with the
  // corrupt fault live: there is no fence to catch the damage, so the
  // injector refuses to create it.
  received.clear();
  auto w2 = begin_frame(wire::Envelope{wire::FrameKind::kOneway, 2, ServerId{0}});
  wire::encode_message(w2, Message{AcceptObjectOk{5}});
  const auto plain = wire::finish_frame(std::move(w2));
  auto copy2 = plain;
  EXPECT_TRUE(conn->send_wire_frame(std::move(copy2)));
  pump();
  ASSERT_EQ(drain_raw_frames(), 1u);
  EXPECT_EQ(conn->stats().faults_corrupted, 1u) << "non-checksummed frame "
                                                   "was mutated";
  ASSERT_EQ(received.size(), plain.size());
  EXPECT_TRUE(std::equal(plain.begin(), plain.end(), received.begin()));
}

// --- End-to-end snapshot pacing over TCP ------------------------------

constexpr unsigned kWidth = 8;

TEST(SnapshotPacing, PacedTransferConvergesThroughDrainCallbacks) {
  // Two nodes, log replication factor 1, and a deliberately tiny pace
  // window (one chunk per burst, pause at 64 queued bytes). The owner's
  // link to the holder is cut while more than a compaction window of
  // puts goes by, so after the heal only a snapshot can repair the
  // holder. It must trickle chunk by chunk, resumed by the connection's
  // drain callback: if the resume path broke, the replica would stall
  // behind the owner forever.
  ClashConfig clash;
  clash.key_width = kWidth;
  clash.initial_depth = 0;
  clash.capacity = 1e9;
  clash.replication_factor = 1;
  clash.replication_mode = ClashConfig::ReplicationMode::kLog;
  clash.log_compact_threshold = 8;  // the cut below outruns this window
  clash.snapshot_chunk_objects = 1;  // one object per chunk

  std::vector<NodeConfig> configs(2);
  std::map<ServerId, Endpoint> members;
  for (std::size_t i = 0; i < 2; ++i) {
    configs[i].id = ServerId{i};
    configs[i].listen = Endpoint{"127.0.0.1", 0};
    configs[i].members[configs[i].id] = configs[i].listen;
    configs[i].clash = clash;
    configs[i].ring_salt = 99;
    // The cut must starve replication, not get the holder declared
    // dead: the ring stays fixed to the seed list.
    configs[i].enable_membership = false;
    configs[i].load_check_interval = std::chrono::milliseconds(25);
    configs[i].snapshot_pace_bytes = 64;
    configs[i].snapshot_burst_chunks = 1;
    auto probe = std::make_unique<ClashNode>(configs[i]);
    probe->start();
    members[ServerId{i}] = Endpoint{"127.0.0.1", probe->port()};
    probe->stop();
    configs[i].listen = members[ServerId{i}];
  }
  for (auto& cfg : configs) cfg.members = members;

  dht::ChordRing ring(
      dht::ChordRing::Config{32, 8, dht::KeyHasher::Algo::kSha1, 99});
  ring.add_server(ServerId{0});
  ring.add_server(ServerId{1});

  std::vector<std::unique_ptr<ClashNode>> nodes;
  const auto entries = compute_bootstrap_entries(ring, ring.hasher(), clash);
  for (std::size_t i = 0; i < 2; ++i) {
    nodes.push_back(std::make_unique<ClashNode>(configs[i]));
    const auto it = entries.find(nodes[i]->id());
    if (it != entries.end()) nodes[i]->install_entries(it->second);
    nodes[i]->start();
  }

  BlockingClient::Config ccfg;
  ccfg.members = members;
  ccfg.ring_salt = 99;
  BlockingClient env(ccfg);
  ClashClient client(clash, env, env.hasher());
  const auto insert = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      AcceptObject obj;
      obj.key = Key((0x37 * (i + 1)) & 0xFF, kWidth);
      obj.kind = ObjectKind::kData;
      obj.source = ClientId{i};
      obj.stream_rate = 1;
      ASSERT_TRUE(client.insert(obj).ok);
    }
  };

  const KeyGroup root = KeyGroup::root(kWidth);
  const auto owner_idx = std::size_t(
      ring.map(ring.hasher().hash_key(root.virtual_key())).value);
  const auto holder_idx = 1 - owner_idx;
  const ServerId holder{holder_idx};
  const auto converged = [&](std::size_t streams) {
    for (int round = 0; round < 400; ++round) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const auto owner_head = nodes[owner_idx]->run_on_loop(
          [&](ClashServer& s) { return s.log_head(root); });
      const auto state = nodes[holder_idx]->run_on_loop([&](ClashServer& s) {
        const GroupState* st = s.replica_state(root);
        return std::make_pair(s.replica_head(root),
                              st != nullptr ? st->streams.size() : 0u);
      });
      if (owner_head.has_value() && state.first == owner_head &&
          state.second == streams) {
        return true;
      }
    }
    return false;
  };
  const auto installs = [&] {
    return nodes[holder_idx]
        ->hub()
        .registry.histogram_snapshot("clash_snapshot_install_usec")
        .count;
  };

  // Caught up by deltas first: compaction alone ships nothing.
  insert(0, 20);
  ASSERT_TRUE(converged(20)) << "delta replication never converged";
  const auto installs_before = installs();

  FaultInjector::Config cut;
  cut.cut = true;
  nodes[owner_idx]->set_link_fault(holder, cut);
  insert(20, 40);
  nodes[owner_idx]->clear_link_fault(holder);

  EXPECT_TRUE(converged(40)) << "paced snapshot transfer never converged";
  // The repair really was a (multi-chunk, paced) snapshot.
  EXPECT_GT(installs(), installs_before);
  // All transfers drained: nothing is stuck behind backpressure.
  EXPECT_TRUE(nodes[owner_idx]->run_on_loop(
      [](ClashServer& s) { return !s.has_pending_snapshots(); }));
  for (auto& node : nodes) node->stop();
}

}  // namespace
}  // namespace clash::net
