// Framing behaviour of the non-blocking Connection over a real socket
// pair: reassembly of fragmented frames (split at every possible read
// boundary, including inside the length header), batching, sendmsg
// coalescing, send-side oversize rejection, slow-reader backpressure
// with EPOLLOUT re-arming, close notification, and writes to a closed
// peer under the default SIGPIPE disposition.
#include "net/connection.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <string_view>

#include "obs/hub.hpp"
#include "wire/buffer.hpp"
#include "wire/codec.hpp"

namespace clash::net {
namespace {

struct ConnFixture : ::testing::Test {
  void SetUp() override {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    raw_peer = fds[1];
    conn = Connection::adopt(
        loop, Fd(fds[0]),
        [this](std::span<const std::uint8_t> frame) {
          frames.emplace_back(frame.begin(), frame.end());
        },
        [this] { closed = true; });
    conn->set_obs(&hub);
  }

  /// A transport volume the connection counted into the hub.
  [[nodiscard]] std::uint64_t count(std::string_view series) const {
    return hub.registry.counter_value(series);
  }

  void TearDown() override {
    if (raw_peer >= 0) ::close(raw_peer);
  }

  /// Drive the loop until it goes idle.
  void pump(int ms = 50) {
    CLASH_ASSERT_ON_LOOP(loop);  // idle between run()s: we hold affinity
    loop.call_after(std::chrono::milliseconds(ms), [this] { loop.stop(); });
    loop.run();
  }

  void send_raw(const void* data, std::size_t n) {
    ASSERT_EQ(::write(raw_peer, data, n), ssize_t(n));
  }

  obs::Hub hub;  // outlives the connection that counts into it
  EventLoop loop;
  std::shared_ptr<Connection> conn;
  int raw_peer = -1;
  std::vector<std::vector<std::uint8_t>> frames;
  bool closed = false;
};

std::vector<std::uint8_t> frame_bytes(const std::string& payload) {
  std::vector<std::uint8_t> out(4 + payload.size());
  wire::store_u32_le(out.data(), std::uint32_t(payload.size()));
  std::memcpy(out.data() + 4, payload.data(), payload.size());
  return out;
}

TEST_F(ConnFixture, ReceivesWholeFrame) {
  const auto bytes = frame_bytes("hello");
  send_raw(bytes.data(), bytes.size());
  pump();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(std::string(frames[0].begin(), frames[0].end()), "hello");
}

TEST_F(ConnFixture, ReassemblesFragmentedFrame) {
  const auto bytes = frame_bytes("fragmented payload");
  // Dribble the frame one byte at a time.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    send_raw(bytes.data() + i, 1);
    pump(5);
  }
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(std::string(frames[0].begin(), frames[0].end()),
            "fragmented payload");
}

TEST_F(ConnFixture, SplitsBatchedFrames) {
  auto a = frame_bytes("first");
  const auto b = frame_bytes("second");
  a.insert(a.end(), b.begin(), b.end());
  send_raw(a.data(), a.size());
  pump();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(std::string(frames[0].begin(), frames[0].end()), "first");
  EXPECT_EQ(std::string(frames[1].begin(), frames[1].end()), "second");
}

TEST_F(ConnFixture, OversizedFrameClosesConnection) {
  const std::uint32_t huge = Connection::kMaxFrame + 1;
  send_raw(&huge, 4);
  pump();
  EXPECT_TRUE(closed);
  EXPECT_TRUE(conn->closed());
  EXPECT_TRUE(frames.empty());
}

TEST_F(ConnFixture, PeerShutdownNotifies) {
  ::close(raw_peer);
  raw_peer = -1;
  pump();
  EXPECT_TRUE(closed);
}

TEST_F(ConnFixture, FlushToClosedPeerSurvivesDefaultSigpipe) {
  // An embedder that never touches SIGPIPE: a flush into a socket whose
  // peer stopped reading must fail with EPIPE and close the connection,
  // not kill the process. (Shutting down only the peer's read side
  // keeps our reader from seeing EOF first, so the write path is what
  // notices.)
  const auto previous = std::signal(SIGPIPE, SIG_DFL);
  ASSERT_EQ(::shutdown(raw_peer, SHUT_RD), 0);
  const std::string payload = "into the void";
  EXPECT_TRUE(conn->send_frame(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(payload.data()),
      payload.size())));
  pump();
  std::signal(SIGPIPE, previous);
  EXPECT_TRUE(closed);
  EXPECT_EQ(count("clash_net_flush_syscalls_total"), 1u);
}

TEST_F(ConnFixture, SendFrameRoundTrip) {
  const std::string payload = "pong";
  ASSERT_TRUE(loop.post([&] {
    conn->send_frame(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(payload.data()),
        payload.size()));
  }));
  pump();
  std::uint8_t buf[64];
  const auto n = ::read(raw_peer, buf, sizeof(buf));
  ASSERT_EQ(n, 8);  // 4-byte prefix + 4 bytes
  const std::uint32_t len = wire::load_u32_le(buf);
  EXPECT_EQ(len, 4u);
  EXPECT_EQ(std::string(buf + 4, buf + 8), "pong");
}

TEST_F(ConnFixture, LargeFrameRoundTrip) {
  // Larger than one read() chunk (64 KiB) to exercise buffered reads.
  std::string big(100'000, 'x');
  const auto bytes = frame_bytes(big);
  send_raw(bytes.data(), bytes.size());
  pump();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].size(), big.size());
}

// A batch of frames must reassemble identically no matter where the
// byte stream is cut — including splits inside a 4-byte length header
// and across frame boundaries.
TEST(ConnFraming, ReassemblesAcrossEverySplitPoint) {
  std::vector<std::uint8_t> stream;
  const std::vector<std::string> payloads = {"a", "four", "longer payload"};
  for (const auto& p : payloads) {
    const auto f = frame_bytes(p);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  for (std::size_t split = 1; split < stream.size(); ++split) {
    obs::Hub hub;
    EventLoop loop;
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::vector<std::string> got;
    auto conn = Connection::adopt(
        loop, Fd(fds[0]),
        [&](std::span<const std::uint8_t> frame) {
          got.emplace_back(frame.begin(), frame.end());
        },
        [] {});
    ASSERT_EQ(::write(fds[1], stream.data(), split), ssize_t(split));
    CLASH_ASSERT_ON_LOOP(loop);  // loop not started yet
    conn->set_obs(&hub);
    loop.call_after(std::chrono::milliseconds(5), [&] {
      ASSERT_EQ(::write(fds[1], stream.data() + split, stream.size() - split),
                ssize_t(stream.size() - split));
    });
    loop.call_after(std::chrono::milliseconds(25), [&] { loop.stop(); });
    loop.run();
    ASSERT_EQ(got.size(), payloads.size()) << "split at " << split;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      EXPECT_EQ(got[i], payloads[i]) << "split at " << split;
    }
    EXPECT_EQ(hub.registry.counter_value("clash_net_frames_received_total"),
              payloads.size());
    ::close(fds[1]);
  }
}

TEST_F(ConnFixture, CoalescesTickBatchIntoOneWritev) {
  // All frames queued during one loop tick must leave in one syscall.
  constexpr std::size_t kFrames = 100;
  const std::string payload = "gossip-sized frame";
  ASSERT_TRUE(loop.post([&] {
    for (std::size_t i = 0; i < kFrames; ++i) {
      ASSERT_TRUE(conn->send_frame(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(payload.data()),
          payload.size())));
    }
  }));
  pump();
  EXPECT_EQ(count("clash_net_frames_sent_total"), kFrames);
  // 100 frames > kMaxIov (64): two sendmsg calls, not one hundred writes.
  EXPECT_LE(count("clash_net_flush_syscalls_total"), 2u);
  std::vector<std::uint8_t> received(kFrames * (4 + payload.size()));
  std::size_t got = 0;
  while (got < received.size()) {
    const auto n = ::read(raw_peer, received.data() + got,
                          received.size() - got);
    ASSERT_GT(n, 0);
    got += std::size_t(n);
  }
  for (std::size_t i = 0; i < kFrames; ++i) {
    const auto* p = received.data() + i * (4 + payload.size());
    EXPECT_EQ(wire::load_u32_le(p), payload.size());
  }
}

TEST_F(ConnFixture, OversizedSendRejectedAtSender) {
  const std::vector<std::uint8_t> huge(Connection::kMaxFrame + 1, 0);
  bool accepted = true;
  ASSERT_TRUE(loop.post([&] { accepted = conn->send_frame(huge); }));
  pump(10);
  EXPECT_FALSE(accepted);
  EXPECT_EQ(conn->stats().send_oversized, 1u);
  EXPECT_EQ(count("clash_net_frames_sent_total"), 0u);
  EXPECT_FALSE(conn->closed());
  // Nothing went out on the wire.
  std::uint8_t buf[16];
  EXPECT_EQ(::recv(raw_peer, buf, sizeof(buf), MSG_DONTWAIT), -1);
}

TEST_F(ConnFixture, SendWireFrameIsFramedCorrectly) {
  auto w = wire::begin_frame(
      wire::Envelope{wire::FrameKind::kOneway, 7, ServerId{42}});
  w.str("payload");
  ASSERT_TRUE(
      loop.post([&] { conn->send_wire_frame(wire::finish_frame(std::move(w))); }));
  pump();
  std::uint8_t buf[128];
  const auto n = ::read(raw_peer, buf, sizeof(buf));
  ASSERT_GT(n, 4);
  const std::uint32_t len = wire::load_u32_le(buf);
  ASSERT_EQ(len, std::size_t(n) - 4);
  const auto decoded =
      wire::decode_frame(std::span<const std::uint8_t>(buf + 4, len));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().envelope.kind, wire::FrameKind::kOneway);
  EXPECT_EQ(decoded.value().envelope.request_id, 7u);
  EXPECT_EQ(decoded.value().envelope.sender.value, 42u);
}

TEST_F(ConnFixture, MalformedWireFrameDropped) {
  std::vector<std::uint8_t> bogus(16, 0xFF);  // prefix disagrees with size
  bool accepted = true;
  ASSERT_TRUE(
      loop.post([&] { accepted = conn->send_wire_frame(std::move(bogus)); }));
  pump(10);
  EXPECT_FALSE(accepted);
  EXPECT_EQ(count("clash_net_frames_sent_total"), 0u);
}

TEST_F(ConnFixture, SlowReaderBackpressureReArmsEpollout) {
  // Shrink both socket buffers so the kernel accepts only part of the
  // queue, forcing partial sendmsg progress and EPOLLOUT re-arming.
  const int small = 4096;
  ASSERT_EQ(::setsockopt(conn->fd(), SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);
  ASSERT_EQ(::setsockopt(raw_peer, SOL_SOCKET, SO_RCVBUF, &small,
                         sizeof(small)),
            0);
  constexpr std::size_t kFrames = 40;
  const std::vector<std::uint8_t> payload(64 * 1024, 0x5A);
  ASSERT_TRUE(loop.post([&] {
    for (std::size_t i = 0; i < kFrames; ++i) {
      ASSERT_TRUE(conn->send_frame(payload));
    }
  }));
  pump(20);
  // The reader hasn't consumed a byte: most of the queue must still be
  // buffered, and the connection must be alive awaiting EPOLLOUT.
  // (The loop is parked between pumps, so reading from this thread is
  // safe.)
  EXPECT_FALSE(conn->closed());
  EXPECT_GT(conn->send_queue_bytes(), 0u);

  // Drain slowly; every pump gives the loop a chance to continue the
  // flush from where the partial sendmsg stopped.
  const std::size_t total = kFrames * (4 + payload.size());
  std::vector<std::uint8_t> sink(256 * 1024);
  std::size_t got = 0;
  for (int rounds = 0; got < total && rounds < 2000; ++rounds) {
    const auto n = ::recv(raw_peer, sink.data(), sink.size(), MSG_DONTWAIT);
    if (n > 0) {
      got += std::size_t(n);
    } else {
      pump(2);
    }
  }
  EXPECT_EQ(got, total);
  EXPECT_EQ(conn->send_queue_bytes(), 0u);
  EXPECT_FALSE(conn->closed());
  EXPECT_EQ(count("clash_net_bytes_sent_total"), total);
}

}  // namespace
}  // namespace clash::net
