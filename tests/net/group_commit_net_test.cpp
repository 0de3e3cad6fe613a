// Group commit over real TCP. Under kPerAppend the puts one loop tick
// reads share one fsync, and no reply leaves before the commit that
// covers its record. Under kInterval no reply leaves before its record
// is written to the segment file. Replies parked for the commit keep
// their connection's order, also for the probe_only reads queued behind
// them.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "clash/bootstrap.hpp"
#include "net/node.hpp"
#include "net/socket.hpp"
#include "storage/backend.hpp"
#include "storage/wal.hpp"
#include "wire/codec.hpp"

namespace clash::net {
namespace {

constexpr unsigned kWidth = 16;
constexpr unsigned kDepth = 2;

/// Read one length-prefixed frame (prefix stripped); empty on EOF,
/// error or the socket's receive timeout.
std::vector<std::uint8_t> read_frame(int fd) {
  auto read_exact = [fd](std::uint8_t* out, std::size_t n) {
    for (std::size_t got = 0; got < n;) {
      const ssize_t r = ::recv(fd, out + got, n - got, 0);
      if (r <= 0) return false;
      got += std::size_t(r);
    }
    return true;
  };
  std::uint8_t prefix[4];
  if (!read_exact(prefix, sizeof(prefix))) return {};
  std::vector<std::uint8_t> frame(wire::load_u32_le(prefix));
  if (!read_exact(frame.data(), frame.size())) return {};
  return frame;
}

std::uint64_t fsyncs(ClashNode& node) {
  return node.run_on_loop([&node](ClashServer&) {
    return node.hub().registry.histogram("clash_wal_fsync_usec").raw()->count();
  });
}

std::uint64_t wal_records(ClashNode& node) {
  return node.run_on_loop([&node](ClashServer&) {
    return node.hub().registry.counter_value("clash_wal_records_total");
  });
}

TEST(GroupCommitNet, PipelinedPutsShareFsyncsAndRepliesStayInOrder) {
  const std::string dir = "/tmp/clash_group_commit_" +
                          std::to_string(::getpid());
  NodeConfig cfg;
  cfg.id = ServerId{0};
  cfg.listen = Endpoint{"127.0.0.1", 0};
  cfg.members[cfg.id] = cfg.listen;
  cfg.clash.key_width = kWidth;
  cfg.clash.initial_depth = kDepth;
  cfg.clash.capacity = 1e9;  // no load-driven splits
  cfg.clash.durability_mode = ClashConfig::DurabilityMode::kWalSnapshot;
  cfg.clash.fsync_policy = ClashConfig::FsyncPolicy::kPerAppend;
  cfg.storage_dir = dir;
  cfg.enable_membership = false;
  cfg.load_check_interval = std::chrono::hours(1);

  ClashNode node(cfg);
  dht::ChordRing ring(dht::ChordRing::Config{
      32, cfg.virtual_servers, cfg.hash_algo, cfg.ring_salt});
  ring.add_server(cfg.id);
  const auto entries = compute_bootstrap_entries(ring, ring.hasher(), cfg.clash);
  ASSERT_EQ(entries.count(cfg.id), 1u);
  node.install_entries(entries.at(cfg.id));
  node.start();

  // 32 puts of fresh sources, a probe_only read after every second
  // one, all written to one connection in a single send.
  constexpr std::uint64_t kPuts = 32;
  std::vector<std::uint8_t> batch;
  std::vector<bool> is_put;
  for (std::uint64_t i = 0; i < kPuts; ++i) {
    for (const bool probe : {false, true}) {
      if (probe && i % 2 == 0) continue;
      AcceptObject obj;
      obj.key = Key((0x0731 * (i + 1)) & 0xFFFF, kWidth);
      obj.depth = kDepth;
      obj.kind = ObjectKind::kData;
      obj.source = ClientId{probe ? 1000 + i : i};
      obj.stream_rate = 1;
      obj.probe_only = probe;
      auto w = wire::begin_frame(wire::Envelope{
          wire::FrameKind::kRequest, is_put.size() + 1, ServerId{}});
      wire::encode_message(w, Message(obj));
      const auto frame = wire::finish_frame(std::move(w));
      batch.insert(batch.end(), frame.begin(), frame.end());
      is_put.push_back(!probe);
    }
  }

  const std::uint64_t fsyncs_before = fsyncs(node);
  const std::uint64_t records_before = wal_records(node);
  auto fd = connect_tcp(Endpoint{"127.0.0.1", node.port()});
  ASSERT_TRUE(fd.ok());
  const int sock = fd.value().get();
  timeval timeout{5, 0};
  ASSERT_EQ(::setsockopt(sock, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  ASSERT_EQ(::send(sock, batch.data(), batch.size(), MSG_NOSIGNAL),
            ssize_t(batch.size()));

  for (std::uint64_t id = 1; id <= is_put.size(); ++id) {
    const auto frame = read_frame(sock);
    ASSERT_FALSE(frame.empty()) << "reply " << id << " never arrived";
    const auto decoded = wire::decode_frame(frame);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().envelope.kind, wire::FrameKind::kResponse);
    ASSERT_EQ(decoded.value().envelope.request_id, id) << "reply out of order";
    const auto reply = wire::decode_reply(decoded.value().payload);
    ASSERT_TRUE(reply.ok());
    EXPECT_TRUE(std::holds_alternative<AcceptObjectOk>(reply.value()))
        << "request " << id << (is_put[id - 1] ? " (put)" : " (probe)");
  }

  const std::uint64_t fsync_delta = fsyncs(node) - fsyncs_before;
  EXPECT_GE(fsync_delta, 1u);
  EXPECT_LT(fsync_delta, kPuts) << "puts read in one tick share an fsync";
  EXPECT_EQ(wal_records(node) - records_before, kPuts);
  node.stop();
  std::filesystem::remove_all(dir);
}

/// The sources of the stream-put records in the WAL segment files under
/// `dir` as they are now (a record still being written is skipped).
std::set<std::uint64_t> logged_sources(const std::string& dir) {
  storage::FileBackend files(dir);
  std::set<std::uint64_t> out;
  for (const auto& path : files.list("wal")) {
    std::vector<std::uint8_t> bytes;
    if (!files.read_file(path, bytes)) continue;
    (void)storage::scan_wal_segment(bytes, [&out](const storage::WalRecord& r) {
      if (r.kind == storage::RecordKind::kOp &&
          r.op.kind == repl::OpKind::kPutStream) {
        out.insert(r.op.stream.source.value);
      }
    });
  }
  return out;
}

TEST(GroupCommitNet, IntervalRepliesLeaveOnlyAfterTheirRecordsAreWritten) {
  const std::string dir = "/tmp/clash_group_commit_interval_" +
                          std::to_string(::getpid());
  NodeConfig cfg;
  cfg.id = ServerId{0};
  cfg.listen = Endpoint{"127.0.0.1", 0};
  cfg.members[cfg.id] = cfg.listen;
  cfg.clash.key_width = kWidth;
  cfg.clash.initial_depth = kDepth;
  cfg.clash.capacity = 1e9;  // no load-driven splits
  cfg.clash.durability_mode = ClashConfig::DurabilityMode::kWalSnapshot;
  cfg.clash.fsync_policy = ClashConfig::FsyncPolicy::kInterval;
  cfg.storage_dir = dir;
  cfg.enable_membership = false;
  cfg.load_check_interval = std::chrono::hours(1);

  ClashNode node(cfg);
  dht::ChordRing ring(dht::ChordRing::Config{
      32, cfg.virtual_servers, cfg.hash_algo, cfg.ring_salt});
  ring.add_server(cfg.id);
  const auto entries =
      compute_bootstrap_entries(ring, ring.hasher(), cfg.clash);
  ASSERT_EQ(entries.count(cfg.id), 1u);
  node.install_entries(entries.at(cfg.id));
  node.start();

  // A probe_only read first, so the connection's flush is deferred
  // ahead of the tick's commit (only parking holds the put replies back
  // then); then puts of fresh sources, a probe after every second one,
  // all in a single send.
  constexpr std::uint64_t kPuts = 32;
  std::vector<std::uint8_t> batch;
  std::vector<std::uint64_t> put_source;  // per request; 0 for a probe
  auto add = [&](std::uint64_t source, bool probe) {
    AcceptObject obj;
    obj.key = Key((0x0731 * (source + 1)) & 0xFFFF, kWidth);
    obj.depth = kDepth;
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{source};
    obj.stream_rate = 1;
    obj.probe_only = probe;
    auto w = wire::begin_frame(wire::Envelope{
        wire::FrameKind::kRequest, put_source.size() + 1, ServerId{}});
    wire::encode_message(w, Message(obj));
    const auto frame = wire::finish_frame(std::move(w));
    batch.insert(batch.end(), frame.begin(), frame.end());
    put_source.push_back(probe ? 0 : source);
  };
  add(5000, true);
  for (std::uint64_t i = 1; i <= kPuts; ++i) {
    add(i, false);
    if (i % 2 == 0) add(1000 + i, true);
  }

  const std::uint64_t records_before = wal_records(node);
  auto fd = connect_tcp(Endpoint{"127.0.0.1", node.port()});
  ASSERT_TRUE(fd.ok());
  const int sock = fd.value().get();
  timeval timeout{5, 0};
  ASSERT_EQ(::setsockopt(sock, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  ASSERT_EQ(::send(sock, batch.data(), batch.size(), MSG_NOSIGNAL),
            ssize_t(batch.size()));

  for (std::uint64_t id = 1; id <= put_source.size(); ++id) {
    const auto frame = read_frame(sock);
    ASSERT_FALSE(frame.empty()) << "reply " << id << " never arrived";
    const auto decoded = wire::decode_frame(frame);
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.value().envelope.request_id, id) << "reply out of order";
    const auto reply = wire::decode_reply(decoded.value().payload);
    ASSERT_TRUE(reply.ok());
    EXPECT_TRUE(std::holds_alternative<AcceptObjectOk>(reply.value()));
    const std::uint64_t source = put_source[id - 1];
    if (source == 0) continue;
    EXPECT_EQ(logged_sources(dir).count(source), 1u)
        << "the reply to put " << id << " left before its record was written";
  }
  EXPECT_EQ(wal_records(node) - records_before, kPuts);
  node.stop();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace clash::net
