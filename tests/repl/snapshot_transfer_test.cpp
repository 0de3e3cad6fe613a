// Regression coverage for the snapshot-transfer bugs the link-fault
// layer exposed, driven as exact frame sequences — each test plays the
// messages a faulty link produces (duplicated offers, a lost chunk
// with late re-delivery, a retransmitted stream) into a bare receiver
// and asserts the assembly survives. All three failed before the
// fixes:
//   1. a duplicate/competing SnapshotOffer mid-transfer overwrote
//      rec.pending and discarded every received chunk;
//   2. an out-of-sync chunk reset the assembly silently, leaving the
//      sender streaming a dead transfer until the next anti-entropy
//      round;
//   3. a re-delivered stream overwrote its map entry but its rate
//      accumulated twice.
#include <gtest/gtest.h>

#include <memory>

#include "clash/server.hpp"
#include "tests/clash/test_util.hpp"

namespace clash {
namespace {

constexpr unsigned kWidth = 8;

ClashConfig log_config() {
  ClashConfig cfg;
  cfg.key_width = kWidth;
  cfg.initial_depth = 0;
  cfg.capacity = 1e9;
  cfg.replication_factor = 2;
  cfg.snapshot_chunk_objects = 2;
  return cfg;
}

/// A bare replica holder: no active groups, so offers are accepted,
/// and every outbound message (acks, nacks) lands in env.sent.
struct Holder {
  Holder()
      : server(ServerId{9}, log_config(), env,
               dht::KeyHasher(32, dht::KeyHasher::Algo::kMix64, 0)) {}

  void deliver(const Message& msg) { server.deliver(ServerId{0}, msg); }

  [[nodiscard]] std::size_t nacks() const {
    std::size_t n = 0;
    for (const auto& [to, msg] : env.sent) {
      if (const auto* ack = std::get_if<ReplAck>(&msg); ack && !ack->ok) ++n;
    }
    return n;
  }

  testing::MockServerEnv env;
  ClashServer server;
};

SnapshotOffer make_offer(const KeyGroup& group, repl::LogHead head,
                         std::uint32_t total) {
  SnapshotOffer offer;
  offer.group = group;
  offer.owner = ServerId{0};
  offer.head = head;
  offer.root = true;
  offer.total_chunks = total;
  return offer;
}

SnapshotChunk make_chunk(const KeyGroup& group, repl::LogHead head,
                         std::uint32_t index, std::uint32_t total,
                         std::vector<StreamInfo> streams,
                         std::vector<QueryInfo> queries = {}) {
  SnapshotChunk chunk;
  chunk.group = group;
  chunk.head = head;
  chunk.index = index;
  chunk.total = total;
  chunk.streams = std::move(streams);
  chunk.queries = std::move(queries);
  return chunk;
}

StreamInfo stream(std::uint64_t source, std::uint64_t key, double rate) {
  return StreamInfo{ClientId{source}, Key(key, kWidth), rate};
}

TEST(SnapshotTransfer, DuplicateOfferMidTransferDoesNotDiscardChunks) {
  Holder holder;
  const KeyGroup root = KeyGroup::root(kWidth);
  const repl::LogHead head{1, 5};

  holder.deliver(Message(make_offer(root, head, 2)));
  holder.deliver(Message(make_chunk(root, head, 0, 2,
                                    {stream(1, 0x11, 2.0)})));
  // The link re-delivers the offer (or a competing holder repeats it)
  // while chunk 1 is still in flight: the assembly must keep its
  // cursor — pre-fix this overwrote rec.pending and desynced the
  // stream, losing both chunks.
  holder.deliver(Message(make_offer(root, head, 2)));
  holder.deliver(Message(make_chunk(root, head, 1, 2,
                                    {stream(2, 0x22, 1.0)},
                                    {QueryInfo{QueryId{7}, Key(0x33, kWidth)}})));

  EXPECT_EQ(holder.server.stats().snapshot_offers_ignored, 1u);
  ASSERT_EQ(holder.server.replica_head(root), head);
  const GroupState* st = holder.server.replica_state(root);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->streams.size(), 2u);
  EXPECT_EQ(st->queries.size(), 1u);
  EXPECT_EQ(holder.nacks(), 0u);
}

TEST(SnapshotTransfer, StrictlyNewerOfferPreemptsTheAssembly) {
  Holder holder;
  const KeyGroup root = KeyGroup::root(kWidth);
  const repl::LogHead old_head{1, 5};
  const repl::LogHead new_head{2, 1};

  holder.deliver(Message(make_offer(root, old_head, 2)));
  holder.deliver(Message(make_chunk(root, old_head, 0, 2,
                                    {stream(1, 0x11, 2.0)})));
  // A fresher snapshot (bumped epoch) supersedes the one in flight.
  holder.deliver(Message(make_offer(root, new_head, 1)));
  holder.deliver(Message(make_chunk(root, new_head, 0, 1,
                                    {stream(9, 0x44, 4.0)})));

  ASSERT_EQ(holder.server.replica_head(root), new_head);
  const GroupState* st = holder.server.replica_state(root);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->streams.size(), 1u);
  EXPECT_DOUBLE_EQ(st->stream_rate, 4.0);
}

TEST(SnapshotTransfer, LostChunkNacksOnceAndAcceptsTheRestart) {
  Holder holder;
  const KeyGroup root = KeyGroup::root(kWidth);
  const repl::LogHead head{1, 6};

  holder.deliver(Message(make_offer(root, head, 3)));
  holder.deliver(Message(make_chunk(root, head, 0, 3,
                                    {stream(1, 0x11, 1.0)})));
  // Chunk 1 never arrives (the link ate it); chunk 2 exposes the gap.
  // Pre-fix the assembly died silently and the sender kept streaming a
  // dead transfer; now the holder must nack immediately so the sender
  // restarts without waiting out an anti-entropy period.
  holder.deliver(Message(make_chunk(root, head, 2, 3,
                                    {stream(3, 0x33, 1.0)})));
  EXPECT_EQ(holder.nacks(), 1u);
  EXPECT_EQ(holder.server.stats().snapshot_aborts, 1u);

  // The lost chunk shows up late (delayed, not dropped): remnants of
  // an already-nacked stream must stay silent — one nack per failed
  // transfer, not one per stale chunk.
  holder.deliver(Message(make_chunk(root, head, 1, 3,
                                    {stream(2, 0x22, 1.0)})));
  EXPECT_EQ(holder.nacks(), 1u);

  // The sender restarts the transfer from scratch; it must be
  // accepted even though its head equals the nacked one.
  holder.deliver(Message(make_offer(root, head, 3)));
  holder.deliver(Message(make_chunk(root, head, 0, 3,
                                    {stream(1, 0x11, 1.0)})));
  holder.deliver(Message(make_chunk(root, head, 1, 3,
                                    {stream(2, 0x22, 1.0)})));
  holder.deliver(Message(make_chunk(root, head, 2, 3,
                                    {stream(3, 0x33, 1.0)})));
  ASSERT_EQ(holder.server.replica_head(root), head);
  EXPECT_EQ(holder.server.replica_state(root)->streams.size(), 3u);
}

TEST(SnapshotTransfer, RedeliveredStreamDoesNotDoubleCountItsRate) {
  Holder holder;
  const KeyGroup root = KeyGroup::root(kWidth);
  const repl::LogHead head{1, 4};

  holder.deliver(Message(make_offer(root, head, 2)));
  holder.deliver(Message(make_chunk(root, head, 0, 2,
                                    {stream(1, 0x11, 2.0)})));
  // A retransmission re-delivers stream 1 in the second chunk (the
  // restarted sender cut its chunks differently). The map entry is
  // replaced; pre-fix the rate accumulated anyway.
  holder.deliver(Message(make_chunk(root, head, 1, 2,
                                    {stream(1, 0x11, 2.0),
                                     stream(2, 0x22, 1.0)})));

  ASSERT_EQ(holder.server.replica_head(root), head);
  const GroupState* st = holder.server.replica_state(root);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->streams.size(), 2u);
  EXPECT_DOUBLE_EQ(st->stream_rate, 3.0);
}

TEST(SnapshotTransfer, AppendGapDuringAssemblyStaysQuiet) {
  // Over paced TCP a long snapshot transfer overlaps routine
  // ReplAppends whose base the holder does not have yet. Nacking those
  // would make the sender cancel and restart the very transfer that is
  // about to fix the gap — so while an assembly is pending, a gapped
  // append must be dropped silently.
  Holder holder;
  const KeyGroup root = KeyGroup::root(kWidth);
  const repl::LogHead head{3, 10};

  holder.deliver(Message(make_offer(root, head, 2)));
  holder.deliver(Message(make_chunk(root, head, 0, 2,
                                    {stream(1, 0x11, 1.0)})));
  ReplAppend append;
  append.group = root;
  append.owner = ServerId{0};
  append.epoch = 3;
  append.base_seq = 10;  // far beyond the holder's (0,0) log
  append.entries.push_back(repl::LogOp::put_stream(stream(4, 0x44, 1.0)));
  holder.deliver(Message(append));
  EXPECT_EQ(holder.nacks(), 0u) << "append gap nacked mid-assembly";

  // The transfer completes and re-anchors the log at the offer head.
  holder.deliver(Message(make_chunk(root, head, 1, 2,
                                    {stream(2, 0x22, 1.0)})));
  EXPECT_EQ(holder.server.replica_head(root), head);

  // With no assembly in flight the same gap nacks as before.
  append.base_seq = 20;
  holder.deliver(Message(append));
  EXPECT_EQ(holder.nacks(), 1u);
}

TEST(SnapshotTransfer, DuplicatedAppliedChunkIsIdempotent) {
  Holder holder;
  const KeyGroup root = KeyGroup::root(kWidth);
  const repl::LogHead head{1, 4};

  holder.deliver(Message(make_offer(root, head, 2)));
  holder.deliver(Message(make_chunk(root, head, 0, 2,
                                    {stream(1, 0x11, 2.0)})));
  // The link duplicates the frame just applied: ignore, don't abort.
  holder.deliver(Message(make_chunk(root, head, 0, 2,
                                    {stream(1, 0x11, 2.0)})));
  holder.deliver(Message(make_chunk(root, head, 1, 2,
                                    {stream(2, 0x22, 1.0)})));

  ASSERT_EQ(holder.server.replica_head(root), head);
  EXPECT_DOUBLE_EQ(holder.server.replica_state(root)->stream_rate, 3.0);
  EXPECT_EQ(holder.nacks(), 0u);
}

}  // namespace
}  // namespace clash
