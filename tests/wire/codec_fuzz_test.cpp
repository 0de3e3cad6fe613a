// Fuzz-style codec robustness: for a representative message of every
// wire MsgType, every single-byte flip of the encoding and every
// truncation must either decode-fail cleanly or produce a value that
// re-encodes without incident — never crash, hang, or over-read
// (ASan/UBSan in CI turn any such slip into a hard failure). This is
// the floor under the corrupt fault mode: whatever the network does to
// a frame, the worst outcome is a rejected message.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "repl/log.hpp"
#include "storage/snapshot.hpp"
#include "storage/wal.hpp"
#include "wire/codec.hpp"

namespace clash::wire {
namespace {

std::vector<Message> representative_messages() {
  const KeyGroup g = KeyGroup::parse("0110*", 24).value();
  const repl::LogHead head{7, 123};
  std::vector<Message> all;

  AcceptObject obj;
  obj.key = Key(0xABCDEF, 24);
  obj.depth = 9;
  obj.kind = ObjectKind::kQuery;
  obj.query_id = QueryId{424242};
  obj.scope_depth = 5;
  obj.predicates = {{0, cq::Predicate::Op::kGt, 10},
                    {2, cq::Predicate::Op::kNe, -3}};
  obj.stream_rate = 2.5;
  obj.source = ClientId{99};
  obj.trace_id = 0xFEEDFACE12345678ULL;
  all.emplace_back(obj);

  all.emplace_back(AcceptObjectOk{5});
  all.emplace_back(IncorrectDepth{4});

  AcceptKeyGroup akg;
  akg.group = g;
  akg.parent = ServerId{7};
  akg.root = true;
  akg.epoch = 17;
  akg.streams.push_back({ClientId{1}, Key(0x600000, 24), 1.5});
  akg.queries.push_back({QueryId{10}, Key(0x620000, 24)});
  akg.queries.push_back(QueryInfo(QueryId{11}, Key(0x620000, 24), 3,
                                  {{1, cq::Predicate::Op::kLe, 4}}));
  all.emplace_back(akg);

  all.emplace_back(AcceptKeyGroupAck{g});
  all.emplace_back(LoadReport{g, 123.5, true});
  all.emplace_back(ReclaimKeyGroup{g});

  ReclaimAck rack;
  rack.group = g;
  rack.streams.push_back({ClientId{3}, Key(0x680000, 24), 0.5});
  all.emplace_back(rack);

  all.emplace_back(ReclaimRefused{g});

  all.emplace_back(DropReplica{g});

  Gossip gossip;
  gossip.kind = GossipKind::kPing;
  gossip.sequence = 41;
  gossip.target = ServerId{6};
  gossip.updates.push_back({ServerId{2}, MemberState::kSuspect, 3});
  gossip.updates.push_back({ServerId{4}, MemberState::kDead, 9});
  NodeCensusRecord census_rec;
  census_rec.node = ServerId{4};
  census_rec.incarnation = 9;
  census_rec.seq = 3;
  census_rec.load = 77.5;
  census_rec.active_groups = 2;
  census_rec.queries = 5;
  census_rec.totals.bytes_served = 512;
  census_rec.top_groups.push_back({g, GroupCost{1, 2, 3, 4, 5}});
  census_rec.checksum = census_record_crc(census_rec);
  gossip.census.push_back(census_rec);
  all.emplace_back(gossip);

  ReplAppend app;
  app.group = g;
  app.owner = ServerId{3};
  app.epoch = 5;
  app.base_seq = 41;
  app.trace_id = 0xABCDEF99ULL;
  app.entries.push_back(
      repl::LogOp::put_stream({ClientId{9}, Key(0x601234, 24), 2.5}));
  app.entries.push_back(
      repl::LogOp::put_query(QueryInfo{QueryId{44}, Key(0x60AAAA, 24)}));
  app.entries.push_back(repl::LogOp::put_query(
      QueryInfo(QueryId{45}, Key(0x60AAAA, 24), 6,
                {{0, cq::Predicate::Op::kEq, 7}})));
  all.emplace_back(app);

  all.emplace_back(ReplAck{g, head, false});

  SnapshotOffer offer;
  offer.group = g;
  offer.owner = ServerId{2};
  offer.head = head;
  offer.root = true;
  offer.parent = ServerId{6};
  offer.total_chunks = 3;
  offer.trace_id = 0x1111222233334444ULL;
  all.emplace_back(offer);

  SnapshotChunk chunk;
  chunk.group = g;
  chunk.head = head;
  chunk.index = 1;
  chunk.total = 3;
  chunk.trace_id = 0x1111222233334444ULL;
  chunk.streams.push_back({ClientId{5}, Key(0x601234, 24), 4.5});
  chunk.queries.push_back({QueryId{77}, Key(0x609999, 24)});
  chunk.queries.push_back(QueryInfo(QueryId{78}, Key(0x609999, 24), 2,
                                    {{3, cq::Predicate::Op::kGe, -9}}));
  all.emplace_back(chunk);

  AntiEntropyProbe probe;
  probe.owner = ServerId{2};
  probe.heads.push_back({g, head});
  all.emplace_back(probe);

  AntiEntropyDiff diff;
  diff.behind.push_back({g, repl::LogHead{}});
  all.emplace_back(diff);

  return all;
}

std::vector<std::uint8_t> encode(const Message& msg) {
  Writer w;
  encode_message(w, msg);
  return w.take();
}

/// A decoded value (however it was obtained) must survive a re-encode
/// and a second decode — the codec never emits something it cannot
/// itself parse.
void expect_reencodable(const Message& msg) {
  const auto bytes = encode(msg);
  EXPECT_TRUE(decode_message(bytes).ok());
}

TEST(CodecFuzz, EveryMessageTypeIsCovered) {
  // The representative set must track the MsgType enum: a new wire
  // type without fuzz coverage fails here, not in production.
  const auto all = representative_messages();
  EXPECT_EQ(all.size(), std::variant_size_v<Message>)
      << "add new MsgType representatives here";
}

TEST(CodecFuzz, SingleByteFlipsNeverCrashTheDecoder) {
  Rng rng(0xF1155EED);
  for (const auto& msg : representative_messages()) {
    const auto clean = encode(msg);
    for (std::size_t pos = 0; pos < clean.size(); ++pos) {
      // Three flip patterns per position: low bit, high bit, random.
      for (const std::uint8_t flip :
           {std::uint8_t(0x01), std::uint8_t(0x80),
            std::uint8_t(1 + rng.below(255))}) {
        auto mutated = clean;
        mutated[pos] ^= flip;
        const auto decoded = decode_message(mutated);
        if (decoded.ok()) expect_reencodable(decoded.value());
      }
    }
  }
}

TEST(CodecFuzz, EveryTruncationFailsCleanly) {
  for (const auto& msg : representative_messages()) {
    const auto clean = encode(msg);
    for (std::size_t len = 0; len < clean.size(); ++len) {
      const auto decoded =
          decode_message(std::span(clean.data(), len));
      // Prefixes of variable-length encodings may occasionally parse
      // (a shorter valid message); they must then re-encode cleanly.
      if (decoded.ok()) expect_reencodable(decoded.value());
    }
  }
}

TEST(CodecFuzz, FlippedFramesNeverCrashTheFrameDecoder) {
  Rng rng(0xF2255EED);
  for (const auto& msg : representative_messages()) {
    auto w = begin_frame(Envelope{FrameKind::kOneway, 7, ServerId{3}});
    encode_message(w, msg);
    const auto frame = finish_frame(std::move(w));
    // decode_frame takes the payload after the length prefix.
    const std::span<const std::uint8_t> body(frame.data() + 4,
                                             frame.size() - 4);
    for (std::size_t pos = 0; pos < body.size(); ++pos) {
      auto mutated = std::vector<std::uint8_t>(body.begin(), body.end());
      mutated[pos] ^= std::uint8_t(1 + rng.below(255));
      const auto decoded = decode_frame(mutated);
      if (decoded.ok()) {
        (void)decode_message(decoded.value().payload);
      }
    }
    for (std::size_t len = 0; len < body.size(); ++len) {
      (void)decode_frame(std::span(body.data(), len));
    }
  }
}

TEST(CodecFuzz, CorruptMessageNeverSlipsPastTheContentFence) {
  // The simulator's corrupt fault: 1-3 byte flips inside a frame's
  // fenced span. Each damaged frame must be caught by either the codec
  // (no decode) or the content fence's verdict (crc_ok false) — a
  // mutation that passes both must encode to the original frame.
  Rng rng(0xF3355EED);
  Gossip gossip;
  gossip.kind = GossipKind::kPing;
  gossip.sequence = 41;
  gossip.target = ServerId{6};
  gossip.updates.push_back({ServerId{2}, MemberState::kDead, 9});
  const auto original = oneway_frame(ServerId{1}, Message{gossip});

  int fenced_out = 0;
  for (int i = 0; i < 2000; ++i) {
    auto frame = original;
    const auto region = fenced_span(frame);
    ASSERT_FALSE(region.empty());
    const unsigned flips = 1 + unsigned(rng.below(3));
    for (unsigned f = 0; f < flips; ++f) {
      region[rng.below(region.size())] ^= std::uint8_t(1 + rng.below(255));
    }
    // The span leaves the envelope intact: the frame still parses.
    const auto decoded = decode_frame(std::span(frame).subspan(4));
    ASSERT_TRUE(decoded.ok());
    const auto mutated = decode_message(decoded.value().payload);
    if (!mutated.ok()) continue;  // codec fence
    if (std::get<Gossip>(mutated.value()).crc_ok) {
      // Passed the fence: anything but the original content is an
      // installable corruption.
      EXPECT_EQ(oneway_frame(ServerId{1}, mutated.value()), original);
    } else {
      ++fenced_out;
    }
  }
  EXPECT_GT(fenced_out, 0) << "no flip produced a mutation for the "
                              "content fence to reject";
}

TEST(CodecFuzz, CensusRecordFenceCatchesWhatTheFrameFenceMisses) {
  // The census payload carries the publisher's own CRC per record, so
  // a mutated record cannot pass on the record fence alone, whatever
  // the frame's verdict: every byte flip that still decodes must
  // either fail the record CRC or leave the record byte-identical.
  const KeyGroup g = KeyGroup::parse("0110*", 24).value();
  Gossip gossip;
  gossip.kind = GossipKind::kPing;
  gossip.sequence = 41;
  gossip.target = ServerId{6};
  NodeCensusRecord rec;
  rec.node = ServerId{4};
  rec.incarnation = 9;
  rec.seq = 3;
  rec.load = 77.5;
  rec.totals.bytes_served = 512;
  rec.top_groups.push_back({g, GroupCost{1, 2, 3, 4, 5}});
  rec.checksum = census_record_crc(rec);
  gossip.census.push_back(rec);

  Rng rng(0xF5555EED);
  Writer w;
  encode_message(w, Message(gossip));
  const auto clean = w.take();
  int record_fenced = 0;
  for (std::size_t pos = 0; pos < clean.size(); ++pos) {
    auto mutated = clean;
    mutated[pos] ^= std::uint8_t(1 + rng.below(255));
    const auto decoded = decode_message(mutated);
    if (!decoded.ok()) continue;
    const auto* out = std::get_if<Gossip>(&decoded.value());
    if (out == nullptr) continue;
    for (const auto& out_rec : out->census) {
      if (!out_rec.crc_ok) {
        ++record_fenced;
        continue;  // the membership driver drops exactly these
      }
      // Record CRC verifies: the record must be untouched (the flip
      // landed outside it).
      EXPECT_EQ(out_rec.checksum, rec.checksum);
      EXPECT_EQ(census_record_crc(out_rec), census_record_crc(rec));
    }
  }
  EXPECT_GT(record_fenced, 0)
      << "no flip ever exercised the per-record CRC fence";
}

// --- Pinned encodings ----------------------------------------------------
// Every format the codec writes, pinned by length and a 64-bit FNV-1a
// digest: a change that moves one byte of a message, a WAL record, a
// snapshot file or a census record fails here, whatever else it keeps
// round-tripping. (Not CRC32: bytes that end in their own CRC32 all
// share one CRC32 residue.)

struct Pin {
  std::size_t size;
  std::uint64_t digest;
};

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001B3ULL;
  return h;
}

void expect_pinned(std::span<const std::uint8_t> bytes, Pin want) {
  EXPECT_EQ(bytes.size(), want.size);
  EXPECT_EQ(fnv1a(bytes), want.digest)
      << "{" << std::dec << bytes.size() << ", 0x" << std::hex
      << std::uppercase << fnv1a(bytes) << "ULL}";
}

TEST(CodecFuzz, EveryMessageEncodingIsPinned) {
  // representative_messages() in variant order, with the type byte each
  // encodes to.
  const std::pair<MsgType, Pin> pins[] = {
      {MsgType::kAcceptObject, {76, 0x53FA14E2031B7124ULL}},
      {MsgType::kAcceptObjectOk, {2, 0x8394F07B4F12DC0ULL}},
      {MsgType::kIncorrectDepth, {2, 0x835F207B4EE59E2ULL}},
      {MsgType::kAcceptKeyGroup, {117, 0xC65A0327CAB0C710ULL}},
      {MsgType::kAcceptKeyGroupAck, {11, 0xCEB170A1E7C35B64ULL}},
      {MsgType::kLoadReport, {20, 0xEF914EC905D576BEULL}},
      {MsgType::kReclaimKeyGroup, {11, 0xDB8551FDB52328BAULL}},
      {MsgType::kReclaimAck, {48, 0xAA494B10A041EB82ULL}},
      {MsgType::kReclaimRefused, {11, 0x6E243B1A8BD4F8D0ULL}},
      {MsgType::kDropReplica, {11, 0x4544EED299275856ULL}},
      {MsgType::kGossip, {218, 0xFD7121857098AD05ULL}},
      {MsgType::kReplAppend, {131, 0xD87CC95FB8AEFBD5ULL}},
      {MsgType::kReplAck, {28, 0x4F49B51AF9641A53ULL}},
      {MsgType::kSnapshotOffer, {56, 0xCB5AD35AF3F7BDB2ULL}},
      {MsgType::kSnapshotChunk, {132, 0xE697ECCADCBA9253ULL}},
      {MsgType::kAntiEntropyProbe, {39, 0x830CF1FE667172FFULL}},
      {MsgType::kAntiEntropyDiff, {31, 0x52CFC10381975720ULL}},
  };
  const auto all = representative_messages();
  ASSERT_EQ(all.size(), std::size(pins));
  for (std::size_t i = 0; i < all.size(); ++i) {
    SCOPED_TRACE(i);
    const auto bytes = encode(all[i]);
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(bytes[0], std::uint8_t(pins[i].first));
    expect_pinned(bytes, pins[i].second);
  }
}

TEST(CodecFuzz, WalRecordEncodingIsPinned) {
  const KeyGroup g = KeyGroup::parse("0110*", 24).value();
  storage::WalRecord op;
  op.kind = storage::RecordKind::kOp;
  op.group = g;
  op.head = repl::LogHead{7, 123};
  op.op = repl::LogOp::put_query(QueryInfo(
      QueryId{45}, Key(0x60AAAA, 24), 6, {{0, cq::Predicate::Op::kEq, 7}}));
  expect_pinned(storage::encode_wal_record(op), {71, 0xE76B6382B224958EULL});

  storage::WalRecord drop;
  drop.kind = storage::RecordKind::kDrop;
  drop.group = g;
  drop.head = repl::LogHead{7, ~std::uint64_t{0}};
  expect_pinned(storage::encode_wal_record(drop), {35, 0xD5F4FB9C400B568FULL});
}

TEST(CodecFuzz, SnapshotFileEncodingIsPinned) {
  storage::SnapshotImage img;
  img.group = KeyGroup::parse("0110*", 24).value();
  img.head = repl::LogHead{7, 123};
  img.root = true;
  img.parent = ServerId{6};
  repl::GroupLog::apply(
      repl::LogOp::put_stream({ClientId{9}, Key(0x601234, 24), 2.5}),
      img.state);
  repl::GroupLog::apply(
      repl::LogOp::put_query(QueryInfo(QueryId{45}, Key(0x60AAAA, 24), 6,
                                       {{0, cq::Predicate::Op::kEq, 7}})),
      img.state);
  expect_pinned(storage::encode_snapshot(img), {114, 0x79F47FCAF43F1523ULL});
}

TEST(CodecFuzz, CensusRecordEncodingIsPinned) {
  const auto all = representative_messages();
  Gossip gossip = std::get<Gossip>(all[10]);
  ASSERT_EQ(gossip.census.size(), 1u);
  EXPECT_EQ(gossip.census[0].checksum, 0x9D1ABD3Du);
  // The record alone: the payload after the gossip's fixed fields
  // (type, CRC slot, kind, sequence, target) and its two counts.
  gossip.updates.clear();
  const auto bytes = encode(Message(gossip));
  ASSERT_GT(bytes.size(), 30u);
  expect_pinned(std::span(bytes).subspan(30), {154, 0xBFC85B71991EB6D2ULL});
  // Decoding reports the census vector's bytes: all but those 26.
  const auto decoded = decode_message(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::get<Gossip>(decoded.value()).census_bytes,
            bytes.size() - 26);
}

TEST(CodecFuzz, NonCorruptibleTypesPassThroughUntouched) {
  // The corrupt fault damages only a frame's fenced span, which an
  // unfenced type's frame does not have.
  auto frame = oneway_frame(ServerId{1}, Message{AcceptObjectOk{5}});
  EXPECT_TRUE(fenced_span(frame).empty());
  EXPECT_FALSE(fenced(MsgType::kAcceptObjectOk));
  EXPECT_TRUE(fenced(MsgType::kGossip));
  // A fenced frame's span is its payload past the type byte: the
  // envelope (length prefix and 18-byte header) stays intact.
  auto gossip = oneway_frame(ServerId{1}, Message{Gossip{}});
  EXPECT_EQ(fenced_span(gossip).size(), gossip.size() - 4 - 18 - 1);
}

}  // namespace
}  // namespace clash::wire
