#include "wire/codec.hpp"

#include <gtest/gtest.h>

#include "common/crc32.hpp"
#include "common/rng.hpp"

namespace clash::wire {
namespace {

Message round_trip(const Message& msg) {
  Writer w;
  encode_message(w, msg);
  auto decoded = decode_message(w.data());
  EXPECT_TRUE(decoded.ok()) << (decoded.ok() ? "" : decoded.error().message);
  return decoded.ok() ? decoded.value() : Message(AcceptObjectOk{});
}

TEST(Codec, AcceptObjectRoundTrip) {
  AcceptObject m;
  m.key = Key(0xABCDEF, 24);
  m.depth = 9;
  m.kind = ObjectKind::kQuery;
  m.query_id = QueryId{424242};
  m.stream_rate = 2.5;
  m.source = ClientId{99};
  m.probe_only = true;
  m.trace_id = 0xFEEDFACE12345678ULL;

  const auto out = std::get<AcceptObject>(round_trip(Message(m)));
  EXPECT_EQ(out.key, m.key);
  EXPECT_EQ(out.depth, m.depth);
  EXPECT_EQ(out.kind, m.kind);
  EXPECT_EQ(out.query_id, m.query_id);
  EXPECT_DOUBLE_EQ(out.stream_rate, m.stream_rate);
  EXPECT_EQ(out.source, m.source);
  EXPECT_TRUE(out.probe_only);
  EXPECT_EQ(out.trace_id, m.trace_id);
}

TEST(Codec, AcceptKeyGroupWithStateRoundTrip) {
  AcceptKeyGroup m;
  m.group = KeyGroup::parse("0110*", 24).value();
  m.parent = ServerId{7};
  m.streams.push_back({ClientId{1}, Key(0x600000, 24), 1.5});
  m.streams.push_back({ClientId{2}, Key(0x610000, 24), 2.5});
  m.queries.push_back({QueryId{10}, Key(0x620000, 24)});

  const auto out = std::get<AcceptKeyGroup>(round_trip(Message(m)));
  EXPECT_EQ(out.group, m.group);
  EXPECT_EQ(out.parent, m.parent);
  ASSERT_EQ(out.streams.size(), 2u);
  EXPECT_EQ(out.streams[1].source, ClientId{2});
  EXPECT_DOUBLE_EQ(out.streams[1].rate, 2.5);
  ASSERT_EQ(out.queries.size(), 1u);
  EXPECT_EQ(out.queries[0].id, QueryId{10});
}

TEST(Codec, AllSimpleVariantsRoundTrip) {
  const KeyGroup g = KeyGroup::parse("01101*", 24).value();
  EXPECT_EQ(std::get<AcceptObjectOk>(round_trip(Message(AcceptObjectOk{5})))
                .depth,
            5u);
  EXPECT_EQ(
      std::get<IncorrectDepth>(round_trip(Message(IncorrectDepth{4}))).dmin,
      4u);
  EXPECT_EQ(std::get<AcceptKeyGroupAck>(
                round_trip(Message(AcceptKeyGroupAck{g})))
                .group,
            g);
  const auto report = std::get<LoadReport>(
      round_trip(Message(LoadReport{g, 123.5, true})));
  EXPECT_EQ(report.group, g);
  EXPECT_DOUBLE_EQ(report.load, 123.5);
  EXPECT_TRUE(report.is_leaf);
  EXPECT_EQ(std::get<ReclaimKeyGroup>(
                round_trip(Message(ReclaimKeyGroup{g})))
                .group,
            g);
  EXPECT_EQ(std::get<ReclaimRefused>(
                round_trip(Message(ReclaimRefused{g})))
                .group,
            g);
  ReclaimAck ack;
  ack.group = g;
  ack.streams.push_back({ClientId{3}, Key(0x680000, 24), 0.5});
  const auto ack_out = std::get<ReclaimAck>(round_trip(Message(ack)));
  ASSERT_EQ(ack_out.streams.size(), 1u);
}

TEST(Codec, ReplicationMessagesRoundTrip) {
  const KeyGroup g = KeyGroup::parse("0110*", 24).value();
  const auto drop = std::get<DropReplica>(round_trip(Message(DropReplica{g})));
  EXPECT_EQ(drop.group, g);
}

TEST(Codec, RetiredTypeTagTenIsAProtocolError) {
  // Tag 10 carried the removed lease-replication refresh. A well-formed
  // payload of that old layout (group, owner, root, parent, empty
  // stream and query vectors) must not decode as any message.
  Writer w;
  w.u8(10);
  encode_group(w, KeyGroup::parse("0110*", 24).value());
  w.u64(3);        // owner
  w.boolean(true); // root
  w.u64(9);        // parent
  w.u32(0);        // streams
  w.u32(0);        // queries
  const auto decoded = decode_message(w.data());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, Error::Code::kProtocol);
}

TEST(Codec, AcceptKeyGroupCarriesRootAndEpoch) {
  AcceptKeyGroup m;
  m.group = KeyGroup::parse("1010*", 24).value();
  m.parent = ServerId{4};
  m.root = true;
  m.epoch = 17;
  const auto out = std::get<AcceptKeyGroup>(round_trip(Message(m)));
  EXPECT_TRUE(out.root);
  EXPECT_EQ(out.epoch, 17u);
}

TEST(Codec, ReplAppendRoundTrip) {
  ReplAppend m;
  m.group = KeyGroup::parse("0110*", 24).value();
  m.owner = ServerId{3};
  m.epoch = 5;
  m.base_seq = 41;
  m.trace_id = 0xABCDEF99ULL;
  m.entries.push_back(
      repl::LogOp::put_stream({ClientId{9}, Key(0x601234, 24), 2.5}));
  m.entries.push_back(repl::LogOp::del_stream(ClientId{9}));
  m.entries.push_back(
      repl::LogOp::put_query(QueryInfo{QueryId{44}, Key(0x60AAAA, 24)}));
  m.entries.push_back(repl::LogOp::del_query(QueryId{44}));
  m.entries.push_back(repl::LogOp::app_delta_op({1, 2, 3, 4}));

  const auto out = std::get<ReplAppend>(round_trip(Message(m)));
  EXPECT_EQ(out.group, m.group);
  EXPECT_EQ(out.owner, m.owner);
  EXPECT_EQ(out.epoch, 5u);
  EXPECT_EQ(out.base_seq, 41u);
  EXPECT_EQ(out.trace_id, 0xABCDEF99ULL);
  ASSERT_EQ(out.entries.size(), 5u);
  EXPECT_EQ(out.entries[0].kind, repl::OpKind::kPutStream);
  EXPECT_DOUBLE_EQ(out.entries[0].stream.rate, 2.5);
  EXPECT_EQ(out.entries[1].kind, repl::OpKind::kDelStream);
  EXPECT_EQ(out.entries[1].source, ClientId{9});
  EXPECT_EQ(out.entries[2].kind, repl::OpKind::kPutQuery);
  EXPECT_EQ(out.entries[2].query.id, QueryId{44});
  EXPECT_EQ(out.entries[3].kind, repl::OpKind::kDelQuery);
  EXPECT_EQ(out.entries[3].query_id, QueryId{44});
  EXPECT_EQ(out.entries[4].kind, repl::OpKind::kAppDelta);
  EXPECT_EQ(out.entries[4].app_delta,
            (std::vector<std::uint8_t>{1, 2, 3, 4}));
}

TEST(Codec, SnapshotAndAntiEntropyRoundTrip) {
  const KeyGroup g = KeyGroup::parse("0110*", 24).value();
  const repl::LogHead head{7, 123};

  const auto ack =
      std::get<ReplAck>(round_trip(Message(ReplAck{g, head, false})));
  EXPECT_EQ(ack.group, g);
  EXPECT_EQ(ack.head, head);
  EXPECT_FALSE(ack.ok);

  SnapshotOffer offer;
  offer.group = g;
  offer.owner = ServerId{2};
  offer.head = head;
  offer.root = true;
  offer.parent = ServerId{6};
  offer.total_chunks = 3;
  offer.trace_id = 0x1111222233334444ULL;
  const auto offer_out = std::get<SnapshotOffer>(round_trip(Message(offer)));
  EXPECT_EQ(offer_out.head, head);
  EXPECT_TRUE(offer_out.root);
  EXPECT_EQ(offer_out.total_chunks, 3u);
  EXPECT_EQ(offer_out.trace_id, offer.trace_id);

  SnapshotChunk chunk;
  chunk.group = g;
  chunk.head = head;
  chunk.index = 1;
  chunk.total = 3;
  chunk.trace_id = 0x1111222233334444ULL;
  chunk.streams.push_back({ClientId{5}, Key(0x601234, 24), 4.5});
  chunk.queries.push_back({QueryId{77}, Key(0x609999, 24)});
  chunk.app_state = {9, 8, 7};
  chunk.app_deltas = {{1}, {2, 3}};
  const auto chunk_out = std::get<SnapshotChunk>(round_trip(Message(chunk)));
  EXPECT_EQ(chunk_out.index, 1u);
  EXPECT_EQ(chunk_out.trace_id, chunk.trace_id);
  ASSERT_EQ(chunk_out.streams.size(), 1u);
  EXPECT_EQ(chunk_out.app_state, (std::vector<std::uint8_t>{9, 8, 7}));
  ASSERT_EQ(chunk_out.app_deltas.size(), 2u);
  EXPECT_EQ(chunk_out.app_deltas[1], (std::vector<std::uint8_t>{2, 3}));

  AntiEntropyProbe probe;
  probe.owner = ServerId{2};
  probe.heads.push_back({g, head});
  probe.heads.push_back({KeyGroup::parse("111*", 24).value(),
                         repl::LogHead{1, 0}});
  const auto probe_out =
      std::get<AntiEntropyProbe>(round_trip(Message(probe)));
  ASSERT_EQ(probe_out.heads.size(), 2u);
  EXPECT_EQ(probe_out.heads[0].head, head);

  AntiEntropyDiff diff;
  diff.behind.push_back({g, repl::LogHead{}});
  const auto diff_out = std::get<AntiEntropyDiff>(round_trip(Message(diff)));
  ASSERT_EQ(diff_out.behind.size(), 1u);
  EXPECT_EQ(diff_out.behind[0].head, (repl::LogHead{0, 0}));
}

TEST(Codec, SnapshotFramesRejectTruncationAtEveryBoundary) {
  // A partially received frame must never decode into a plausible
  // offer/chunk — every strict prefix of the encoding is an error
  // (the transfer-restart logic depends on corrupt frames dying in
  // the codec, not in the assembly).
  SnapshotOffer offer;
  offer.group = KeyGroup::parse("0110*", 24).value();
  offer.owner = ServerId{2};
  offer.head = repl::LogHead{7, 123};
  offer.root = true;
  offer.parent = ServerId{6};
  offer.total_chunks = 3;
  Writer wo;
  encode_message(wo, Message(offer));
  const auto offer_bytes = wo.take();
  for (std::size_t len = 0; len < offer_bytes.size(); ++len) {
    EXPECT_FALSE(
        decode_message(std::span(offer_bytes.data(), len)).ok())
        << "offer prefix of " << len << " bytes decoded";
  }

  SnapshotChunk chunk;
  chunk.group = KeyGroup::parse("0110*", 24).value();
  chunk.head = repl::LogHead{7, 123};
  chunk.index = 1;
  chunk.total = 3;
  chunk.streams.push_back({ClientId{5}, Key(0x601234, 24), 4.5});
  chunk.queries.push_back({QueryId{77}, Key(0x609999, 24)});
  chunk.app_state = {9, 8, 7};
  chunk.app_deltas = {{1}, {2, 3}};
  Writer wc;
  encode_message(wc, Message(chunk));
  const auto chunk_bytes = wc.take();
  for (std::size_t len = 0; len < chunk_bytes.size(); ++len) {
    EXPECT_FALSE(
        decode_message(std::span(chunk_bytes.data(), len)).ok())
        << "chunk prefix of " << len << " bytes decoded";
  }
}

TEST(Codec, SnapshotFramesRejectDuplicatedPayloads) {
  // Two concatenated encodings in one frame (a framing bug or a
  // malicious duplicate) must be rejected as trailing garbage, not
  // silently decoded as the first message.
  SnapshotOffer offer;
  offer.group = KeyGroup::parse("01*", 24).value();
  offer.head = repl::LogHead{1, 4};
  offer.total_chunks = 2;
  Writer wo;
  encode_message(wo, Message(offer));
  auto doubled = wo.take();
  const auto copy = doubled;
  doubled.insert(doubled.end(), copy.begin(), copy.end());
  EXPECT_FALSE(decode_message(doubled).ok());

  SnapshotChunk chunk;
  chunk.group = KeyGroup::parse("01*", 24).value();
  chunk.head = repl::LogHead{1, 4};
  chunk.total = 2;
  chunk.streams.push_back({ClientId{1}, Key(0x400000, 24), 1.0});
  Writer wc;
  encode_message(wc, Message(chunk));
  auto doubled_chunk = wc.take();
  const auto chunk_copy = doubled_chunk;
  doubled_chunk.insert(doubled_chunk.end(), chunk_copy.begin(),
                       chunk_copy.end());
  EXPECT_FALSE(decode_message(doubled_chunk).ok());
}

TEST(Codec, ReplAppendRejectsBadOpKind) {
  ReplAppend m;
  m.group = KeyGroup::parse("0*", 24).value();
  m.owner = ServerId{1};
  m.entries.push_back(repl::LogOp::del_stream(ClientId{1}));
  Writer w;
  encode_message(w, Message(m));
  auto bytes = w.take();
  // The op kind byte sits right after type(1) + checksum(4) +
  // group(10) + owner(8) + epoch(8) + base_seq(8) + trace_id(8) +
  // count(4) = 51 bytes.
  bytes[51] = 0xEE;
  EXPECT_FALSE(decode_message(bytes).ok());
}

TEST(Codec, GossipRoundTrip) {
  Gossip m;
  m.kind = GossipKind::kPingReq;
  m.sequence = 0x8000000000000042ULL;  // relay-tagged sequences survive
  m.target = ServerId{12};
  m.updates.push_back({ServerId{3}, MemberState::kSuspect, 7});
  m.updates.push_back({ServerId{9}, MemberState::kDead, 0});
  m.updates.push_back({ServerId{12}, MemberState::kAlive, 8});

  // A census record piggybacks beside the membership rumours.
  NodeCensusRecord rec;
  rec.node = ServerId{3};
  rec.incarnation = 7;
  rec.seq = 22;
  rec.load = 123.5;
  rec.active_groups = 4;
  rec.replica_records = 9;
  rec.queries = 17;
  rec.streams = 33;
  rec.totals.bytes_served = 1000;
  rec.totals.repl_bytes = 200;
  rec.top_groups.push_back(
      {KeyGroup::parse("0110*", 24).value(), GroupCost{1, 2, 3, 4, 5}});
  rec.checksum = census_record_crc(rec);
  m.census.push_back(rec);

  const auto out = std::get<Gossip>(round_trip(Message(m)));
  EXPECT_EQ(out.kind, m.kind);
  EXPECT_EQ(out.sequence, m.sequence);
  EXPECT_EQ(out.target, m.target);
  ASSERT_EQ(out.updates.size(), 3u);
  EXPECT_EQ(out.updates[0].subject, ServerId{3});
  EXPECT_EQ(out.updates[0].state, MemberState::kSuspect);
  EXPECT_EQ(out.updates[0].incarnation, 7u);
  EXPECT_EQ(out.updates[1].state, MemberState::kDead);
  EXPECT_EQ(out.updates[2].state, MemberState::kAlive);
  ASSERT_EQ(out.census.size(), 1u);
  const auto& crec = out.census[0];
  EXPECT_EQ(crec.node, rec.node);
  EXPECT_EQ(crec.incarnation, 7u);
  EXPECT_EQ(crec.seq, 22u);
  EXPECT_DOUBLE_EQ(crec.load, 123.5);
  EXPECT_EQ(crec.active_groups, 4u);
  EXPECT_EQ(crec.replica_records, 9u);
  EXPECT_EQ(crec.queries, 17u);
  EXPECT_EQ(crec.streams, 33u);
  EXPECT_EQ(crec.totals.bytes_served, 1000u);
  ASSERT_EQ(crec.top_groups.size(), 1u);
  EXPECT_EQ(crec.top_groups[0].group, rec.top_groups[0].group);
  EXPECT_EQ(crec.top_groups[0].cost.storage_bytes, 5u);
  // The per-record CRC survives the round trip and still verifies.
  EXPECT_EQ(crec.checksum, rec.checksum);
  EXPECT_EQ(census_record_crc(crec), crec.checksum);

  // An empty piggyback batch is fine.
  Gossip bare;
  bare.kind = GossipKind::kAck;
  bare.sequence = 5;
  bare.target = ServerId{1};
  const auto bare_out = std::get<Gossip>(round_trip(Message(bare)));
  EXPECT_TRUE(bare_out.updates.empty());
  EXPECT_TRUE(bare_out.census.empty());
}

TEST(Codec, CensusRecordRejectsMalformedPayloads) {
  Gossip m;
  m.kind = GossipKind::kPing;
  m.sequence = 1;
  m.target = ServerId{2};
  NodeCensusRecord rec;
  rec.node = ServerId{3};
  rec.incarnation = 1;
  rec.seq = 1;
  rec.load = 0.5;
  rec.top_groups.push_back(
      {KeyGroup::parse("01*", 24).value(), GroupCost{1, 1, 1, 1, 1}});
  rec.checksum = census_record_crc(rec);
  m.census.push_back(rec);

  Writer w;
  encode_message(w, Message(m));
  const auto bytes = w.take();

  // Every strict prefix of the frame is an error — truncation can
  // never surface a plausible census record.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(decode_message(std::span(bytes.data(), len)).ok())
        << "prefix of " << len << " bytes decoded";
  }

  // A non-finite or negative load is rejected structurally (it would
  // poison every view() fold downstream of one bad frame).
  auto poison = rec;
  poison.load = -1.0;
  Gossip bad;
  bad.kind = GossipKind::kPing;
  bad.sequence = 1;
  bad.target = ServerId{2};
  bad.census.push_back(poison);
  Writer wb;
  encode_message(wb, Message(bad));
  EXPECT_FALSE(decode_message(wb.data()).ok());

  // Adversarial census count: more records than bytes remain.
  Writer wc;
  wc.u8(12);  // MsgType::kGossip
  wc.u32(0);  // checksum slot
  wc.u8(0);   // kPing
  wc.u64(1);
  wc.u64(2);
  wc.u32(0);         // zero membership updates
  wc.u32(0xFFFFFF);  // absurd census count
  EXPECT_FALSE(decode_message(wc.data()).ok());
}

TEST(Codec, CensusRecordCrcDetectsFieldTampering) {
  NodeCensusRecord rec;
  rec.node = ServerId{5};
  rec.incarnation = 2;
  rec.seq = 9;
  rec.load = 1.25;
  rec.totals.bytes_served = 4096;
  rec.checksum = census_record_crc(rec);
  EXPECT_EQ(census_record_crc(rec), rec.checksum);
  // Any gauge flip invalidates the publisher's proof.
  auto tampered = rec;
  tampered.totals.bytes_served = 4097;
  EXPECT_NE(census_record_crc(tampered), rec.checksum);
  auto reseq = rec;
  reseq.seq = 10;
  EXPECT_NE(census_record_crc(reseq), rec.checksum);
}

TEST(Codec, GossipRejectsMalformedPayloads) {
  // Bad gossip kind.
  Writer w;
  w.u8(12);  // MsgType::kGossip
  w.u8(9);   // invalid kind
  w.u64(1);
  w.u64(2);
  w.u32(0);
  EXPECT_FALSE(decode_message(w.data()).ok());

  // Bad member state inside an update.
  Writer w2;
  w2.u8(12);
  w2.u8(0);  // kPing
  w2.u64(1);
  w2.u64(2);
  w2.u32(1);   // one update...
  w2.u64(4);   // subject
  w2.u8(7);    // invalid state
  w2.u64(0);   // incarnation
  EXPECT_FALSE(decode_message(w2.data()).ok());

  // Adversarial count: more updates than bytes remain.
  Writer w3;
  w3.u8(12);
  w3.u8(0);
  w3.u64(1);
  w3.u64(2);
  w3.u32(0xFFFFFF);
  EXPECT_FALSE(decode_message(w3.data()).ok());
}

TEST(Codec, ReplyRoundTrip) {
  Writer w;
  encode_reply(w, AcceptObjectReply(AcceptObjectOk{7}));
  const auto ok = decode_reply(w.data());
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(std::get<AcceptObjectOk>(ok.value()).depth, 7u);

  Writer w2;
  encode_reply(w2, AcceptObjectReply(IncorrectDepth{3}));
  const auto bad = decode_reply(w2.data());
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(std::get<IncorrectDepth>(bad.value()).dmin, 3u);
}

TEST(Codec, ReplyRejectsNonReplyMessage) {
  Writer w;
  encode_message(w, Message(ReclaimKeyGroup{KeyGroup::root(24)}));
  EXPECT_FALSE(decode_reply(w.data()).ok());
}

TEST(Codec, RejectsMalformedInput) {
  EXPECT_FALSE(decode_message({}).ok());
  const std::uint8_t junk[] = {0xFF, 0x01, 0x02};
  EXPECT_FALSE(decode_message(std::span(junk, 3)).ok());
  // Truncated AcceptObject.
  Writer w;
  encode_message(w, Message(AcceptObject{}));
  auto bytes = w.data();
  EXPECT_FALSE(
      decode_message(std::span(bytes.data(), bytes.size() - 3)).ok());
  // Trailing garbage.
  Writer w2;
  encode_message(w2, Message(AcceptObjectOk{1}));
  auto padded = w2.take();
  padded.push_back(0);
  EXPECT_FALSE(decode_message(padded).ok());
}

TEST(Codec, RejectsNonCanonicalGroup) {
  // Virtual key with non-zero suffix bits below the depth.
  Writer w;
  w.u8(std::uint8_t(MsgType::kReclaimKeyGroup));
  w.u8(24);            // key width
  w.u64(0xABCDEF);     // value with low bits set
  w.u8(4);             // depth 4 -> suffix must be zero
  EXPECT_FALSE(decode_message(w.data()).ok());
}

TEST(Codec, RejectsOversizedKeyValue) {
  Writer w;
  w.u8(std::uint8_t(MsgType::kAcceptObjectOk));
  // AcceptObjectOk payload is one byte; craft a bad key through
  // ReclaimKeyGroup instead.
  Writer w2;
  w2.u8(std::uint8_t(MsgType::kReclaimKeyGroup));
  w2.u8(8);                  // 8-bit key...
  w2.u64(0x1FF);             // ...with a 9-bit value
  w2.u8(2);
  EXPECT_FALSE(decode_message(w2.data()).ok());
}

TEST(Codec, RejectsAbsurdVectorCounts) {
  Writer w;
  w.u8(std::uint8_t(MsgType::kAcceptKeyGroup));
  encode_group(w, KeyGroup::parse("01*", 24).value());
  w.u64(1);           // parent
  w.u32(0xFFFFFFFF);  // stream count far beyond remaining bytes
  EXPECT_FALSE(decode_message(w.data()).ok());
}

TEST(Codec, FrameRoundTrip) {
  Writer payload;
  encode_message(payload, Message(AcceptObjectOk{9}));
  const Envelope env{FrameKind::kResponse, 77, ServerId{5}};
  const auto frame = encode_frame(env, payload.data());

  const auto decoded = decode_frame(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().envelope.kind, FrameKind::kResponse);
  EXPECT_EQ(decoded.value().envelope.request_id, 77u);
  EXPECT_EQ(decoded.value().envelope.sender, ServerId{5});
  const auto msg = decode_message(decoded.value().payload);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(std::get<AcceptObjectOk>(msg.value()).depth, 9u);
}

TEST(Codec, FrameRejectsBadVersionAndKind) {
  Writer payload;
  encode_message(payload, Message(AcceptObjectOk{1}));
  auto frame = encode_frame(Envelope{}, payload.data());
  frame[0] = 99;  // version
  EXPECT_FALSE(decode_frame(frame).ok());
  frame[0] = kProtocolVersion;
  frame[1] = 7;  // kind
  EXPECT_FALSE(decode_frame(frame).ok());
  EXPECT_FALSE(decode_frame({}).ok());
}

/// The content fence as first specified: CRC32 over the encoded
/// Message minus its [1, 5) checksum slot.
std::uint32_t crc_via_message(const Message& msg) {
  Writer w;
  encode_message(w, msg);
  const auto& bytes = w.data();
  Crc32 crc;
  crc.update(std::span<const std::uint8_t>(bytes.data(), 1));
  crc.update(std::span<const std::uint8_t>(bytes.data() + 5, bytes.size() - 5));
  return crc.value();
}

TEST(Codec, ContentCrcMatchesTheEncodedMessageFence) {
  // content_crc encodes the struct directly; the fence must stay the
  // exact CRC of the Message encoding (wire compatibility), whatever
  // the checksum slot currently holds.
  const KeyGroup g = KeyGroup::parse("0110*", 24).value();

  Gossip gossip;
  gossip.kind = GossipKind::kPingReq;
  gossip.sequence = 0x8000000000000042ULL;
  gossip.target = ServerId{12};
  gossip.updates.push_back({ServerId{3}, MemberState::kSuspect, 7});
  NodeCensusRecord rec;
  rec.node = ServerId{3};
  rec.incarnation = 7;
  rec.seq = 22;
  rec.load = 12.5;
  rec.top_groups.push_back({g, GroupCost{1, 2, 3, 4, 5}});
  rec.checksum = census_record_crc(rec);
  gossip.census.push_back(rec);
  gossip.checksum = 0xDEADBEEF;
  EXPECT_EQ(content_crc(gossip), crc_via_message(Message(gossip)));

  ReplAppend append;
  append.group = g;
  append.owner = ServerId{3};
  append.epoch = 5;
  append.base_seq = 41;
  append.trace_id = 0xABCDEF99ULL;
  append.entries.push_back(
      repl::LogOp::put_stream({ClientId{9}, Key(0x601234, 24), 2.5}));
  append.entries.push_back(repl::LogOp::del_stream(ClientId{9}));
  append.entries.push_back(
      repl::LogOp::put_query(QueryInfo{QueryId{44}, Key(0x60AAAA, 24)}));
  append.entries.push_back(repl::LogOp::del_query(QueryId{44}));
  append.entries.push_back(repl::LogOp::app_delta_op({1, 2, 3, 4}));
  append.checksum = 0x12345678;
  EXPECT_EQ(content_crc(append), crc_via_message(Message(append)));

  SnapshotChunk chunk;
  chunk.group = g;
  chunk.head = repl::LogHead{7, 123};
  chunk.index = 1;
  chunk.total = 3;
  chunk.trace_id = 0x1111222233334444ULL;
  chunk.streams.push_back({ClientId{5}, Key(0x601234, 24), 4.5});
  chunk.queries.push_back({QueryId{77}, Key(0x609999, 24)});
  chunk.app_state = {9, 8, 7};
  chunk.app_deltas = {{1}, {2, 3}};
  EXPECT_EQ(content_crc(chunk), crc_via_message(Message(chunk)));

  // Stamping the fence does not move it.
  chunk.checksum = content_crc(chunk);
  EXPECT_EQ(content_crc(chunk), crc_via_message(Message(chunk)));
}

// Property: random valid messages survive encode/decode byte-exactly.
TEST(Codec, FuzzRoundTripRandomMessages) {
  Rng rng(777);
  for (int i = 0; i < 500; ++i) {
    Message msg;
    switch (rng.below(5)) {
      case 0: {
        AcceptObject m;
        m.key = Key(rng.next() & 0xFFFFFF, 24);
        m.depth = unsigned(rng.below(25));
        m.kind = rng.bernoulli(0.5) ? ObjectKind::kData : ObjectKind::kQuery;
        m.query_id = QueryId{rng.next()};
        m.stream_rate = rng.uniform01() * 100;
        m.source = ClientId{rng.next()};
        m.probe_only = rng.bernoulli(0.5);
        msg = m;
        break;
      }
      case 1: {
        AcceptKeyGroup m;
        m.group = KeyGroup::of(Key(rng.next() & 0xFFFFFF, 24),
                               unsigned(rng.below(25)));
        m.parent = ServerId{rng.below(1000)};
        const auto n = rng.below(8);
        for (std::uint64_t s = 0; s < n; ++s) {
          m.streams.push_back({ClientId{rng.next()},
                               Key(rng.next() & 0xFFFFFF, 24),
                               rng.uniform01()});
        }
        msg = m;
        break;
      }
      case 2:
        msg = LoadReport{KeyGroup::of(Key(rng.next() & 0xFFFFFF, 24),
                                      unsigned(rng.below(25))),
                         rng.uniform01() * 1e4, rng.bernoulli(0.5)};
        break;
      case 3:
        msg = IncorrectDepth{unsigned(rng.below(25))};
        break;
      default:
        msg = AcceptObjectOk{unsigned(rng.below(25))};
        break;
    }
    Writer w;
    encode_message(w, msg);
    const auto decoded = decode_message(w.data());
    ASSERT_TRUE(decoded.ok()) << i;
    Writer w2;
    encode_message(w2, decoded.value());
    EXPECT_EQ(w.data(), w2.data()) << "re-encode mismatch at " << i;
  }
}

// Property: decoding random byte soup never crashes and never yields a
// message that re-encodes to different bytes.
TEST(Codec, FuzzDecodeGarbageIsSafe) {
  Rng rng(999);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> junk(rng.below(64));
    for (auto& b : junk) b = std::uint8_t(rng.next());
    const auto decoded = decode_message(junk);
    if (decoded.ok()) {
      Writer w;
      encode_message(w, decoded.value());
      EXPECT_EQ(w.data(), junk) << "accepted non-canonical bytes at " << i;
    }
  }
}

}  // namespace
}  // namespace clash::wire
