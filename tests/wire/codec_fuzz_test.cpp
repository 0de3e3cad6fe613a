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
  gossip.checksum = content_crc(gossip);
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
  app.entries.push_back(repl::LogOp::app_delta_op({1, 2, 3, 4}));
  app.checksum = content_crc(app);
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
  chunk.app_state = {9, 8, 7};
  chunk.app_deltas = {{1}, {2, 3}};
  chunk.checksum = content_crc(chunk);
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
  // The sim's corrupt fault: whatever corrupt_message produces must be
  // caught by either the codec (nullopt) or the receiver's content
  // CRC — a mutation that passes both must be byte-identical content
  // (the flips hit only the checksum slot, turning it to 0/itself).
  Rng rng(0xF3355EED);
  Gossip gossip;
  gossip.kind = GossipKind::kPing;
  gossip.sequence = 41;
  gossip.target = ServerId{6};
  gossip.updates.push_back({ServerId{2}, MemberState::kDead, 9});
  gossip.checksum = content_crc(gossip);
  const Message original{gossip};

  int fenced = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto mutated = corrupt_message(original, rng);
    if (!mutated) continue;  // codec fence
    const auto& out = std::get<Gossip>(*mutated);
    const bool fence_rejects =
        out.checksum != 0 && out.checksum != content_crc(out);
    if (!fence_rejects) {
      // Unfenced: the content must be untouched (checksum-slot-only
      // flips) — anything else is an installable corruption.
      EXPECT_EQ(content_crc(out), content_crc(gossip));
    } else {
      ++fenced;
    }
  }
  EXPECT_GT(fenced, 0) << "corrupt_message never produced a mutation "
                          "for the content fence to reject";
}

TEST(CodecFuzz, CensusRecordFenceCatchesWhatTheFrameFenceMisses) {
  // The census payload carries the publisher's own CRC per record, so
  // even a frame re-built by a relay (checksum slot zeroed, frame
  // fence vacuous) cannot smuggle a mutated record: every byte flip
  // that still decodes must either fail the record CRC or leave the
  // record byte-identical.
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
  gossip.checksum = 0;  // unfenced frame: relays and tests build these

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
      if (out_rec.checksum != 0 &&
          out_rec.checksum != census_record_crc(out_rec)) {
        ++record_fenced;
        continue;  // the membership driver drops exactly these
      }
      // Record CRC verifies: the record content must be untouched
      // (the flip landed outside it, or inside its checksum turning
      // it to 0 — which un-fences but cannot alter the gauges).
      if (out_rec.checksum != 0) {
        EXPECT_EQ(census_record_crc(out_rec), census_record_crc(rec));
      }
    }
  }
  EXPECT_GT(record_fenced, 0)
      << "no flip ever exercised the per-record CRC fence";
}

TEST(CodecFuzz, NonCorruptibleTypesPassThroughUntouched) {
  Rng rng(0xF4455EED);
  const Message msg{AcceptObjectOk{5}};
  const auto out = corrupt_message(msg, rng);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(std::get<AcceptObjectOk>(*out).depth, 5u);
  EXPECT_FALSE(corruptible(msg));
  EXPECT_TRUE(corruptible(Message{Gossip{}}));
}

}  // namespace
}  // namespace clash::wire
