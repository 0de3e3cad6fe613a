// Wire codec for the CLASH protocol messages: every Message variant and
// AcceptObjectReply can round-trip through a compact, versioned binary
// encoding. A payload is [kType u8] then the message's field list
// (wire/fields.hpp and codec.cpp), which the encoder and the decoder
// both walk: the layout is written once, and the dispatch both ways
// comes from the Message variant, so a type cannot encode without
// decoding. Frames on the TCP transport are u32-length-prefixed
// envelopes { version, kind, request id, sender } + payload.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "clash/messages.hpp"
#include "common/expected.hpp"
#include "wire/buffer.hpp"
#include "wire/msg_type.hpp"

namespace clash::wire {

constexpr std::uint8_t kProtocolVersion = 1;

/// RPC framing kinds.
enum class FrameKind : std::uint8_t {
  kOneway = 0,   // peer message, no reply expected
  kRequest = 1,  // expects a response with the same request id
  kResponse = 2,
};

struct Envelope {
  FrameKind kind = FrameKind::kOneway;
  std::uint64_t request_id = 0;
  ServerId sender{};
};

// --- Message payloads -------------------------------------------------

void encode_message(Writer& w, const Message& msg);
[[nodiscard]] Expected<Message> decode_message(
    std::span<const std::uint8_t> payload);

// --- The content fence ---------------------------------------------------
// Gossip / ReplAppend / SnapshotChunk — the payloads whose in-flight
// corruption can poison membership or replica state — lay out as
// [type u8][crc u32][content...]. The encoder stamps the slot in place
// with the CRC32 of the type byte and the content; decode_message
// recomputes it over the received bytes and records the verdict in the
// struct's crc_ok (not on the wire), which receivers reject on. A zero
// slot means nothing special: it fails like any other wrong value.
// Both transports, TCP and the simulator, deliver only decoded
// messages, so every verdict a receiver reads comes from the bytes.

/// True for the message types that carry the content fence — the only
/// types the corrupt fault mode damages.
[[nodiscard]] constexpr bool fenced(MsgType type) {
  return type == MsgType::kGossip || type == MsgType::kReplAppend ||
         type == MsgType::kSnapshotChunk;
}

/// The bytes of a finished frame (length prefix included) the corrupt
/// fault mode may damage: a fenced payload's CRC slot and content, so
/// the frame still parses. Empty for every other frame.
[[nodiscard]] std::span<std::uint8_t> fenced_span(
    std::span<std::uint8_t> frame);

/// CRC32 over one encoded census record minus its checksum field: the
/// publisher stamps `checksum` with it. Census records are fenced
/// individually (not just by the enclosing Gossip's fence) because a
/// record outlives the frame that carried it: it is re-gossiped from
/// the receiver's table across many later frames, and each hop
/// re-verifies the record's own proof. Decoding computes that verdict
/// over the received bytes into the record's crc_ok.
[[nodiscard]] std::uint32_t census_record_crc(const NodeCensusRecord& rec);

void encode_reply(Writer& w, const AcceptObjectReply& reply);
[[nodiscard]] Expected<AcceptObjectReply> decode_reply(
    std::span<const std::uint8_t> payload);

// --- Frames ------------------------------------------------------------

/// Start a length-prefixed wire frame: a 4-byte little-endian length
/// slot (patched by finish_frame) followed by the envelope header.
/// Encode the payload directly into the returned Writer — the message
/// is serialised exactly once, in place, into the buffer the transport
/// queues and flushes without further copies.
[[nodiscard]] Writer begin_frame(const Envelope& env);

/// Patch the length slot and release the finished frame (length
/// prefix included) — ready for Connection::send_wire_frame.
[[nodiscard]] std::vector<std::uint8_t> finish_frame(Writer&& w);

/// `msg` from `sender` as a finished oneway frame, encoded in place
/// into one pooled buffer: what a server sends a peer, on TCP and in
/// the simulator alike.
[[nodiscard]] std::vector<std::uint8_t> oneway_frame(ServerId sender,
                                                     const Message& msg);

/// `payload` views the bytes after the header inside the frame passed
/// to decode_frame: it lives only as long as that frame's buffer.
struct DecodedFrame {
  Envelope envelope;
  std::span<const std::uint8_t> payload;
};
[[nodiscard]] Expected<DecodedFrame> decode_frame(
    std::span<const std::uint8_t> frame);

}  // namespace clash::wire
