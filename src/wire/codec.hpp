// Wire codec for the CLASH protocol messages: every Message variant and
// AcceptObjectReply can round-trip through a compact, versioned binary
// encoding. Frames on the TCP transport are u32-length-prefixed
// envelopes { version, kind, request id, sender } + payload.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "clash/messages.hpp"
#include "common/expected.hpp"
#include "common/rng.hpp"
#include "wire/buffer.hpp"

namespace clash::wire {

constexpr std::uint8_t kProtocolVersion = 1;

/// Message discriminants on the wire (stable across versions).
enum class MsgType : std::uint8_t {
  kAcceptObject = 1,
  kAcceptObjectOk = 2,
  kIncorrectDepth = 3,
  kAcceptKeyGroup = 4,
  kAcceptKeyGroupAck = 5,
  kLoadReport = 6,
  kReclaimKeyGroup = 7,
  kReclaimAck = 8,
  kReclaimRefused = 9,
  // 10 is retired (the removed lease-replication refresh): it decodes
  // as a protocol error and must never be reused for a new message.
  kDropReplica = 11,
  kGossip = 12,
  // Replication & recovery subsystem (src/repl/).
  kReplAppend = 13,
  kReplAck = 14,
  kSnapshotOffer = 15,
  kSnapshotChunk = 16,
  kAntiEntropyProbe = 17,
  kAntiEntropyDiff = 18,
};

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

/// Encoded payload size of `msg` (what one transport frame carries,
/// sans envelope). Costs a full encode — instrumentation, not hot
/// path; the simulator's wire metering uses it to compare transfer
/// bytes across recovery strategies.
[[nodiscard]] std::size_t encoded_payload_size(const Message& msg);

// --- Content checksums (corruption fences) ------------------------------
// Gossip / ReplAppend / SnapshotChunk — the payloads whose in-flight
// corruption can poison membership or replica state — carry a CRC32
// over their encoded content ([type][checksum][content...], the CRC
// covering type + content). Senders stamp msg.checksum with
// content_crc(msg); receivers reject on mismatch. checksum == 0 means
// "unchecksummed" and skips the fence (hand-built test messages).

[[nodiscard]] std::uint32_t content_crc(const Gossip& m);
[[nodiscard]] std::uint32_t content_crc(const ReplAppend& m);
[[nodiscard]] std::uint32_t content_crc(const SnapshotChunk& m);

/// CRC32 over one encoded census record minus its checksum field.
/// Census records are fenced individually (not just by the enclosing
/// Gossip checksum) because a record outlives the frame that carried
/// it: it is re-gossiped from the receiver's table across many later
/// frames, and each hop re-verifies the record's own proof.
[[nodiscard]] std::uint32_t census_record_crc(const NodeCensusRecord& rec);

/// Encoded bytes of a census payload as it rides a gossip frame
/// (vector count + records). Instrumentation for the census-overhead
/// gate, not hot path.
[[nodiscard]] std::size_t encoded_census_size(
    const std::vector<NodeCensusRecord>& census);

/// True for the message types that carry a content checksum — the
/// types the corrupt fault mode targets.
[[nodiscard]] bool corruptible(const Message& msg);

/// The corrupt fault mode's mutation for struct-passing transports
/// (the simulator): encode `msg`, flip 1-3 random bytes, re-decode.
/// Returns the original untouched for non-corruptible types, nullopt
/// when the mutation no longer decodes (the codec fence caught it),
/// and the corrupted-but-well-formed message otherwise — which the
/// receiver's checksum/epoch/seq fences must then reject.
[[nodiscard]] std::optional<Message> corrupt_message(const Message& msg,
                                                    Rng& rng);

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

/// Serialise a full frame (without the u32 length prefix). Legacy
/// copy path kept for tests and tools; hot paths use begin_frame.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    const Envelope& env, std::span<const std::uint8_t> payload);

struct DecodedFrame {
  Envelope envelope;
  std::vector<std::uint8_t> payload;
};
[[nodiscard]] Expected<DecodedFrame> decode_frame(
    std::span<const std::uint8_t> frame);

// --- Field helpers (exposed for tests) ----------------------------------

void encode_key(Writer& w, const Key& k);
[[nodiscard]] Key decode_key(Reader& r);
void encode_group(Writer& w, const KeyGroup& g);
[[nodiscard]] KeyGroup decode_group(Reader& r);
void encode_log_op(Writer& w, const repl::LogOp& op);
[[nodiscard]] repl::LogOp decode_log_op(Reader& r);
void encode_census_record(Writer& w, const NodeCensusRecord& rec);
[[nodiscard]] NodeCensusRecord decode_census_record(Reader& r);

}  // namespace clash::wire
