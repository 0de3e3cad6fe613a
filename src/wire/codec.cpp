#include "wire/codec.hpp"

#include <array>
#include <utility>

#include "common/crc32.hpp"
#include "wire/fields.hpp"

namespace clash::wire {
namespace {

// --- Message field lists ------------------------------------------------
// One per Message alternative: what follows its type byte (and, for a
// fenced type, the CRC slot).

/// A query also carries its scope depth (unset: the key's width) and
/// its predicates; no other kind encodes them.
template <class IO>
void fields(IO& io, Is<AcceptObject> auto& m) {
  fields(io, m.key);
  io.u8(m.depth);
  io.enumeration(m.kind, ObjectKind::kData, ObjectKind::kQuery);
  io.u64(m.query_id.value);
  io.f64(m.stream_rate);
  io.u64(m.source.value);
  io.boolean(m.probe_only);
  io.u64(m.trace_id);
  io.check(m.depth <= m.key.width());
  if (m.kind != ObjectKind::kQuery) return;
  unsigned scope_depth = m.scope_depth.value_or(m.key.width());
  query_terms(io, m.key, scope_depth, m.predicates);
  if constexpr (IO::kReading) m.scope_depth = scope_depth;
}

template <class IO>
void fields(IO& io, Is<AcceptObjectOk> auto& m) {
  io.u8(m.depth);
}

template <class IO>
void fields(IO& io, Is<IncorrectDepth> auto& m) {
  io.u8(m.dmin);
}

template <class IO>
void fields(IO& io, Is<AcceptKeyGroup> auto& m) {
  fields(io, m.group);
  io.u64(m.parent.value);
  io.boolean(m.root);
  io.u64(m.epoch);
  io.vec(m.streams);
  io.vec(m.queries);
  io.blob(m.app_state);
}

template <class IO>
void fields(IO& io, Is<AcceptKeyGroupAck> auto& m) {
  fields(io, m.group);
}

template <class IO>
void fields(IO& io, Is<ReclaimKeyGroup> auto& m) {
  fields(io, m.group);
}

template <class IO>
void fields(IO& io, Is<ReclaimRefused> auto& m) {
  fields(io, m.group);
}

template <class IO>
void fields(IO& io, Is<DropReplica> auto& m) {
  fields(io, m.group);
}

template <class IO>
void fields(IO& io, Is<LoadReport> auto& m) {
  fields(io, m.group);
  io.f64(m.load);
  io.boolean(m.is_leaf);
}

template <class IO>
void fields(IO& io, Is<ReclaimAck> auto& m) {
  fields(io, m.group);
  io.vec(m.streams);
  io.vec(m.queries);
  io.blob(m.app_state);
}

template <class IO>
void fields(IO& io, Is<Gossip> auto& m) {
  io.enumeration(m.kind, GossipKind::kPing, GossipKind::kAck);
  io.u64(m.sequence);
  io.u64(m.target.value);
  io.vec(m.updates);
  // The census is the last field: the bytes left are its encoding.
  if constexpr (IO::kReading) m.census_bytes = io.r.remaining();
  io.vec(m.census);
}

template <class IO>
void fields(IO& io, Is<ReplAppend> auto& m) {
  fields(io, m.group);
  io.u64(m.owner.value);
  io.u64(m.epoch);
  io.u64(m.base_seq);
  io.u64(m.trace_id);
  io.vec(m.entries);
}

template <class IO>
void fields(IO& io, Is<ReplAck> auto& m) {
  fields(io, m.group);
  fields(io, m.head);
  io.boolean(m.ok);
}

template <class IO>
void fields(IO& io, Is<SnapshotOffer> auto& m) {
  fields(io, m.group);
  io.u64(m.owner.value);
  fields(io, m.head);
  io.boolean(m.root);
  io.u64(m.parent.value);
  io.u32(m.total_chunks);
  io.u64(m.trace_id);
  io.check(m.total_chunks != 0);
}

template <class IO>
void fields(IO& io, Is<SnapshotChunk> auto& m) {
  fields(io, m.group);
  fields(io, m.head);
  io.u32(m.index);
  io.u32(m.total);
  io.u64(m.trace_id);
  io.vec(m.streams);
  io.vec(m.queries);
}

template <class IO>
void fields(IO& io, Is<AntiEntropyProbe> auto& m) {
  io.u64(m.owner.value);
  io.vec(m.heads);
}

template <class IO>
void fields(IO& io, Is<AntiEntropyDiff> auto& m) {
  io.vec(m.behind);
}

}  // namespace

std::uint32_t census_record_crc(const NodeCensusRecord& rec) {
  Writer w;
  Encoder io{w};
  census_content(io, rec);
  return crc32(w.data());
}

namespace {

// A fenced payload is [type u8][crc u32][content...].
constexpr std::size_t kCrcSlot = 1;
constexpr std::size_t kContentOffset = kCrcSlot + 4;

/// The content fence of one fenced payload: CRC32 over its type byte
/// and its content, skipping the slot.
std::uint32_t fence_crc(std::span<const std::uint8_t> payload) {
  return crc32(payload.subspan(kContentOffset),
               crc32(payload.first(kCrcSlot)));
}

// One payload's bytes, [type][fields...]. A fenced type's CRC slot is
// stamped once the content is in, patched in place the way
// finish_frame patches the length.
template <class T>
void encode_payload(Writer& w, const T& m) {
  const std::size_t start = w.size();
  w.u8(std::uint8_t(T::kType));
  if constexpr (fenced(T::kType)) w.u32(0);
  Encoder io{w};
  fields(io, m);
  if constexpr (fenced(T::kType)) {
    w.patch_u32(start + kCrcSlot,
                fence_crc(std::span(w.data()).subspan(start)));
  }
}

/// Decodes a `T` payload. A fenced type's verdict is its stamp checked
/// over the whole payload received.
template <class T>
Expected<Message> decode_payload(std::span<const std::uint8_t> payload) {
  Reader r(payload.subspan(1));  // past the type byte
  T m;
  if constexpr (fenced(T::kType)) {
    const std::uint32_t stamp = r.u32();
    m.crc_ok = r.ok() && stamp == fence_crc(payload);
  }
  Decoder io{r};
  fields(io, m);
  if (!r.exhausted()) {
    return Error::protocol("malformed, truncated or oversized payload of "
                           "message type " +
                           std::to_string(int(T::kType)));
  }
  return Message(std::move(m));
}

using DecodeFn = Expected<Message> (*)(std::span<const std::uint8_t>);

using Alternatives = std::make_index_sequence<std::variant_size_v<Message>>;
template <std::size_t I>
using Alternative = std::variant_alternative_t<I, Message>;

/// The decoder of each type byte, built from Message's alternatives: a
/// type that encodes has one by construction.
constexpr auto kDecoders = []<std::size_t... I>(std::index_sequence<I...>) {
  std::array<DecodeFn, 256> table{};
  ((table[std::size_t(Alternative<I>::kType)] =
        &decode_payload<Alternative<I>>),
   ...);
  return table;
}(Alternatives{});

static_assert(
    []<std::size_t... I>(std::index_sequence<I...>) {
      std::array<bool, 256> taken{};
      return (!std::exchange(taken[std::size_t(Alternative<I>::kType)], true) &&
              ...);
    }(Alternatives{}),
    "every Message alternative needs a distinct MsgType");

}  // namespace

void encode_message(Writer& w, const Message& msg) {
  std::visit([&](const auto& m) { encode_payload(w, m); }, msg);
}

Expected<Message> decode_message(std::span<const std::uint8_t> payload) {
  if (payload.empty()) return Error::protocol("empty message payload");
  const DecodeFn decode = kDecoders[payload[0]];
  if (decode == nullptr) {
    return Error::protocol("unknown message type " +
                           std::to_string(payload[0]));
  }
  return decode(payload);
}

void encode_reply(Writer& w, const AcceptObjectReply& reply) {
  std::visit([&](const auto& m) { encode_payload(w, m); }, reply);
}

Expected<AcceptObjectReply> decode_reply(
    std::span<const std::uint8_t> payload) {
  auto msg = decode_message(payload);
  if (!msg.ok()) return msg.error();
  if (const auto* ok = std::get_if<AcceptObjectOk>(&msg.value())) {
    return AcceptObjectReply(*ok);
  }
  if (const auto* bad = std::get_if<IncorrectDepth>(&msg.value())) {
    return AcceptObjectReply(*bad);
  }
  return Error::protocol("reply frame does not carry a reply message");
}

Writer begin_frame(const Envelope& env) {
  Writer w;
  w.reserve(128);
  w.u32(0);  // length slot, patched by finish_frame
  w.u8(kProtocolVersion);
  w.u8(std::uint8_t(env.kind));
  w.u64(env.request_id);
  w.u64(env.sender.value);
  return w;
}

std::vector<std::uint8_t> finish_frame(Writer&& w) {
  w.patch_u32(0, std::uint32_t(w.size() - 4));
  return w.take();
}

std::vector<std::uint8_t> oneway_frame(ServerId sender, const Message& msg) {
  auto w = begin_frame(Envelope{FrameKind::kOneway, 0, sender});
  encode_message(w, msg);
  return finish_frame(std::move(w));
}

std::span<std::uint8_t> fenced_span(std::span<std::uint8_t> frame) {
  // The payload follows begin_frame's length slot and envelope header.
  constexpr std::size_t kPayload = 4 + 1 + 1 + 8 + 8;
  if (frame.size() <= kPayload + kCrcSlot ||
      !fenced(MsgType(frame[kPayload]))) {
    return {};
  }
  return frame.subspan(kPayload + kCrcSlot);
}

Expected<DecodedFrame> decode_frame(std::span<const std::uint8_t> frame) {
  Reader r(frame);
  const auto version = r.u8();
  if (!r.ok()) return Error::protocol("empty frame");
  if (version != kProtocolVersion) {
    return Error::protocol("unsupported protocol version " +
                           std::to_string(version));
  }
  DecodedFrame out;
  const auto kind = r.u8();
  if (kind > std::uint8_t(FrameKind::kResponse)) {
    return Error::protocol("bad frame kind");
  }
  out.envelope.kind = FrameKind(kind);
  out.envelope.request_id = r.u64();
  out.envelope.sender = ServerId{r.u64()};
  if (!r.ok()) return Error::protocol("truncated frame header");
  out.payload = frame.last(r.remaining());
  return out;
}

}  // namespace clash::wire
