#include "wire/codec.hpp"

#include <cmath>

#include "common/crc32.hpp"

namespace clash::wire {
namespace {

void encode_stream_info(Writer& w, const StreamInfo& s) {
  w.u64(s.source.value);
  encode_key(w, s.key);
  w.f64(s.rate);
}

StreamInfo decode_stream_info(Reader& r) {
  StreamInfo s;
  s.source = ClientId{r.u64()};
  s.key = decode_key(r);
  s.rate = r.f64();
  return s;
}

void encode_query_info(Writer& w, const QueryInfo& q) {
  w.u64(q.id.value);
  encode_key(w, q.key);
}

void encode_member_update(Writer& w, const MemberUpdate& u) {
  w.u64(u.subject.value);
  w.u8(std::uint8_t(u.state));
  w.u64(u.incarnation);
}

MemberUpdate decode_member_update(Reader& r) {
  MemberUpdate u;
  u.subject = ServerId{r.u64()};
  const auto state = r.u8();
  if (state > std::uint8_t(MemberState::kDead)) r.fail();
  u.state = MemberState(state);
  u.incarnation = r.u64();
  return u;
}

QueryInfo decode_query_info(Reader& r) {
  QueryInfo q;
  q.id = QueryId{r.u64()};
  q.key = decode_key(r);
  return q;
}

template <typename T, typename EncodeFn>
void encode_vector(Writer& w, const std::vector<T>& v, EncodeFn fn) {
  w.u32(std::uint32_t(v.size()));
  for (const auto& item : v) fn(w, item);
}

// Guards against adversarial counts: a count claiming more elements
// than bytes remain is rejected before any allocation.
template <typename T, typename DecodeFn>
bool decode_vector(Reader& r, std::vector<T>& out, std::size_t min_bytes,
                   DecodeFn fn) {
  const auto count = r.u32();
  if (std::size_t(count) * min_bytes > r.remaining()) return false;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    out.push_back(fn(r));
  }
  return r.ok();
}

bool decode_blob(Reader& r, std::vector<std::uint8_t>& out) {
  const auto len = r.u32();
  if (std::size_t(len) > r.remaining()) return false;
  out.resize(len);
  for (auto& b : out) b = r.u8();
  return r.ok();
}

void encode_log_head(Writer& w, const repl::LogHead& h) {
  w.u64(h.epoch);
  w.u64(h.seq);
}

repl::LogHead decode_log_head(Reader& r) {
  repl::LogHead h;
  h.epoch = r.u64();
  h.seq = r.u64();
  return h;
}

void encode_group_head(Writer& w, const GroupHead& gh) {
  encode_group(w, gh.group);
  encode_log_head(w, gh.head);
}

GroupHead decode_group_head(Reader& r) {
  GroupHead gh;
  gh.group = decode_group(r);
  gh.head = decode_log_head(r);
  return gh;
}

void encode_group_cost(Writer& w, const GroupCost& c) {
  w.u64(c.puts);
  w.u64(c.matches);
  w.u64(c.bytes_served);
  w.u64(c.repl_bytes);
  w.u64(c.storage_bytes);
}

GroupCost decode_group_cost(Reader& r) {
  GroupCost c;
  c.puts = r.u64();
  c.matches = r.u64();
  c.bytes_served = r.u64();
  c.repl_bytes = r.u64();
  c.storage_bytes = r.u64();
  return c;
}

void encode_census_group_cost(Writer& w, const CensusGroupCost& gc) {
  encode_group(w, gc.group);
  encode_group_cost(w, gc.cost);
}

CensusGroupCost decode_census_group_cost(Reader& r) {
  CensusGroupCost gc;
  gc.group = decode_group(r);
  gc.cost = decode_group_cost(r);
  return gc;
}

// Everything in the record except the trailing checksum — the exact
// bytes census_record_crc runs over.
void encode_census_content(Writer& w, const NodeCensusRecord& rec) {
  w.u64(rec.node.value);
  w.u64(rec.incarnation);
  w.u64(rec.seq);
  w.f64(rec.load);
  w.u32(rec.active_groups);
  w.u32(rec.replica_records);
  w.u64(rec.queries);
  w.u64(rec.streams);
  encode_group_cost(w, rec.totals);
  encode_vector(w, rec.top_groups, encode_census_group_cost);
}

}  // namespace

void encode_log_op(Writer& w, const repl::LogOp& op) {
  w.u8(std::uint8_t(op.kind));
  switch (op.kind) {
    case repl::OpKind::kPutStream:
      encode_stream_info(w, op.stream);
      break;
    case repl::OpKind::kDelStream:
      w.u64(op.source.value);
      break;
    case repl::OpKind::kPutQuery:
      encode_query_info(w, op.query);
      break;
    case repl::OpKind::kDelQuery:
      w.u64(op.query_id.value);
      break;
    case repl::OpKind::kAppDelta:
      w.u32(std::uint32_t(op.app_delta.size()));
      w.bytes(op.app_delta);
      break;
  }
}

repl::LogOp decode_log_op(Reader& r) {
  repl::LogOp op;
  const auto kind = r.u8();
  if (kind > std::uint8_t(repl::OpKind::kAppDelta)) {
    r.fail();
    return op;
  }
  op.kind = repl::OpKind(kind);
  switch (op.kind) {
    case repl::OpKind::kPutStream:
      op.stream = decode_stream_info(r);
      break;
    case repl::OpKind::kDelStream:
      op.source = ClientId{r.u64()};
      break;
    case repl::OpKind::kPutQuery:
      op.query = decode_query_info(r);
      break;
    case repl::OpKind::kDelQuery:
      op.query_id = QueryId{r.u64()};
      break;
    case repl::OpKind::kAppDelta:
      if (!decode_blob(r, op.app_delta)) r.fail();
      break;
  }
  return op;
}

void encode_key(Writer& w, const Key& k) {
  w.u8(std::uint8_t(k.width()));
  w.u64(k.value());
}

Key decode_key(Reader& r) {
  const auto width = r.u8();
  const auto value = r.u64();
  if (!r.ok() || width == 0 || width > Key::kMaxWidth ||
      (width < 64 && value >= (std::uint64_t{1} << width))) {
    r.fail();
    return Key(0, 1);
  }
  return Key(value, width);
}

void encode_group(Writer& w, const KeyGroup& g) {
  encode_key(w, g.virtual_key());
  w.u8(std::uint8_t(g.depth()));
}

KeyGroup decode_group(Reader& r) {
  const Key vkey = decode_key(r);
  const auto depth = r.u8();
  if (!r.ok() || depth > vkey.width()) {
    r.fail();
    return KeyGroup::root(vkey.width());
  }
  // Reject non-canonical encodings (suffix bits below depth must be 0).
  if (shape(vkey, depth) != vkey) {
    r.fail();
    return KeyGroup::root(vkey.width());
  }
  return KeyGroup::of(vkey, depth);
}

void encode_census_record(Writer& w, const NodeCensusRecord& rec) {
  encode_census_content(w, rec);
  w.u32(rec.checksum);  // trailing so the CRC bytes are a prefix
}

NodeCensusRecord decode_census_record(Reader& r) {
  NodeCensusRecord rec;
  rec.node = ServerId{r.u64()};
  rec.incarnation = r.u64();
  rec.seq = r.u64();
  rec.load = r.f64();
  if (r.ok() && !(std::isfinite(rec.load) && rec.load >= 0)) r.fail();
  rec.active_groups = r.u32();
  rec.replica_records = r.u32();
  rec.queries = r.u64();
  rec.streams = r.u64();
  rec.totals = decode_group_cost(r);
  // 50 = encoded CensusGroupCost (group 10 + cost 40).
  if (!decode_vector(r, rec.top_groups, 50, decode_census_group_cost)) {
    r.fail();
  }
  rec.checksum = r.u32();
  return rec;
}

std::uint32_t census_record_crc(const NodeCensusRecord& rec) {
  Writer w;
  encode_census_content(w, rec);
  Crc32 crc;
  crc.update(std::span<const std::uint8_t>(w.data().data(), w.size()));
  return crc.value();
}

std::size_t encoded_census_size(
    const std::vector<NodeCensusRecord>& census) {
  Writer w;
  encode_vector(w, census, encode_census_record);
  return w.size();
}

namespace {

// One payload's bytes, [type][fields...]. Checksummed payloads are
// encoded straight from their struct, so fencing them needs no
// temporary Message.
template <typename T>
void encode_payload(Writer& w, const T& m) {
  if constexpr (std::is_same_v<T, AcceptObject>) {
    w.u8(std::uint8_t(MsgType::kAcceptObject));
    encode_key(w, m.key);
    w.u8(std::uint8_t(m.depth));
    w.u8(std::uint8_t(m.kind));
    w.u64(m.query_id.value);
    w.f64(m.stream_rate);
    w.u64(m.source.value);
    w.boolean(m.probe_only);
    w.u64(m.trace_id);
  } else if constexpr (std::is_same_v<T, AcceptObjectOk>) {
    w.u8(std::uint8_t(MsgType::kAcceptObjectOk));
    w.u8(std::uint8_t(m.depth));
  } else if constexpr (std::is_same_v<T, IncorrectDepth>) {
    w.u8(std::uint8_t(MsgType::kIncorrectDepth));
    w.u8(std::uint8_t(m.dmin));
  } else if constexpr (std::is_same_v<T, AcceptKeyGroup>) {
    w.u8(std::uint8_t(MsgType::kAcceptKeyGroup));
    encode_group(w, m.group);
    w.u64(m.parent.value);
    w.boolean(m.root);
    w.u64(m.epoch);
    encode_vector(w, m.streams, encode_stream_info);
    encode_vector(w, m.queries, encode_query_info);
    w.u32(std::uint32_t(m.app_state.size()));
    w.bytes(m.app_state);
  } else if constexpr (std::is_same_v<T, AcceptKeyGroupAck>) {
    w.u8(std::uint8_t(MsgType::kAcceptKeyGroupAck));
    encode_group(w, m.group);
  } else if constexpr (std::is_same_v<T, LoadReport>) {
    w.u8(std::uint8_t(MsgType::kLoadReport));
    encode_group(w, m.group);
    w.f64(m.load);
    w.boolean(m.is_leaf);
  } else if constexpr (std::is_same_v<T, ReclaimKeyGroup>) {
    w.u8(std::uint8_t(MsgType::kReclaimKeyGroup));
    encode_group(w, m.group);
  } else if constexpr (std::is_same_v<T, ReclaimAck>) {
    w.u8(std::uint8_t(MsgType::kReclaimAck));
    encode_group(w, m.group);
    encode_vector(w, m.streams, encode_stream_info);
    encode_vector(w, m.queries, encode_query_info);
    w.u32(std::uint32_t(m.app_state.size()));
    w.bytes(m.app_state);
  } else if constexpr (std::is_same_v<T, ReclaimRefused>) {
    w.u8(std::uint8_t(MsgType::kReclaimRefused));
    encode_group(w, m.group);
  } else if constexpr (std::is_same_v<T, ReplicateGroup>) {
    w.u8(std::uint8_t(MsgType::kReplicateGroup));
    encode_group(w, m.group);
    w.u64(m.owner.value);
    w.boolean(m.root);
    w.u64(m.parent.value);
    encode_vector(w, m.streams, encode_stream_info);
    encode_vector(w, m.queries, encode_query_info);
  } else if constexpr (std::is_same_v<T, DropReplica>) {
    w.u8(std::uint8_t(MsgType::kDropReplica));
    encode_group(w, m.group);
  } else if constexpr (std::is_same_v<T, Gossip>) {
    w.u8(std::uint8_t(MsgType::kGossip));
    w.u32(m.checksum);  // content fence: always right after type
    w.u8(std::uint8_t(m.kind));
    w.u64(m.sequence);
    w.u64(m.target.value);
    encode_vector(w, m.updates, encode_member_update);
    encode_vector(w, m.census, encode_census_record);
  } else if constexpr (std::is_same_v<T, ReplAppend>) {
    w.u8(std::uint8_t(MsgType::kReplAppend));
    w.u32(m.checksum);
    encode_group(w, m.group);
    w.u64(m.owner.value);
    w.u64(m.epoch);
    w.u64(m.base_seq);
    w.u64(m.trace_id);
    encode_vector(w, m.entries,
                  [](Writer& ww, const repl::LogOp& op) {
                    encode_log_op(ww, op);
                  });
  } else if constexpr (std::is_same_v<T, ReplAck>) {
    w.u8(std::uint8_t(MsgType::kReplAck));
    encode_group(w, m.group);
    encode_log_head(w, m.head);
    w.boolean(m.ok);
  } else if constexpr (std::is_same_v<T, SnapshotOffer>) {
    w.u8(std::uint8_t(MsgType::kSnapshotOffer));
    encode_group(w, m.group);
    w.u64(m.owner.value);
    encode_log_head(w, m.head);
    w.boolean(m.root);
    w.u64(m.parent.value);
    w.u32(m.total_chunks);
    w.u64(m.trace_id);
  } else if constexpr (std::is_same_v<T, SnapshotChunk>) {
    w.u8(std::uint8_t(MsgType::kSnapshotChunk));
    w.u32(m.checksum);
    encode_group(w, m.group);
    encode_log_head(w, m.head);
    w.u32(m.index);
    w.u32(m.total);
    w.u64(m.trace_id);
    encode_vector(w, m.streams, encode_stream_info);
    encode_vector(w, m.queries, encode_query_info);
    w.u32(std::uint32_t(m.app_state.size()));
    w.bytes(m.app_state);
    w.u32(std::uint32_t(m.app_deltas.size()));
    for (const auto& d : m.app_deltas) {
      w.u32(std::uint32_t(d.size()));
      w.bytes(d);
    }
  } else if constexpr (std::is_same_v<T, AntiEntropyProbe>) {
    w.u8(std::uint8_t(MsgType::kAntiEntropyProbe));
    w.u64(m.owner.value);
    encode_vector(w, m.heads, encode_group_head);
  } else if constexpr (std::is_same_v<T, AntiEntropyDiff>) {
    w.u8(std::uint8_t(MsgType::kAntiEntropyDiff));
    encode_vector(w, m.behind, encode_group_head);
  }
}

}  // namespace

void encode_message(Writer& w, const Message& msg) {
  std::visit([&](const auto& m) { encode_payload(w, m); }, msg);
}

std::size_t encoded_payload_size(const Message& msg) {
  Writer w;
  encode_message(w, msg);
  return w.size();
}

namespace {

// Checksummed payloads lay out as [type u8][checksum u32][content...];
// the CRC covers the type byte and the content, skipping its own slot,
// so it is independent of whatever checksum value the struct holds.
constexpr std::size_t kChecksumSlot = 1;
constexpr std::size_t kContentOffset = kChecksumSlot + 4;

template <typename P>
std::uint32_t crc_of_encoded(const P& m) {
  Writer w;
  encode_payload(w, m);
  const auto& bytes = w.data();
  Crc32 crc;
  crc.update(std::span<const std::uint8_t>(bytes.data(), kChecksumSlot));
  crc.update(std::span<const std::uint8_t>(bytes.data() + kContentOffset,
                                           bytes.size() - kContentOffset));
  return crc.value();
}

}  // namespace

std::uint32_t content_crc(const Gossip& m) { return crc_of_encoded(m); }
std::uint32_t content_crc(const ReplAppend& m) { return crc_of_encoded(m); }
std::uint32_t content_crc(const SnapshotChunk& m) { return crc_of_encoded(m); }

bool corruptible(const Message& msg) {
  return std::holds_alternative<Gossip>(msg) ||
         std::holds_alternative<ReplAppend>(msg) ||
         std::holds_alternative<SnapshotChunk>(msg);
}

std::optional<Message> corrupt_message(const Message& msg, Rng& rng) {
  if (!corruptible(msg)) return msg;  // fault scoped to fenced payloads
  Writer w;
  encode_message(w, msg);
  auto bytes = w.take();
  if (bytes.empty()) return std::nullopt;
  // Flip 1-3 bytes anywhere past the type byte (checksum slot
  // included: a damaged fence is a fence mismatch too).
  const unsigned flips = 1 + unsigned(rng.below(3));
  for (unsigned i = 0; i < flips; ++i) {
    const auto pos =
        kChecksumSlot + std::size_t(rng.below(bytes.size() - kChecksumSlot));
    bytes[pos] ^= std::uint8_t(1 + rng.below(255));
  }
  auto decoded = decode_message(bytes);
  if (!decoded.ok()) return std::nullopt;  // codec fence caught it
  return std::move(decoded.value());
}

Expected<Message> decode_message(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  const auto type = r.u8();
  if (!r.ok()) return Error::protocol("empty message payload");

  Message out = AcceptObjectOk{};
  switch (MsgType(type)) {
    case MsgType::kAcceptObject: {
      AcceptObject m;
      m.key = decode_key(r);
      m.depth = r.u8();
      const auto kind = r.u8();
      if (kind > std::uint8_t(ObjectKind::kQuery)) {
        return Error::protocol("bad object kind");
      }
      m.kind = ObjectKind(kind);
      m.query_id = QueryId{r.u64()};
      m.stream_rate = r.f64();
      m.source = ClientId{r.u64()};
      m.probe_only = r.boolean();
      m.trace_id = r.u64();
      if (r.ok() && m.depth > m.key.width()) {
        return Error::protocol("depth exceeds key width");
      }
      out = std::move(m);
      break;
    }
    case MsgType::kAcceptObjectOk: {
      out = AcceptObjectOk{r.u8()};
      break;
    }
    case MsgType::kIncorrectDepth: {
      out = IncorrectDepth{r.u8()};
      break;
    }
    case MsgType::kAcceptKeyGroup: {
      AcceptKeyGroup m;
      m.group = decode_group(r);
      m.parent = ServerId{r.u64()};
      m.root = r.boolean();
      m.epoch = r.u64();
      if (!decode_vector(r, m.streams, 17, decode_stream_info) ||
          !decode_vector(r, m.queries, 17, decode_query_info) ||
          !decode_blob(r, m.app_state)) {
        return Error::protocol("bad state vectors");
      }
      out = std::move(m);
      break;
    }
    case MsgType::kAcceptKeyGroupAck: {
      out = AcceptKeyGroupAck{decode_group(r)};
      break;
    }
    case MsgType::kLoadReport: {
      LoadReport m;
      m.group = decode_group(r);
      m.load = r.f64();
      m.is_leaf = r.boolean();
      out = m;
      break;
    }
    case MsgType::kReclaimKeyGroup: {
      out = ReclaimKeyGroup{decode_group(r)};
      break;
    }
    case MsgType::kReclaimAck: {
      ReclaimAck m;
      m.group = decode_group(r);
      if (!decode_vector(r, m.streams, 17, decode_stream_info) ||
          !decode_vector(r, m.queries, 17, decode_query_info) ||
          !decode_blob(r, m.app_state)) {
        return Error::protocol("bad state vectors");
      }
      out = std::move(m);
      break;
    }
    case MsgType::kReclaimRefused: {
      out = ReclaimRefused{decode_group(r)};
      break;
    }
    case MsgType::kReplicateGroup: {
      ReplicateGroup m;
      m.group = decode_group(r);
      m.owner = ServerId{r.u64()};
      m.root = r.boolean();
      m.parent = ServerId{r.u64()};
      if (!decode_vector(r, m.streams, 17, decode_stream_info) ||
          !decode_vector(r, m.queries, 17, decode_query_info)) {
        return Error::protocol("bad replica vectors");
      }
      out = std::move(m);
      break;
    }
    case MsgType::kDropReplica: {
      out = DropReplica{decode_group(r)};
      break;
    }
    case MsgType::kGossip: {
      Gossip m;
      m.checksum = r.u32();
      const auto kind = r.u8();
      if (kind > std::uint8_t(GossipKind::kAck)) {
        return Error::protocol("bad gossip kind");
      }
      m.kind = GossipKind(kind);
      m.sequence = r.u64();
      m.target = ServerId{r.u64()};
      if (!decode_vector(r, m.updates, 17, decode_member_update)) {
        return Error::protocol("bad membership updates");
      }
      // 104 = fixed census-record fields + empty top-K + checksum.
      if (!decode_vector(r, m.census, 104, decode_census_record)) {
        return Error::protocol("bad census records");
      }
      out = std::move(m);
      break;
    }
    case MsgType::kReplAppend: {
      ReplAppend m;
      m.checksum = r.u32();
      m.group = decode_group(r);
      m.owner = ServerId{r.u64()};
      m.epoch = r.u64();
      m.base_seq = r.u64();
      m.trace_id = r.u64();
      if (!decode_vector(r, m.entries, 9, decode_log_op)) {
        return Error::protocol("bad log entries");
      }
      out = std::move(m);
      break;
    }
    case MsgType::kReplAck: {
      ReplAck m;
      m.group = decode_group(r);
      m.head = decode_log_head(r);
      m.ok = r.boolean();
      out = m;
      break;
    }
    case MsgType::kSnapshotOffer: {
      SnapshotOffer m;
      m.group = decode_group(r);
      m.owner = ServerId{r.u64()};
      m.head = decode_log_head(r);
      m.root = r.boolean();
      m.parent = ServerId{r.u64()};
      m.total_chunks = r.u32();
      m.trace_id = r.u64();
      if (r.ok() && m.total_chunks == 0) {
        return Error::protocol("snapshot offer with zero chunks");
      }
      out = m;
      break;
    }
    case MsgType::kSnapshotChunk: {
      SnapshotChunk m;
      m.checksum = r.u32();
      m.group = decode_group(r);
      m.head = decode_log_head(r);
      m.index = r.u32();
      m.total = r.u32();
      m.trace_id = r.u64();
      if (!decode_vector(r, m.streams, 17, decode_stream_info) ||
          !decode_vector(r, m.queries, 17, decode_query_info) ||
          !decode_blob(r, m.app_state)) {
        return Error::protocol("bad snapshot chunk");
      }
      const auto n_deltas = r.u32();
      if (std::size_t(n_deltas) * 4 > r.remaining()) {
        return Error::protocol("bad snapshot chunk");
      }
      m.app_deltas.reserve(n_deltas);
      for (std::uint32_t i = 0; i < n_deltas && r.ok(); ++i) {
        if (!decode_blob(r, m.app_deltas.emplace_back())) {
          return Error::protocol("bad snapshot chunk");
        }
      }
      out = std::move(m);
      break;
    }
    case MsgType::kAntiEntropyProbe: {
      AntiEntropyProbe m;
      m.owner = ServerId{r.u64()};
      if (!decode_vector(r, m.heads, 26, decode_group_head)) {
        return Error::protocol("bad head vector");
      }
      out = std::move(m);
      break;
    }
    case MsgType::kAntiEntropyDiff: {
      AntiEntropyDiff m;
      if (!decode_vector(r, m.behind, 26, decode_group_head)) {
        return Error::protocol("bad head vector");
      }
      out = std::move(m);
      break;
    }
    default:
      return Error::protocol("unknown message type " + std::to_string(type));
  }
  if (!r.exhausted()) {
    return Error::protocol("truncated or oversized message payload");
  }
  return out;
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

std::vector<std::uint8_t> encode_frame(
    const Envelope& env, std::span<const std::uint8_t> payload) {
  Writer w;
  w.u8(kProtocolVersion);
  w.u8(std::uint8_t(env.kind));
  w.u64(env.request_id);
  w.u64(env.sender.value);
  w.bytes(payload);
  return w.take();
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
  out.payload.assign(frame.begin() + std::ptrdiff_t(frame.size() -
                                                    r.remaining()),
                     frame.end());
  return out;
}

}  // namespace clash::wire
