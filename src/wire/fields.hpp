// Field lists: the byte layout of each encoded type, declared once. A
// field list is an overload `fields(io, value)` that names the value's
// fields in wire order, and two adapters walk it. Encoder writes each
// field through a Writer. Decoder reads each one into the value through
// a Reader and validates as it goes: an enum byte out of range, a
// non-canonical group, a vector count larger than the bytes left or a
// failed `check` latches the Reader (Reader::fail), so the caller
// rejects the payload once, at the end. A list that must act
// differently by direction (a value behind accessors, a verdict over
// the received bytes) tests `IO::kReading`.
//
// This header holds the lists that messages, the WAL record and the
// snapshot file share, and every vector element's; each message's own
// list sits in wire/codec.cpp.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "clash/messages.hpp"
#include "common/crc32.hpp"
#include "wire/buffer.hpp"

namespace clash::wire {

/// `T` is `U` or `const U`: one list serves the Encoder (const values)
/// and the Decoder (mutable ones).
template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

/// Fewest bytes one `T` encodes to: the bound a vector count of `T`s is
/// checked against, declared beside T's field list. It must never
/// exceed T's true minimum, or a valid payload would be rejected.
template <class T>
constexpr std::size_t min_bytes() {
  static_assert(sizeof(T) == 0, "declare min_bytes<T> beside T's fields");
  return 0;
}

/// Walks a field list, writing each field.
struct Encoder {
  static constexpr bool kReading = false;
  Writer& w;

  void u8(auto v) { w.u8(std::uint8_t(v)); }
  void u32(auto v) { w.u32(std::uint32_t(v)); }
  void u64(auto v) { w.u64(std::uint64_t(v)); }
  void f64(double v) { w.f64(v); }
  void boolean(bool v) { w.boolean(v); }
  template <class E>
  void enumeration(E v, E /*first*/, E /*last*/) {
    u8(v);
  }
  /// Written values are valid by construction.
  void check(bool /*ok*/) {}
  /// [count u32][count elements]
  template <class T>
  void vec(const std::vector<T>& v) {
    u32(v.size());
    for (const T& item : v) fields(*this, item);
  }
  /// [length u32][bytes]
  void blob(const std::vector<std::uint8_t>& b) {
    u32(b.size());
    w.bytes(b);
  }
};

/// Walks a field list, reading each field into the value.
struct Decoder {
  static constexpr bool kReading = true;
  Reader& r;

  template <class V>
  void u8(V& v) {
    static_assert(!std::is_enum_v<V>, "read an enum with enumeration()");
    v = V(r.u8());
  }
  template <class V>
  void u32(V& v) {
    v = V(r.u32());
  }
  template <class V>
  void u64(V& v) {
    v = V(r.u64());
  }
  void f64(double& v) { v = r.f64(); }
  void boolean(bool& v) { v = r.boolean(); }
  /// An enum byte in [first, last]; any other value fails the read and
  /// leaves `e` as it was.
  template <class E>
  void enumeration(E& e, E first, E last) {
    const auto v = r.u8();
    if (v < std::uint8_t(first) || v > std::uint8_t(last)) {
      r.fail();
      return;
    }
    e = E(v);
  }
  void check(bool ok) {
    if (!ok) r.fail();
  }
  template <class T>
  void vec(std::vector<T>& v) {
    const std::uint32_t count = r.u32();
    // A count claiming more elements than the bytes left can hold is
    // rejected before anything is allocated.
    if (std::size_t(count) * min_bytes<T>() > r.remaining()) {
      r.fail();
      return;
    }
    v.resize(count);
    for (T& item : v) fields(*this, item);
  }
  void blob(std::vector<std::uint8_t>& b) {
    const auto bytes = r.bytes(r.u32());
    b.assign(bytes.begin(), bytes.end());
  }
  [[nodiscard]] bool ok() const { return r.ok(); }
};

/// Write `v` by its field list.
template <class T>
void write(Writer& w, const T& v) {
  Encoder io{w};
  fields(io, v);
}

/// Read `v` by its field list; a failure latches `r`.
template <class T>
void read(Reader& r, T& v) {
  Decoder io{r};
  fields(io, v);
}

// --- Keys and groups ----------------------------------------------------

/// The top bit of a key's width byte: no key is wider than 64 bits, so
/// a QueryInfo flags its scope terms there.
constexpr std::uint8_t kWidthFlag = 0x80;

/// [width u8, `flag` in its top bit][value u64]. Reading, a width
/// outside [1, 64] or a value wider than the width fails.
template <class IO>
void key_fields(IO& io, Is<Key> auto& k, bool& flag) {
  auto width = std::uint8_t(k.width() | (flag ? kWidthFlag : 0));
  std::uint64_t value = k.value();
  io.u8(width);
  io.u64(value);
  if constexpr (IO::kReading) {
    flag = (width & kWidthFlag) != 0;
    width &= ~kWidthFlag;
    const bool ok = width >= 1 && width <= Key::kMaxWidth &&
                    (width == 64 || value < (std::uint64_t{1} << width));
    io.check(ok);
    if (ok) k = Key(value, width);
  }
}

template <class IO>
void fields(IO& io, Is<Key> auto& k) {
  bool flag = false;
  key_fields(io, k, flag);
  io.check(!flag);
}

/// [virtual key][depth u8], canonical only: the key's bits below the
/// depth are zero.
template <class IO>
void fields(IO& io, Is<KeyGroup> auto& g) {
  Key vkey = g.virtual_key();
  auto depth = std::uint8_t(g.depth());
  fields(io, vkey);
  io.u8(depth);
  if constexpr (IO::kReading) {
    const bool ok =
        io.ok() && depth <= vkey.width() && shape(vkey, depth) == vkey;
    io.check(ok);
    if (ok) g = KeyGroup::of(vkey, depth);
  }
}

template <class IO>
void fields(IO& io, Is<repl::LogHead> auto& h) {
  io.u64(h.epoch);
  io.u64(h.seq);
}

/// group 10, head 16
template <>
constexpr std::size_t min_bytes<GroupHead>() { return 26; }

template <class IO>
void fields(IO& io, Is<GroupHead> auto& gh) {
  fields(io, gh.group);
  fields(io, gh.head);
}

// --- Objects and log ops ------------------------------------------------

/// source 8, key 9, rate 8
template <>
constexpr std::size_t min_bytes<StreamInfo>() { return 25; }

template <class IO>
void fields(IO& io, Is<StreamInfo> auto& s) {
  io.u64(s.source.value);
  fields(io, s.key);
  io.f64(s.rate);
}

/// attr 4, op 1, value 8
template <>
constexpr std::size_t min_bytes<cq::Predicate>() { return 13; }

template <class IO>
void fields(IO& io, Is<cq::Predicate> auto& p) {
  using Op = cq::Predicate::Op;
  io.u32(p.attr);
  io.enumeration(p.op, Op::kEq, Op::kGe);
  io.u64(p.value);
}

/// A query's scope depth, at most its key's width, and its predicates.
template <class IO>
void query_terms(IO& io, const Key& key, auto& scope_depth,
                 auto& predicates) {
  io.u8(scope_depth);
  io.check(scope_depth <= key.width());
  io.vec(predicates);
}

/// id 8, key 9 (an unscoped query)
template <>
constexpr std::size_t min_bytes<QueryInfo>() { return 17; }

/// [id u64][key] and, when the key's width byte carries kWidthFlag,
/// [query terms]. A query scoped to its own key with no predicates
/// leaves the flag clear and ends at its key: those bytes are pinned
/// (Codec.ReplAppendBytesArePinned).
template <class IO>
void fields(IO& io, Is<QueryInfo> auto& q) {
  io.u64(q.id.value);
  bool scoped = q.scope_depth != q.key.width() || !q.predicates.empty();
  key_fields(io, q.key, scoped);
  if (!scoped) {
    if constexpr (IO::kReading) q.scope_depth = std::uint8_t(q.key.width());
    return;
  }
  query_terms(io, q.key, q.scope_depth, q.predicates);
  // The flagged form of an unscoped query would be a second encoding
  // of the same value.
  io.check(q.scope_depth != q.key.width() || !q.predicates.empty());
}

/// kind 1, source or id 8
template <>
constexpr std::size_t min_bytes<repl::LogOp>() { return 9; }

/// [kind u8][the fields the kind names]
template <class IO>
void fields(IO& io, Is<repl::LogOp> auto& op) {
  using repl::OpKind;
  io.enumeration(op.kind, OpKind::kPutStream, OpKind::kDelQuery);
  switch (op.kind) {
    case OpKind::kPutStream:
      fields(io, op.stream);
      break;
    case OpKind::kDelStream:
      io.u64(op.source.value);
      break;
    case OpKind::kPutQuery:
      fields(io, op.query);
      break;
    case OpKind::kDelQuery:
      io.u64(op.query_id.value);
      break;
  }
}

/// LogOp::put_stream(s) and put_query(q) as the list above writes them,
/// read from the object in place instead of from a LogOp copy of it.
inline void write_put(Writer& w, const StreamInfo& s) {
  w.u8(std::uint8_t(repl::OpKind::kPutStream));
  write(w, s);
}
inline void write_put(Writer& w, const QueryInfo& q) {
  w.u8(std::uint8_t(repl::OpKind::kPutQuery));
  write(w, q);
}

// --- Membership and census ----------------------------------------------

/// subject 8, state 1, incarnation 8
template <>
constexpr std::size_t min_bytes<MemberUpdate>() { return 17; }

template <class IO>
void fields(IO& io, Is<MemberUpdate> auto& u) {
  io.u64(u.subject.value);
  io.enumeration(u.state, MemberState::kAlive, MemberState::kDead);
  io.u64(u.incarnation);
}

template <class IO>
void fields(IO& io, Is<GroupCost> auto& c) {
  io.u64(c.puts);
  io.u64(c.matches);
  io.u64(c.bytes_served);
  io.u64(c.repl_bytes);
  io.u64(c.storage_bytes);
}

/// group 10, cost 40
template <>
constexpr std::size_t min_bytes<CensusGroupCost>() { return 50; }

template <class IO>
void fields(IO& io, Is<CensusGroupCost> auto& gc) {
  fields(io, gc.group);
  fields(io, gc.cost);
}

/// Everything in a census record but its trailing checksum: the bytes
/// the checksum covers (census_record_crc).
template <class IO>
void census_content(IO& io, Is<NodeCensusRecord> auto& rec) {
  io.u64(rec.node.value);
  io.u64(rec.incarnation);
  io.u64(rec.seq);
  io.f64(rec.load);
  // A non-finite or negative load would poison every fold downstream.
  io.check(std::isfinite(rec.load) && rec.load >= 0);
  io.u32(rec.active_groups);
  io.u32(rec.replica_records);
  io.u64(rec.queries);
  io.u64(rec.streams);
  fields(io, rec.totals);
  io.vec(rec.top_groups);
}

/// fixed fields 96, empty top-K count 4, checksum 4
template <>
constexpr std::size_t min_bytes<NodeCensusRecord>() { return 104; }

/// [content][checksum u32]. Reading, crc_ok is the verdict over the
/// content bytes received, so no bypass value exists.
template <class IO>
void fields(IO& io, Is<NodeCensusRecord> auto& rec) {
  if constexpr (IO::kReading) {
    const auto record = io.r.unread();
    census_content(io, rec);
    const auto content = record.first(record.size() - io.r.remaining());
    io.u32(rec.checksum);
    rec.crc_ok = io.ok() && rec.checksum == crc32(content);
  } else {
    census_content(io, rec);
    io.u32(rec.checksum);
  }
}

}  // namespace clash::wire
