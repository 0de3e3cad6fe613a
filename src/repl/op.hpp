// Wire-visible types of the replication log: the (epoch, seq) head
// that totally orders the copies of one group, and the logged
// operations themselves. Kept free of the rest of src/repl so
// clash/messages.hpp can embed them in protocol messages.
#pragma once

#include <cstdint>
#include <string>

#include "clash/objects.hpp"
#include "common/types.hpp"

namespace clash::repl {

/// Position in a group's operation history: owner epoch + sequence
/// number of the last applied op. The epoch bumps whenever ownership
/// changes (promotion, handoff); seq increases monotonically within an
/// epoch. Lexicographic order.
struct LogHead {
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;

  friend constexpr bool operator==(const LogHead& a, const LogHead& b) {
    return a.epoch == b.epoch && a.seq == b.seq;
  }
  friend constexpr bool operator!=(const LogHead& a, const LogHead& b) {
    return !(a == b);
  }
  friend constexpr bool operator<(const LogHead& a, const LogHead& b) {
    if (a.epoch != b.epoch) return a.epoch < b.epoch;
    return a.seq < b.seq;
  }
  friend constexpr bool operator<=(const LogHead& a, const LogHead& b) {
    return a < b || a == b;
  }

  [[nodiscard]] std::string to_string() const;
};

/// One logged state mutation. Exactly the fields named by `kind` are
/// meaningful (and encoded on the wire).
enum class OpKind : std::uint8_t {
  kPutStream = 0,  // upsert `stream`
  kDelStream = 1,  // erase stream registered by `source`
  kPutQuery = 2,   // upsert `query`
  kDelQuery = 3,   // erase query `query_id`
  // 4 is retired (opaque application deltas): it decodes as an error.
};

struct LogOp {
  OpKind kind = OpKind::kPutStream;
  StreamInfo stream;    // kPutStream
  ClientId source{};    // kDelStream
  QueryInfo query;      // kPutQuery
  QueryId query_id{};   // kDelQuery

  static LogOp put_stream(StreamInfo s);
  static LogOp del_stream(ClientId source);
  static LogOp put_query(QueryInfo q);
  static LogOp del_query(QueryId id);
};

}  // namespace clash::repl
