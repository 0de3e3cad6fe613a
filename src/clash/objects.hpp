// The stored-object descriptors shared by protocol messages, group
// state, and the replication log: stream registrations and continuous
// queries. Split out of messages.hpp so src/repl/ op types can carry
// them without pulling in the whole message set.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "cq/query.hpp"
#include "keys/key.hpp"
#include "keys/key_group.hpp"

namespace clash {

/// What an ACCEPT_OBJECT carries: a data packet (transient, processed
/// and dropped) or a continuous query (stored state, migrated on split).
enum class ObjectKind : std::uint8_t { kData, kQuery };

/// A stored stream registration: the sim registers each source's
/// per-stream data rate with the server managing its group so loads are
/// exact without per-packet events.
struct StreamInfo {
  ClientId source;
  Key key{0, 24};
  double rate = 0;  // packets/sec
};

/// A stored continuous query (Section 5): it fires for each record
/// inside its scope whose attributes pass every predicate. The scope is
/// the prefix group of depth `scope_depth` around `key`; it defaults to
/// the key itself. The group managing `key` stores the query; a split
/// hands it, under the same id, to each half its scope intersects, and
/// a merge keeps one copy.
struct QueryInfo {
  QueryId id;
  Key key{0, 24};
  std::uint8_t scope_depth = 24;
  std::vector<cq::Predicate> predicates;

  QueryInfo() = default;
  QueryInfo(QueryId qid, Key k) : QueryInfo(qid, k, k.width()) {}
  QueryInfo(QueryId qid, Key k, unsigned depth,
            std::vector<cq::Predicate> preds = {})
      : id(qid),
        key(k),
        scope_depth(std::uint8_t(depth)),
        predicates(std::move(preds)) {}

  [[nodiscard]] KeyGroup scope() const {
    return KeyGroup::of(key, scope_depth);
  }
  /// `r` lies in the scope and passes every predicate (conjunction).
  [[nodiscard]] bool matches(const cq::Record& r) const;
};

}  // namespace clash
