// The objects held by one key group: stream registrations and stored
// continuous queries. Split out of server.hpp so the replication log
// (src/repl/) can apply operations to group state without pulling in
// the whole server.
#pragma once

#include "clash/objects.hpp"
#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "cq/query_index.hpp"

namespace clash {

/// Objects (stream registrations + stored queries) held by one group.
/// Hashed by id in flat open-addressed maps: every put upserts here, on
/// the owner and on each replica, so the lookup is one probe into one
/// slot array. `queries` is the group's only store of its continuous
/// queries, indexed for matching (cq::QueryIndex). No iterator, pointer
/// or reference into `streams` or `queries` survives an insert or an
/// erase (see common/flat_map.hpp).
/// Iteration order is unspecified and may differ between two copies
/// holding the same objects; nothing may depend on it (transfers,
/// snapshots and splits carry sets).
struct GroupState {
  FlatMap<ClientId, StreamInfo> streams;
  cq::QueryIndex queries;
  double stream_rate = 0;  // invariant: sum of streams[*].rate

  [[nodiscard]] bool empty() const {
    return streams.empty() && queries.empty();
  }
};

}  // namespace clash
