// The continuous queries one key group stores (GroupState::queries),
// indexed for matching. Queries are bucketed by scope, so matching a
// record costs one bucket probe per scope depth present instead of one
// test per query — the "efficient indices over streams and queries
// with intersecting attribute values" clustering pay-off Section 1
// motivates. This is also why CLASH's per-group query count enters the
// load model logarithmically rather than linearly.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "clash/objects.hpp"
#include "common/flat_map.hpp"
#include "cq/query.hpp"

namespace clash::cq {

/// By-id query set plus scope buckets; allocates nothing while empty.
/// Like the FlatMap behind it, an insert or an erase invalidates every
/// iterator, pointer and reference into the set, and iteration order is
/// unspecified.
class QueryIndex {
 public:
  using const_iterator = FlatMap<QueryId, QueryInfo>::const_iterator;

  /// Add a query whose id is new here; throws std::invalid_argument on
  /// a duplicate id.
  void insert(QueryInfo q);
  /// Add `q`, replacing the query with its id if there is one.
  void upsert(QueryInfo q);
  bool erase(QueryId id);

  [[nodiscard]] const_iterator find(QueryId id) const {
    return by_id_.find(id);
  }
  [[nodiscard]] std::size_t count(QueryId id) const {
    return by_id_.count(id);
  }

  /// Count the queries whose scope contains — and whose predicates
  /// accept — the record.
  [[nodiscard]] std::size_t match(const Record& r) const;

  [[nodiscard]] std::size_t size() const { return by_id_.size(); }
  [[nodiscard]] bool empty() const { return by_id_.empty(); }
  [[nodiscard]] const_iterator begin() const { return by_id_.begin(); }
  [[nodiscard]] const_iterator end() const { return by_id_.end(); }

 private:
  void add_to_bucket(const QueryInfo& q);
  void remove_from_bucket(const QueryInfo& q);

  FlatMap<QueryId, QueryInfo> by_id_;
  FlatMap<KeyGroup, std::vector<QueryId>> by_scope_;
  /// (scope depth, queries at that depth), ascending by depth: the
  /// depths a match probes.
  std::vector<std::pair<unsigned, std::size_t>> depths_;
};

}  // namespace clash::cq
