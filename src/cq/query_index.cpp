#include "cq/query_index.hpp"

#include <algorithm>
#include <stdexcept>

namespace clash::cq {

void QueryIndex::insert(QueryInfo q) {
  const QueryId id = q.id;
  if (by_id_.count(id) > 0) throw std::invalid_argument("duplicate query id");
  add_to_bucket(q);
  by_id_.try_emplace(id, std::move(q));
}

void QueryIndex::upsert(QueryInfo q) {
  const auto [it, fresh] = by_id_.try_emplace(q.id);
  if (!fresh) remove_from_bucket(it->second);
  add_to_bucket(q);
  it->second = std::move(q);
}

bool QueryIndex::erase(QueryId id) {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) return false;
  remove_from_bucket(it->second);
  by_id_.erase(it);
  return true;
}

std::size_t QueryIndex::match(const Record& r) const {
  std::size_t n = 0;
  // One bucket probe per scope depth: every scope of depth d that
  // contains r.key is the d-bit prefix group of r.key.
  for (const auto& [depth, _] : depths_) {
    if (depth > r.key.width()) break;
    const auto bucket = by_scope_.find(KeyGroup::of(r.key, depth));
    if (bucket == by_scope_.end()) continue;
    for (const QueryId id : bucket->second) n += by_id_.at(id).matches(r);
  }
  return n;
}

void QueryIndex::add_to_bucket(const QueryInfo& q) {
  by_scope_[q.scope()].push_back(q.id);
  const unsigned depth = q.scope_depth;
  auto it = std::lower_bound(
      depths_.begin(), depths_.end(), depth,
      [](const auto& entry, unsigned d) { return entry.first < d; });
  if (it == depths_.end() || it->first != depth) {
    it = depths_.insert(it, {depth, 0});
  }
  ++it->second;
}

void QueryIndex::remove_from_bucket(const QueryInfo& q) {
  const auto bucket = by_scope_.find(q.scope());
  auto& ids = bucket->second;
  ids.erase(std::find(ids.begin(), ids.end(), q.id));
  if (ids.empty()) by_scope_.erase(bucket);
  const auto it = std::lower_bound(
      depths_.begin(), depths_.end(), unsigned(q.scope_depth),
      [](const auto& entry, unsigned d) { return entry.first < d; });
  if (--it->second == 0) depths_.erase(it);
}

}  // namespace clash::cq
