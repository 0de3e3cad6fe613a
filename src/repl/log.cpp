#include "repl/log.hpp"

#include <algorithm>
#include <cassert>

#include "repl/op.hpp"

namespace clash::repl {

std::string LogHead::to_string() const {
  return "(" + std::to_string(epoch) + "," + std::to_string(seq) + ")";
}

LogOp LogOp::put_stream(StreamInfo s) {
  LogOp op;
  op.kind = OpKind::kPutStream;
  op.stream = s;
  return op;
}

LogOp LogOp::del_stream(ClientId source) {
  LogOp op;
  op.kind = OpKind::kDelStream;
  op.source = source;
  return op;
}

LogOp LogOp::put_query(QueryInfo q) {
  LogOp op;
  op.kind = OpKind::kPutQuery;
  op.query = q;
  return op;
}

LogOp LogOp::del_query(QueryId id) {
  LogOp op;
  op.kind = OpKind::kDelQuery;
  op.query_id = id;
  return op;
}

LogOp LogOp::app_delta_op(std::vector<std::uint8_t> delta) {
  LogOp op;
  op.kind = OpKind::kAppDelta;
  op.app_delta = std::move(delta);
  return op;
}

LogHead GroupLog::append(LogOp op) {
  entries_.push_back(std::move(op));
  ++last_;
  return head();
}

bool GroupLog::suffix_from(std::uint64_t after_seq,
                           std::vector<LogOp>& out) const {
  if (after_seq < floor_) return false;  // compacted past: snapshot needed
  if (after_seq >= last_) return true;   // nothing missing
  assert(entries_.size() == last_ - floor_);
  const std::size_t skip = std::size_t(after_seq - floor_);
  out.reserve(out.size() + entries_.size() - skip);
  for (std::size_t i = skip; i < entries_.size(); ++i) {
    out.push_back(entries_[i]);
  }
  return true;
}

bool GroupLog::holds(OpKind kind) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [kind](const LogOp& op) { return op.kind == kind; });
}

void GroupLog::compact() {
  entries_.clear();
  floor_ = last_;
}

void GroupLog::reset(std::uint64_t epoch, std::uint64_t seq) {
  epoch_ = epoch;
  floor_ = seq;
  last_ = seq;
  entries_.clear();
}

void GroupLog::apply(const LogOp& op, GroupState& st) {
  switch (op.kind) {
    case OpKind::kPutStream: {
      auto [it, inserted] = st.streams.try_emplace(op.stream.source);
      if (!inserted) st.stream_rate -= it->second.rate;
      it->second = op.stream;
      st.stream_rate += op.stream.rate;
      break;
    }
    case OpKind::kDelStream: {
      const auto it = st.streams.find(op.source);
      if (it == st.streams.end()) break;
      st.stream_rate -= it->second.rate;
      if (st.stream_rate < 0) st.stream_rate = 0;  // fp dust
      st.streams.erase(it);
      break;
    }
    case OpKind::kPutQuery:
      st.queries[op.query.id] = op.query;
      break;
    case OpKind::kDelQuery:
      st.queries.erase(op.query_id);
      break;
    case OpKind::kAppDelta:
      break;  // replayed through AppHooks, not GroupState
  }
}

}  // namespace clash::repl
