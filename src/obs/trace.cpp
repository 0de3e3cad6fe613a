#include "obs/trace.hpp"

#include <algorithm>

namespace clash::obs {

namespace {

struct KindInfo {
  const char* name;
  const char* category;
};

KindInfo kind_info(SpanKind k) {
  switch (k) {
    case SpanKind::kIngest:
      return {"ingest", "clash"};
    case SpanKind::kReplApply:
      return {"repl_apply", "repl"};
    case SpanKind::kCommit:
      return {"repl_commit", "repl"};
    case SpanKind::kQueryMatch:
      return {"query_match", "cq"};
    case SpanKind::kFailover:
      return {"failover", "repl"};
    case SpanKind::kSnapshotOfferSent:
      return {"snapshot_offer_sent", "repl"};
    case SpanKind::kSnapshotTransfer:
      return {"snapshot_transfer", "repl"};
    case SpanKind::kWalFsync:
      return {"wal_fsync", "storage"};
    case SpanKind::kLoopTick:
      return {"loop_tick", "net"};
    case SpanKind::kRecoveryScan:
      return {"recovery_scan", "storage"};
    case SpanKind::kGroupActivated:
      return {"group_activated", "clash"};
    case SpanKind::kGroupDeactivated:
      return {"group_deactivated", "clash"};
    case SpanKind::kEpochBump:
      return {"epoch_bump", "repl"};
    case SpanKind::kMemberSuspected:
      return {"member_suspected", "membership"};
    case SpanKind::kMemberDead:
      return {"member_dead", "membership"};
    case SpanKind::kMemberJoined:
      return {"member_joined", "membership"};
    case SpanKind::kSnapshotOfferRecv:
      return {"snapshot_offer_recv", "repl"};
    case SpanKind::kSnapshotAborted:
      return {"snapshot_aborted", "repl"};
    case SpanKind::kRecoveryBegin:
      return {"recovery_begin", "repl"};
    case SpanKind::kRecoveryAbandon:
      return {"recovery_abandon", "repl"};
    case SpanKind::kWalRollover:
      return {"wal_rollover", "storage"};
    case SpanKind::kFaultDrop:
      return {"fault_drop", "net"};
    case SpanKind::kFaultCorrupt:
      return {"fault_corrupt", "net"};
    case SpanKind::kCorruptReject:
      return {"corrupt_reject", "wire"};
    case SpanKind::kStallTick:
      return {"stall_tick", "obs"};
    case SpanKind::kStallOp:
      return {"stall_op", "obs"};
    case SpanKind::kInvariantFail:
      return {"invariant_fail", "obs"};
  }
  return {"unknown", "obs"};
}

}  // namespace

const char* span_name(SpanKind k) { return kind_info(k).name; }
const char* span_category(SpanKind k) { return kind_info(k).category; }

TraceRecorder::TraceRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      ring_(std::make_unique<Slot[]>(capacity_)) {}

void TraceRecorder::write(const Span& span) {
  const std::uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = ring_[seq % capacity_];
  // Claim -> write payload -> publish. The CAS claim serialises
  // writers whose sequences collide on one slot (possible when the
  // ring wraps within one reader pass): without it two writers could
  // interleave payload stores and the later stamp publish would bless
  // the mixture. The loser drops its event; a skipped slot is exactly
  // what readers already tolerate. A reader that raced the rewrite
  // sees the claim sentinel or a different sequence and skips.
  std::uint64_t cur = s.stamp.load(std::memory_order_relaxed);
  if (cur == kWriting ||
      !s.stamp.compare_exchange_strong(cur, kWriting,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
    return;
  }
  s.start.store(std::uint64_t(span.start_us), std::memory_order_relaxed);
  s.dur.store(std::uint64_t(std::max<std::int64_t>(span.dur_us, 0)),
              std::memory_order_relaxed);
  s.arg.store(span.arg, std::memory_order_relaxed);
  s.arg2.store(span.arg2, std::memory_order_relaxed);
  s.trace_id.store(span.trace_id, std::memory_order_relaxed);
  s.meta.store((span.pid << 8) | std::uint64_t(span.kind),
               std::memory_order_relaxed);
  s.stamp.store(seq + 1, std::memory_order_release);
}

std::uint64_t TraceRecorder::dropped() const {
  const std::uint64_t n = total();
  return n > capacity_ ? n - capacity_ : 0;
}

std::vector<Span> TraceRecorder::spans() const {
  const std::uint64_t end = next_.load(std::memory_order_acquire);
  const std::uint64_t begin = end > capacity_ ? end - capacity_ : 0;
  std::vector<Span> out;
  out.reserve(std::size_t(end - begin));
  for (std::uint64_t seq = begin; seq < end; ++seq) {
    const Slot& s = ring_[seq % capacity_];
    const std::uint64_t before = s.stamp.load(std::memory_order_acquire);
    if (before != seq + 1) continue;  // overwritten or mid-write
    Span span;
    span.start_us = std::int64_t(s.start.load(std::memory_order_relaxed));
    span.dur_us = std::int64_t(s.dur.load(std::memory_order_relaxed));
    span.arg = s.arg.load(std::memory_order_relaxed);
    span.arg2 = s.arg2.load(std::memory_order_relaxed);
    span.trace_id = s.trace_id.load(std::memory_order_relaxed);
    const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
    span.pid = meta >> 8;
    span.kind = SpanKind(meta & 0xff);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.stamp.load(std::memory_order_relaxed) != before) continue;
    out.push_back(span);
  }
  return out;
}

void TraceRecorder::clear() {
  for (std::size_t i = 0; i < capacity_; ++i) {
    ring_[i].stamp.store(0, std::memory_order_relaxed);
  }
  next_.store(0, std::memory_order_relaxed);
}

std::string TraceRecorder::to_chrome_json() const {
  auto all = spans();
  std::stable_sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_us < b.start_us;
  });
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& s : all) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"name\":\"";
    out += span_name(s.kind);
    out += "\",\"cat\":\"";
    out += span_category(s.kind);
    out += "\",\"ph\":\"X\",\"ts\":";
    out += std::to_string(s.start_us);
    out += ",\"dur\":";
    out += std::to_string(s.dur_us);
    out += ",\"pid\":";
    out += std::to_string(s.pid);
    out += ",\"tid\":";
    out += std::to_string(unsigned(s.kind));
    out += ",\"args\":{\"arg\":";
    out += std::to_string(s.arg);
    out += ",\"arg2\":";
    out += std::to_string(s.arg2);
    if (s.trace_id != 0) {
      // Decimal id string: grep-able across per-node dumps, and what
      // the bench-side merge matches on.
      out += ",\"trace_id\":\"";
      out += std::to_string(s.trace_id);
      out += "\"";
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

std::string TraceRecorder::to_json() const {
  const auto all = spans();
  std::string out;
  out.reserve(64 + all.size() * 128);
  out += "{\"schema\":\"clash-flightrec-v1\",\"total\":";
  out += std::to_string(total());
  out += ",\"dropped\":";
  out += std::to_string(dropped());
  out += ",\"capacity\":";
  out += std::to_string(capacity());
  out += ",\"events\":[";
  bool first = true;
  for (const auto& s : all) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"t_us\":";
    out += std::to_string(s.start_us);
    out += ",\"dur_us\":";
    out += std::to_string(s.dur_us);
    out += ",\"node\":";
    out += std::to_string(s.pid);
    out += ",\"kind\":\"";
    out += span_name(s.kind);
    out += "\",\"a\":";
    out += std::to_string(s.arg);
    out += ",\"b\":";
    out += std::to_string(s.arg2);
    out += ",\"trace_id\":\"";
    out += std::to_string(s.trace_id);
    out += "\"}";
  }
  out += "]}";
  return out;
}

}  // namespace clash::obs
