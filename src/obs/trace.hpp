// obs::TraceRecorder: the hub's one event ring. Per-op traffic spans
// (ingest, replicated apply, commit, cq match) and lifecycle edges
// (failover, snapshot transfer, WAL fsync, membership and stall
// verdicts, ...) land in the same slots. GET /trace renders the ring
// as Chrome trace_event JSON (load in chrome://tracing or
// ui.perfetto.dev); GET /flightrec and postmortem dumps render it as
// clash-flightrec-v1.
//
// Traffic spans are off by default and gated by one relaxed load, so
// instrumented code calls record() unconditionally. Lifecycle edges
// are always recorded: they are the black box for the crashes nobody
// planned, and sparse enough that hours of runtime fit in the ring.
//
// The ring is lock-free and readable from any thread, including a
// crash-signal handler. Slots are seqlock-stamped: a writer claims a
// slot by CAS (stamp -> kWriting), writes the payload as relaxed atomic
// words, then publishes (stamp = seq + 1, release). A reader accepts a
// slot only when the stamp it saw before and after the copy is the
// exact sequence it expected, so torn or overwritten slots are skipped,
// never misreported. When the ring is full the oldest events are
// overwritten (dropped() counts them).
//
// Timestamps are whatever clock the caller passes (sim time in
// SimCluster, microseconds since the node's epoch in net::ClashNode);
// every writer of one ring must use the same clock.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_time.hpp"

namespace clash::obs {

/// One kind per event class. `arg`/`arg2` carry the payload noted per
/// kind; "group" is ClashServer::group_tag. Traffic kinds come first so
/// the gate is one compare. Postmortem consumers key on the name, not
/// the value.
enum class SpanKind : std::uint8_t {
  // Per-op traffic: recorded only while set_enabled(true).
  kIngest,      // clash: owner accepted an object; arg: object kind
  kReplApply,   // repl: replica applied a ReplAppend batch; arg: entries
  kCommit,      // repl: ReplAppend send -> first ok ReplAck; arg: seq
  kQueryMatch,  // cq: one ClashServer::match that fired; arg: matches
  // Lifecycle edges: always recorded.
  kFailover,           // recovery session open -> promoted; arg: group
  kSnapshotOfferSent,  // arg: group, arg2: chunks
  kSnapshotTransfer,   // offer accepted -> image installed; arg: group,
                       // arg2: chunks
  kWalFsync,           // storage: one WAL fsync; arg: 1 on failure
  kLoopTick,           // net: one slow event-loop round; arg: budget usec
  kRecoveryScan,       // storage: crash-recovery scan; arg: groups
  kGroupActivated,     // arg: group
  kGroupDeactivated,   // arg: group
  kEpochBump,          // arg: group, arg2: new epoch
  kMemberSuspected,    // arg: member
  kMemberDead,         // arg: member
  kMemberJoined,       // arg: member
  kSnapshotOfferRecv,  // arg: group, arg2: chunks
  kSnapshotAborted,    // arg: group, arg2: peer
  kRecoveryBegin,      // arg: group
  kRecoveryAbandon,    // arg: group
  kWalRollover,        // arg: new segment index
  kFaultDrop,          // arg: peer fd, arg2: frames dropped so far
  kFaultCorrupt,       // arg: peer fd
  kCorruptReject,      // arg: group (CRC fence rejection)
  kStallTick,          // wedged tick so far; arg: tick seq
  kStallOp,            // op without progress so far; arg: op token
  kInvariantFail,      // arg: caller-defined code
};

[[nodiscard]] const char* span_name(SpanKind k);
[[nodiscard]] const char* span_category(SpanKind k);

/// One recorded event; instant edges have dur_us == 0.
struct Span {
  SpanKind kind = SpanKind::kCommit;
  std::uint64_t pid = 0;       // server/node id (low 56 bits kept)
  std::int64_t start_us = 0;   // caller's clock
  std::int64_t dur_us = 0;
  std::uint64_t arg = 0;       // kind-specific, see SpanKind
  std::uint64_t arg2 = 0;
  /// Cross-node correlation id: spans of one logical operation carry
  /// the same nonzero id on every node it touched, so per-node dumps
  /// stitch into one flow. 0 = untraced.
  std::uint64_t trace_id = 0;
};

class TraceRecorder {
 public:
  /// Default ring size: large enough that a 2 s traced sim run keeps
  /// its spans (abl_census's stitching gate reads them afterwards).
  static constexpr std::size_t kCapacity = 16384;

  explicit TraceRecorder(std::size_t capacity = kCapacity);

  /// Traffic-span gate; lifecycle edges ignore it.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Record one event; a negative duration is stored as 0. Lock-free
  /// and safe from any thread; a disabled traffic kind costs one
  /// relaxed load. When two writers collide on one slot (the ring
  /// wrapped within their race window) the loser's event is dropped
  /// rather than torn.
  void record(SpanKind kind, std::uint64_t pid, SimTime start, SimDuration dur,
              std::uint64_t arg = 0, std::uint64_t arg2 = 0,
              std::uint64_t trace_id = 0) {
    if (kind <= SpanKind::kQueryMatch && !enabled()) return;
    write(Span{kind, pid, start.usec, dur.usec, arg, arg2, trace_id});
  }

  /// Events ever recorded, including overwritten ones.
  [[nodiscard]] std::uint64_t total() const {
    return next_.load(std::memory_order_relaxed);
  }
  /// Events overwritten because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const;
  /// Events the ring holds now.
  [[nodiscard]] std::uint64_t size() const { return total() - dropped(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// The surviving window, oldest first. Slots being rewritten
  /// concurrently are skipped, never misread.
  [[nodiscard]] std::vector<Span> spans() const;

  /// {"traceEvents": [...]}: complete "X" (duration) events, one track
  /// per (pid, kind).
  [[nodiscard]] std::string to_chrome_json() const;
  /// Self-describing {"schema":"clash-flightrec-v1",...}: the
  /// /flightrec and postmortem view of the same ring.
  [[nodiscard]] std::string to_json() const;

  /// Reset for test/bench reuse. NOT safe concurrently with record().
  void clear();

 private:
  void write(const Span& s);

  /// Slot-claim sentinel: a writer CASes the stamp to this before
  /// touching the payload, so colliding writers never interleave.
  static constexpr std::uint64_t kWriting = ~std::uint64_t{0};

  // Payload as relaxed-atomic words, so a concurrent overwrite is a
  // well-defined race the stamp protocol resolves, not UB (and
  // TSan-clean).
  struct Slot {
    std::atomic<std::uint64_t> stamp{0};  // 0 empty, kWriting claimed,
                                          // seq+1 published
    std::atomic<std::uint64_t> start{0};
    std::atomic<std::uint64_t> dur{0};
    std::atomic<std::uint64_t> arg{0};
    std::atomic<std::uint64_t> arg2{0};
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::uint64_t> meta{0};  // pid << 8 | kind
  };

  const std::size_t capacity_;
  std::unique_ptr<Slot[]> ring_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<bool> enabled_{false};
};

}  // namespace clash::obs
