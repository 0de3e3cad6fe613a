// Per-key-group replicated operation log (replication & recovery
// subsystem). Every mutation of a group's state — stream register/
// unregister, query register/unregister, opaque application deltas —
// becomes a sequenced LogOp under the owner's epoch. Owners stream
// appends to their replica set; replicas apply them incrementally.
// Every holder compacts its own copy at the same threshold and keeps
// the suffix since that cut, so any holder can repair any other by
// delta (anti-entropy, peer recovery at failover). Snapshots are for
// repair only: a holder behind the floor, a new replica set, or a
// suffix with app deltas to fold.
//
// Ordering model: (epoch, seq) LogHead pairs totally order the copies
// of one group. A copy at head H1 strictly dominates a copy at H2 iff
// H2 < H1; the owner's copy is always the authority for its epoch.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "clash/group_state.hpp"
#include "repl/op.hpp"

namespace clash::repl {

/// The log of one group on one holder. The owner's copy is the source
/// of truth; replica copies track the owner through appends and
/// snapshots. Entries older than the last compaction are dropped — a
/// caught-up peer needs only the delta, and a peer that lags past the
/// floor needs a snapshot (Gray's economics: ship the small thing).
class GroupLog {
 public:
  /// A fresh log: first append gets seq `start_seq + 1` under `epoch`.
  explicit GroupLog(std::uint64_t epoch = 1, std::uint64_t start_seq = 0)
      : epoch_(epoch), floor_(start_seq), last_(start_seq) {}

  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] LogHead head() const { return LogHead{epoch_, last_}; }
  /// Sequence number the retained suffix starts after: entries cover
  /// (floor_seq, head().seq]. A requester at or above floor_seq can be
  /// repaired by delta; below it needs a snapshot.
  [[nodiscard]] std::uint64_t floor_seq() const { return floor_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Append one op; returns the new head.
  LogHead append(LogOp op);

  /// Copy the ops with seq in (after_seq, head().seq] into `out`.
  /// Returns false when `after_seq` predates the floor (compacted).
  [[nodiscard]] bool suffix_from(std::uint64_t after_seq,
                                 std::vector<LogOp>& out) const;

  /// True when a retained entry has kind `kind`.
  [[nodiscard]] bool holds(OpKind kind) const;

  /// Drop every retained entry (a local cut at head(): anyone later
  /// found behind it is repaired by snapshot).
  void compact();

  /// Re-anchor at a snapshot boundary (replica installing a snapshot,
  /// or an owner adopting state under a new epoch).
  void reset(std::uint64_t epoch, std::uint64_t seq);

  /// Apply one op to a group's object state. kAppDelta is a no-op here:
  /// application deltas are replayed through AppHooks at promotion.
  static void apply(const LogOp& op, GroupState& st);

 private:
  std::uint64_t epoch_;
  std::uint64_t floor_;        // seq of the last compacted-away op
  std::uint64_t last_;         // seq of the newest op
  std::deque<LogOp> entries_;  // ops (floor_, last_], oldest first
};

}  // namespace clash::repl
