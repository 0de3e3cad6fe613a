// RecoveryCoordinator: bookkeeping for failover/rejoin state recovery.
// When a group must be promoted from a replica (owner died) the
// coordinator opens a session: the promoting server probes the
// surviving replica set for fresher (epoch, seq) heads, peers stream
// back the missing log suffix (or a snapshot when the suffix was
// compacted), and only then does the promotion install state. The
// session records how far the local copy advanced, so a stale replica
// is never silently promoted when a fresher peer existed.
//
// The coordinator is transport-agnostic: under an env that delivers
// inline the probe replies land before begin() even returns; ClashNode
// and SimCluster hold the session open for a recovery-grace window
// before finishing the promotion.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "common/sim_time.hpp"
#include "keys/key_group.hpp"
#include "obs/inflight.hpp"
#include "repl/log.hpp"

namespace clash::repl {

struct RecoveryStats {
  std::uint64_t sessions = 0;          // recoveries opened
  std::uint64_t entries_repaired = 0;  // log ops pulled from peers
  std::uint64_t snapshots_pulled = 0;  // full-state pulls from peers
  /// Promotions that would have installed stale state but were healed
  /// by peer repair before installing.
  std::uint64_t stale_promotions_averted = 0;
  /// Promotions that went ahead while still behind the freshest head
  /// any peer or owner ever advertised (availability over freshness:
  /// the alternative is losing the group outright).
  std::uint64_t stale_promotions = 0;
};

class RecoveryCoordinator {
 public:
  /// Each open session is one kRecoveryPull op of node `node` in
  /// `inflight`, which must outlive the coordinator.
  RecoveryCoordinator(obs::InflightTable& inflight, std::uint32_t node)
      : inflight_(inflight), node_(node) {}

  /// Open a session for `group` at `now`, starting from the local head.
  /// Returns false when a session is already open (the peers were
  /// probed; don't probe again from the promotion path).
  bool begin(const KeyGroup& group, LogHead local, SimTime now);

  [[nodiscard]] bool active(const KeyGroup& group) const {
    return sessions_.count(group) > 0;
  }

  /// Peer repair reached the local copy of `group` (no-op without an
  /// open session).
  void note_entries_repaired(const KeyGroup& group, std::size_t n,
                             SimTime now);
  void note_snapshot_pulled(const KeyGroup& group, SimTime now);

  /// Close the session (promotion is installing now). `final` is the
  /// local head after repair, `advertised` the freshest head this
  /// server ever heard for the group. Updates the staleness stats and
  /// returns when the session opened (nullopt: none was open).
  std::optional<SimTime> finish(const KeyGroup& group, LogHead final,
                                LogHead advertised);

  /// Drop the session without promoting (the group became active some
  /// other way, or the death was refuted). A leaked session would
  /// suppress the peer probes of every future recovery of the group.
  void cancel(const KeyGroup& group);

  [[nodiscard]] const RecoveryStats& stats() const { return stats_; }

 private:
  struct Session {
    LogHead start;
    SimTime started;
    std::uint64_t op_token = 0;  // the kRecoveryPull op
    bool repaired = false;
  };
  using Sessions = std::map<KeyGroup, Session>;
  /// The one exit of a session: ends its op and forgets it.
  void close(Sessions::iterator it);

  obs::InflightTable& inflight_;
  std::uint32_t node_;
  Sessions sessions_;
  RecoveryStats stats_;
};

}  // namespace clash::repl
