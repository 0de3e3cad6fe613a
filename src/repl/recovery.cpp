#include "repl/recovery.hpp"

namespace clash::repl {

bool RecoveryCoordinator::begin(const KeyGroup& group, LogHead local,
                                SimTime now) {
  const auto [it, inserted] =
      sessions_.try_emplace(group, Session{local, now});
  if (!inserted) return false;
  ++stats_.sessions;
  it->second.op_token = inflight_.begin(obs::OpKind::kRecoveryPull, node_,
                                        group.label(), 0, now.usec);
  return true;
}

void RecoveryCoordinator::note_entries_repaired(const KeyGroup& group,
                                                std::size_t n, SimTime now) {
  const auto it = sessions_.find(group);
  if (n == 0 || it == sessions_.end()) return;
  stats_.entries_repaired += n;
  it->second.repaired = true;
  inflight_.progress(it->second.op_token, now.usec, n);
}

void RecoveryCoordinator::note_snapshot_pulled(const KeyGroup& group,
                                               SimTime now) {
  const auto it = sessions_.find(group);
  if (it == sessions_.end()) return;
  ++stats_.snapshots_pulled;
  it->second.repaired = true;
  inflight_.progress(it->second.op_token, now.usec);
}

std::optional<SimTime> RecoveryCoordinator::finish(const KeyGroup& group,
                                                   LogHead final,
                                                   LogHead advertised) {
  const auto it = sessions_.find(group);
  std::optional<SimTime> started;
  bool healed = false;
  if (it != sessions_.end()) {
    started = it->second.started;
    healed = it->second.repaired && it->second.start < final;
    close(it);
  }
  if (final < advertised) {
    ++stats_.stale_promotions;
  } else if (healed) {
    ++stats_.stale_promotions_averted;
  }
  return started;
}

void RecoveryCoordinator::cancel(const KeyGroup& group) {
  const auto it = sessions_.find(group);
  if (it != sessions_.end()) close(it);
}

void RecoveryCoordinator::close(Sessions::iterator it) {
  inflight_.end(it->second.op_token);
  sessions_.erase(it);
}

}  // namespace clash::repl
