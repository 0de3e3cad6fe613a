// repl::Replicator: one server's replication engine. It owns the log of
// every group the server owns and logs (replicated or durable), every
// replica it holds for another owner, every snapshot transfer in
// flight, and the recovery sessions of promotions, and it handles the
// seven replication messages.
//
// ClashServer runs the Section 5 protocol and calls the engine at two
// seams: activate() when a group becomes active on the server and
// retire() when it leaves. In between, every mutation of an owned group
// goes through log_op(). The engine reads the server's table and group
// states through const references and never writes them.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "clash/config.hpp"
#include "clash/group_state.hpp"
#include "clash/messages.hpp"
#include "clash/server_env.hpp"
#include "clash/server_table.hpp"
#include "clash/stats.hpp"
#include "common/rng.hpp"
#include "dht/hash.hpp"
#include "obs/hub.hpp"
#include "repl/log.hpp"
#include "repl/recovery.hpp"

namespace clash::storage {
class NodeStore;
}  // namespace clash::storage

namespace clash::repl {

/// Stable correlation tag for a group in ring events (the label string
/// itself lives in the in-flight table entries).
[[nodiscard]] inline std::uint64_t group_tag(const KeyGroup& group) {
  return std::hash<KeyGroup>{}(group);
}

/// RAII for a server's active-trace slot: installs `id` (when nonzero)
/// for the duration of one message dispatch and restores the previous
/// value on exit, so nested dispatches under an env that delivers
/// inline keep their own correlation ids.
class TraceScope {
 public:
  TraceScope(std::uint64_t& slot, std::uint64_t id)
      : slot_(slot), saved_(slot) {
    if (id != 0) slot_ = id;
  }
  ~TraceScope() { slot_ = saved_; }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  std::uint64_t& slot_;
  std::uint64_t saved_;
};

namespace detail {
inline const StreamInfo& object_of(const StreamInfo& s) { return s; }
inline const QueryInfo& object_of(const QueryInfo& q) { return q; }
template <typename Id, typename Object>
const Object& object_of(const std::pair<const Id, Object>& entry) {
  return entry.second;
}
}  // namespace detail

/// Absorb the objects of `in` (a transfer's vectors or another group's
/// maps) into `gs`. An object both hold keeps the incoming copy when
/// `incoming_wins`, the local one otherwise; either way stream_rate
/// stays the sum of the streams' rates.
template <typename Objects>
void absorb_objects(GroupState& gs, const Objects& in, bool incoming_wins) {
  for (const auto& entry : in.streams) {
    const StreamInfo& s = detail::object_of(entry);
    auto [it, fresh] = gs.streams.try_emplace(s.source, s);
    if (!fresh) {
      if (!incoming_wins) continue;
      gs.stream_rate -= it->second.rate;
      it->second = s;
    }
    gs.stream_rate += s.rate;
  }
  for (const auto& entry : in.queries) {
    const QueryInfo& q = detail::object_of(entry);
    if (incoming_wins) {
      gs.queries.upsert(q);
    } else if (gs.queries.count(q.id) == 0) {
      gs.queries.insert(q);
    }
  }
}

class Replicator {
 public:
  /// The engine works beside its server's state, which outlives it. It
  /// writes only `rng`, `stats`, `costs` and `active_trace`; snapshot
  /// trace ids come from the server's one stream, so its random split
  /// policy sees the draws it always saw.
  Replicator(ServerId self, const ClashConfig& cfg, ServerEnv& env,
             const dht::KeyHasher& hasher, const ServerTable& table,
             const std::unordered_map<KeyGroup, GroupState>& state, Rng& rng,
             MessageStats& stats,
             std::unordered_map<KeyGroup, GroupCost>& costs,
             std::uint64_t& active_trace);
  // Deferred flushes and commits hold `this`.
  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  [[nodiscard]] bool replicating() const { return cfg_.replication_factor > 0; }
  void set_storage(storage::NodeStore* store) { storage_ = store; }
  [[nodiscard]] bool durable() const;

  /// `entry` just became active on the server. Ends any recovery session
  /// of its group; when the group is logged, starts its log on a line
  /// strictly above `min_epoch` and every line this server ran for it,
  /// then writes the line's baseline and offers it to the replica set.
  void activate(const ServerTableEntry& entry, std::uint64_t min_epoch);
  /// `group` left the server. Aborts its outbound transfers, ends its log
  /// (sending the batch queued under it, and keeping its epoch so a
  /// return starts above it), drops its cost record, and tells its
  /// replica set to drop their copies.
  void retire(const KeyGroup& group);

  /// Append one op of an active group to its log (no-op unless the group
  /// is logged): WAL first, then the in-memory log. Ops of one dispatch
  /// tick leave as one ReplAppend per group at the tick's end
  /// (ServerEnv::defer), and the tick ends in one group commit: its WAL
  /// records in one write, synced per the fsync policy.
  void log_op(const KeyGroup& group, LogOp op);
  /// Cut a fresh snapshot of an active, logged group: compact its log at
  /// the head, write it to disk as a baseline, and offer it to the
  /// replica set.
  void snapshot_group(const ServerTableEntry& entry);
  [[nodiscard]] dht::HashKey ring_pos(const KeyGroup& group) const;
  /// The engine's share of a load check: a commit (the kInterval sync
  /// backstop, with failed snapshots retried), replica-lease GC,
  /// anti-entropy, and paused transfers.
  void run_check();
  std::size_t pump_snapshots();
  [[nodiscard]] bool has_pending_snapshots() const {
    return !outbound_.empty();
  }

  bool begin_recovery(const KeyGroup& group);
  void abandon_recovery(const KeyGroup& group);
  /// A replica record taken for promotion; `epoch` is the newest held or
  /// heard of the group, and the new owner's line starts above it.
  struct Promotion {
    GroupState state;
    bool root = false;
    ServerId parent{};
    std::uint64_t epoch = 0;
  };
  /// Take `group`'s replica record for promotion (nullopt: none held),
  /// closing its recovery session and recording the failover span.
  std::optional<Promotion> take_replica(const KeyGroup& group);
  void drop_replica(const KeyGroup& group);
  std::size_t restore_from_storage();

  // The replication messages (ClashServer::deliver counts them).
  void on(ServerId from, const ReplAppend& m);
  void on(ServerId from, const ReplAck& m);
  void on(ServerId from, const SnapshotOffer& m);
  void on(ServerId from, const SnapshotChunk& m);
  void on(ServerId from, const AntiEntropyProbe& m);
  void on(ServerId from, const AntiEntropyDiff& m);
  void on(ServerId /*from*/, const DropReplica& m) { drop_replica(m.group); }

  void meter_repl_bytes(const KeyGroup& group, std::uint64_t bytes);
  void meter_storage_bytes(const KeyGroup& group, std::uint64_t bytes) {
    costs_[group].storage_bytes += bytes;
  }

  [[nodiscard]] const GroupLog* group_log(const KeyGroup& group) const {
    const auto it = owned_logs_.find(group);
    return it != owned_logs_.end() ? &it->second.log : nullptr;
  }
  [[nodiscard]] std::optional<LogHead> log_head(const KeyGroup& group) const {
    const GroupLog* log = group_log(group);
    return log != nullptr ? std::optional(log->head()) : std::nullopt;
  }
  [[nodiscard]] const GroupLog* replica_log(const KeyGroup& group) const {
    const ReplicaRecord* rec = replica(group);
    return rec != nullptr ? &rec->log : nullptr;
  }
  [[nodiscard]] const GroupState* replica_state(const KeyGroup& group) const {
    const ReplicaRecord* rec = replica(group);
    return rec != nullptr ? &rec->state : nullptr;
  }
  [[nodiscard]] std::optional<ServerId> replica_owner(
      const KeyGroup& group) const {
    const ReplicaRecord* rec = replica(group);
    return rec != nullptr ? std::optional(rec->owner) : std::nullopt;
  }
  [[nodiscard]] std::size_t replica_count() const { return replicas_.size(); }
  [[nodiscard]] std::vector<KeyGroup> replica_groups() const;
  [[nodiscard]] const RecoveryStats& recovery_stats() const {
    return recovery_.stats();
  }

 private:
  /// ReplAppend batches in flight: head seq + send time, popped by the
  /// first ok ReplAck at or past that seq (commit-latency histogram).
  struct PendingCommit {
    std::uint64_t seq = 0;
    SimTime sent{0};
    std::uint64_t trace_id = 0;
  };
  /// One group the server owns and logs, from start_line to retire.
  /// Repair is nack-driven, so no per-holder state is kept.
  struct OwnedLog {
    GroupLog log{0, 0};
    dht::HashKey ring_pos;  // hashed once
    /// Ops logged during the current dispatch tick, sent as one frame
    /// at the flush: the last batch.size() entries of `log`'s line (a
    /// re-epoch and a retire send the batch first, and compaction never
    /// moves the head).
    std::vector<LogOp> batch;
    /// The first traced op's correlation id among the batched ones.
    std::uint64_t trace_id = 0;
    /// Batches sent under the current line and not yet acked.
    std::deque<PendingCommit> inflight;
    /// The kReplAppend in-flight op, open while `inflight` is non-empty.
    std::uint64_t op_token = 0;
  };

  /// A replica held on behalf of another owner.
  struct ReplicaRecord {
    ServerId owner{};
    bool root = false;
    ServerId parent{};
    GroupState state;
    SimTime refreshed{0};  // last touched by an owner or peer (lease)
    /// Applied head and the suffix retained since the last snapshot.
    GroupLog log{0, 0};
    /// Freshest head any owner/peer ever advertised for the group.
    LogHead advertised{};
    /// The last transfer torn down and nacked: its remaining chunks stay
    /// silent (one nack per failed transfer).
    LogHead last_nacked{};

    /// In-flight chunked snapshot assembly (chunks must arrive in
    /// order; a mismatch drops the assembly, nacks the sender for an
    /// immediate restart, and anti-entropy backstops the retry).
    struct PendingSnapshot {
      SnapshotOffer offer;
      std::uint32_t received = 0;
      GroupState state;
      SimTime started{0};                // the snapshot-transfer span's start
      std::uint64_t inflight_token = 0;  // kSnapshotIn; 0 when untracked
    };
    std::optional<PendingSnapshot> pending{};
  };
  using Replicas = std::map<KeyGroup, ReplicaRecord>;

  /// Paced outbound snapshot transfers: chunks are pre-cut at offer
  /// time (a stable image regardless of later mutations) and drained
  /// by pump_snapshots as the destination's budget allows.
  struct OutboundSnapshot {
    std::vector<SnapshotChunk> chunks;
    std::size_t next = 0;
    std::uint64_t inflight_token = 0;  // kSnapshotOut; 0 when untracked
  };

  /// What a snapshot or a repair is cut from: an owner's log and live
  /// state, or a replica record's.
  struct Source {
    const GroupLog& log;
    const GroupState& state;
    bool root;
    ServerId parent;
    ServerId owner;
  };

  /// Replica traffic for a group active here (a stale owner racing a
  /// promotion) is ignored.
  [[nodiscard]] bool owns(const KeyGroup& group) const;
  [[nodiscard]] const ReplicaRecord* replica(const KeyGroup& group) const {
    const auto it = replicas_.find(group);
    return it != replicas_.end() ? &it->second : nullptr;
  }
  /// The replica holders of ring position `pos`, this server excluded,
  /// asked of the env on every call: a ring change applies at once.
  [[nodiscard]] std::vector<ServerId> replica_set(dht::HashKey pos);

  /// Start (or restart) a group's log on a line strictly above
  /// `min_epoch` and every epoch this server used for it.
  OwnedLog& start_line(const KeyGroup& group, std::uint64_t min_epoch);
  /// Queue `group`'s baseline snapshot (durable only) and defer the
  /// tick's commit. The queued baselines are written as one batch when
  /// the next WAL record is staged (before it can reach the segment),
  /// before a drop, or else at that commit.
  void persist_baseline(const KeyGroup& group);
  /// Write the queued baselines, plus the queued checkpoints when
  /// `checkpoints`, as one batch, each at its group's current head and
  /// read from its live state: a snapshot anchors WAL replay and
  /// advances the truncation floor.
  void write_snapshots(bool checkpoints);
  /// Defer commit() to the end of the dispatch tick, once per tick.
  void schedule_commit();
  /// The group commit: the queued snapshots (the checkpoints only at a
  /// sync point), then the store's WAL write and sync.
  void commit();
  [[nodiscard]] const GroupState& state_of(const KeyGroup& group) const;
  [[nodiscard]] Source owner_source(const ServerTableEntry& entry,
                                    const OwnedLog& owned) const;
  void send_append_batch(const KeyGroup& group, OwnedLog& owned);
  void flush_pending_appends();
  /// Meter `msg`'s bytes, times `copies` receivers, to its group.
  /// Every ReplAppend and SnapshotChunk the engine sends passes here.
  template <typename M>
  Message metered(M msg, std::size_t copies);

  /// Offer `to` a snapshot of `src` at its head; the chunks follow at
  /// the pace pump_snapshots allows.
  void send_snapshot(ServerId to, const KeyGroup& group, const Source& src);
  /// Drop the unsent rest of `group`'s transfers (to `only`, if valid).
  void cancel_outbound(const KeyGroup& group, ServerId only = ServerId{});
  void send_anti_entropy();
  /// Bring a peer that reported `have` for `group` forward: by the
  /// missing suffix when the source still retains it, else by snapshot.
  /// The owner is the authority and resyncs any requester; a replica
  /// (owner dead, an heir pulling) repairs only one strictly behind it.
  void repair_peer(ServerId to, const KeyGroup& group, LogHead have);

  /// The one way a replica record goes (dropped, expired, promoted or
  /// replaced): its snapshot assembly closes first.
  void erase_replica(Replicas::iterator it);
  /// Close a record's snapshot assembly, if any, and its kSnapshotIn op.
  void close_assembly(ReplicaRecord& rec);
  void reject(const KeyGroup& group);  // a content fence fired
  void event(obs::SpanKind kind, std::uint64_t arg, std::uint64_t arg2 = 0);

  ServerId self_;
  const ClashConfig& cfg_;
  ServerEnv& env_;
  const dht::KeyHasher& hasher_;
  const ServerTable& table_;
  const std::unordered_map<KeyGroup, GroupState>& state_;
  Rng& rng_;
  MessageStats& stats_;
  std::unordered_map<KeyGroup, GroupCost>& costs_;
  std::uint64_t& active_trace_;
  storage::NodeStore* storage_ = nullptr;

  /// Keyed by group; node-based, so a record's address survives the
  /// inserts that an inline-delivering env's re-entrant sends can make.
  std::unordered_map<KeyGroup, OwnedLog> owned_logs_;
  /// Groups whose batch went non-empty since the last flush: the flush
  /// visits these, not every group the server owns.
  std::vector<KeyGroup> batched_;
  bool append_flush_scheduled_ = false;
  /// The tick's group commit is deferred.
  bool commit_scheduled_ = false;
  /// Snapshots queued for writing: activation baselines, due ahead of
  /// the next WAL record or drop, or at the commit, and compaction
  /// checkpoints, due at the WAL's next sync point. A group in both is
  /// written once.
  std::set<KeyGroup> baselines_;
  std::set<KeyGroup> checkpoints_;

  Replicas replicas_;
  std::map<std::pair<ServerId, KeyGroup>, OutboundSnapshot> outbound_;
  bool pumping_snapshots_ = false;  // re-entrancy guard (nack restarts)

  /// Last epoch used locally for a no-longer-active group: a
  /// reactivation must start strictly above it so stale copies can
  /// never dominate the new line.
  std::map<KeyGroup, std::uint64_t> retired_epochs_;
  /// Replica-lease clock: the GC lease floors at the slowest observed
  /// gap between load checks (the real refresh cadence).
  SimTime last_check_{-1};
  std::int64_t observed_check_gap_usec_ = 0;

  obs::Hub& hub_;  // env_.obs(), cached at construction
  obs::HistogramHandle commit_latency_us_;
  obs::HistogramHandle failover_us_;
  obs::HistogramHandle snapshot_install_us_;
  obs::Counter repl_bytes_total_;
  /// Recovery sessions, each with its kRecoveryPull op.
  RecoveryCoordinator recovery_;
};

}  // namespace clash::repl
