// ClashServer: the server side of the protocol (Sections 4 and 5).
// Transport-agnostic: all I/O goes through ServerEnv, so the same logic
// runs under the discrete-event simulator, unit tests, and the TCP
// deployment layer.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "clash/config.hpp"
#include "clash/group_state.hpp"
#include "clash/load.hpp"
#include "clash/messages.hpp"
#include "clash/server_table.hpp"
#include "clash/stats.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "dht/dht.hpp"
#include "obs/hub.hpp"
#include "repl/log.hpp"
#include "repl/recovery.hpp"

namespace clash::storage {
class NodeStore;
}  // namespace clash::storage

namespace clash {

/// Runtime services a ClashServer needs. Implementations count the
/// messages they carry (that is how the Figure 5 overheads are
/// measured).
class ServerEnv {
 public:
  virtual ~ServerEnv() = default;

  /// Route `h` through the DHT from this server; the implementation
  /// accounts for the O(log S) overlay hops.
  virtual dht::LookupResult dht_lookup(dht::HashKey h) = 0;

  /// The `n` servers after the owner of `h` on the ring (Chord's
  /// replica set). Empty when the substrate offers no replication.
  [[nodiscard]] virtual std::vector<ServerId> replica_targets(
      dht::HashKey h, unsigned n) {
    (void)h;
    (void)n;
    return {};
  }

  /// Deliver a protocol message to a peer server.
  virtual void send(ServerId to, const Message& msg) = 0;

  /// Deliver one message to each server in `to` (the owner's fan-out
  /// to a group's replica set). The default sends per target, and the
  /// simulator and the unit-test envs keep it: each copy stays one
  /// counted, separately delivered message, so the Figure 5 overheads
  /// and the simulated replication traffic do not depend on how a
  /// transport encodes. ClashNode overrides it to encode the frame
  /// once and copy the bytes to the other targets.
  virtual void fan_out(std::span<const ServerId> to, const Message& msg) {
    for (const ServerId target : to) send(target, msg);
  }

  [[nodiscard]] virtual SimTime now() const = 0;

  /// How many more replication SnapshotChunk messages the transport is
  /// willing to carry toward `to` right now. The default (unlimited)
  /// suits the simulator, whose links have no send queue; the TCP
  /// layer derives the budget from the peer connection's outbound
  /// queue depth so huge snapshots never bury a socket, and
  /// ClashServer::pump_snapshots resumes paused transfers as the
  /// queue drains.
  [[nodiscard]] virtual std::size_t snapshot_chunk_budget(ServerId to) {
    (void)to;
    return std::numeric_limits<std::size_t>::max();
  }

  /// Run `fn` at the end of the current dispatch tick — the
  /// transport's write-coalescing boundary (ClashNode's loop tick,
  /// SimCluster's lane). ClashServer uses this to batch the tick's
  /// ReplAppend entries into one frame per group and to group-commit
  /// the tick's WAL records. The inline default serves the envs that
  /// have no tick: the unit-test envs (MockServerEnv and the
  /// replication and recovery test routers).
  virtual void defer(std::function<void()> fn) { fn(); }

  /// Run `fn` once `delay` has passed (the failover grace timer).
  /// ClashNode and SimCluster wait it out. The inline default, which
  /// skips the wait, serves the unit-test envs and
  /// bench/e2e/replay.cpp, which has a tick but no timers.
  virtual void call_after(SimDuration, std::function<void()> fn) { fn(); }

  /// Table-change notifications: `group` became / stopped being an
  /// active leaf on this server. Default no-ops; the simulator uses
  /// them to maintain a global owner index for exact metrics.
  virtual void on_group_activated(const KeyGroup& group) { (void)group; }
  virtual void on_group_deactivated(const KeyGroup& group) { (void)group; }

  /// Where this server's metrics and trace spans go. The default is
  /// the process-global hub (sim substrate, benches); net::ClashNode
  /// overrides with a node-private hub so its stats endpoint serves
  /// exactly one node's view.
  [[nodiscard]] virtual obs::Hub& obs() { return obs::Hub::global(); }
};

/// Application integration (Section 7's game-middleware API): the
/// hosted application can contribute to a group's load ("indicate
/// application overload") and ship opaque state when CLASH moves a
/// group ("distribute application-specific state"). The state rides
/// splits, merges and handoffs only; replicas do not carry it.
/// Continuous queries need no hooks: they are group objects. All
/// callbacks run on the server's protocol thread.
class AppHooks {
 public:
  virtual ~AppHooks() = default;

  /// Extra load units the application attributes to `group` (e.g. game
  /// physics cost); added to the data-rate/query model each check.
  [[nodiscard]] virtual double app_load(const KeyGroup& group) {
    (void)group;
    return 0;
  }

  /// Serialise and relinquish the application state belonging to
  /// `group` (it is moving to `destination`).
  [[nodiscard]] virtual std::vector<std::uint8_t> export_state(
      const KeyGroup& group, ServerId destination) {
    (void)group;
    (void)destination;
    return {};
  }

  /// Install state exported by a peer for `group`.
  virtual void import_state(const KeyGroup& group,
                            const std::vector<std::uint8_t>& state) {
    (void)group;
    (void)state;
  }
};

class ClashServer {
 public:
  ClashServer(ServerId self, const ClashConfig& cfg, ServerEnv& env,
              dht::KeyHasher hasher);

  [[nodiscard]] ServerId id() const { return self_; }
  [[nodiscard]] const ClashConfig& config() const { return cfg_; }
  [[nodiscard]] const ServerTable& table() const { return table_; }
  [[nodiscard]] const MessageStats& stats() const { return stats_; }
  void reset_stats() { stats_ = MessageStats{}; }

  // --- Per-group cost metering (observability layer) -------------------
  /// The Gray cost vector per group this server owns or replicates:
  /// what each group costs in serving, replication, and storage. The
  /// record follows the group — split, handoff, and replica drop
  /// evict it (keeping the census bounded under churn).
  [[nodiscard]] const std::unordered_map<KeyGroup, GroupCost>& group_costs()
      const {
    return group_costs_;
  }
  [[nodiscard]] GroupCost total_group_cost() const {
    GroupCost total;
    for (const auto& [group, c] : group_costs_) total += c;
    return total;
  }
  void reset_group_costs() { group_costs_.clear(); }
  /// Fill a census record's gauges + top-`top_k` per-group costs from
  /// this server's registry and cost map (the obs::Census collector;
  /// identity, seq, and checksum are stamped by the census itself).
  void fold_census(NodeCensusRecord& rec, std::size_t top_k) const;
  /// Meter `bytes` of replication stream out of `group`.
  void meter_repl_bytes(const KeyGroup& group, std::uint64_t bytes);
  /// Meter `bytes` of durable-storage writes for `group`.
  void meter_storage_bytes(const KeyGroup& group, std::uint64_t bytes);
  /// The hub this server records into (env-provided).
  [[nodiscard]] obs::Hub& obs_hub() const { return hub_; }

  // --- Bootstrap -----------------------------------------------------
  /// Install an entry directly (used by the bootstrap splitter and by
  /// tests building Figure 1/2 scenarios).
  void install_entry(const ServerTableEntry& entry);

  /// Force-split an active group regardless of load (bootstrap path;
  /// also the paper's administrative splitting). Returns false if the
  /// group is absent/inactive/at max depth.
  bool force_split(const KeyGroup& group);

  /// Mark an active group as a root entry (ParentID = -1): an
  /// administrative floor consolidation never collapses through.
  bool mark_group_root(const KeyGroup& group);

  // --- Application API (Section 7 extension) --------------------------
  /// Attach application callbacks (load contribution, state shipping).
  /// The hooks must outlive the server.
  void set_app_hooks(AppHooks* hooks) { app_hooks_ = hooks; }

  /// Application-signalled overload: shed the hottest group now, ahead
  /// of the periodic check. Returns false when nothing is splittable.
  bool signal_overload();

  // --- Fault tolerance (replication extension) ------------------------
  /// Promote this server's replica of `group` (NodeHost calls
  /// it once its rule holds): pull the freshest suffix from surviving
  /// holders, then install under a bumped epoch. Returns whether the
  /// group is active here; with no replica held or pulled, nothing is.
  bool promote_replica(const KeyGroup& group);

  // --- Replication & recovery subsystem (src/repl/) -------------------
  /// True when the operation-log replication engine is active.
  [[nodiscard]] bool log_replication() const {
    return cfg_.replication_factor > 0;
  }

  /// Owner-side log head of an active group (replicated or durable).
  [[nodiscard]] std::optional<repl::LogHead> log_head(
      const KeyGroup& group) const;
  /// Replica-side applied head for a group held on behalf of a peer.
  [[nodiscard]] std::optional<repl::LogHead> replica_head(
      const KeyGroup& group) const;
  /// Owner-side / replica-side log of `group`, retained suffix included
  /// (introspection for tests/operators); nullptr when absent.
  [[nodiscard]] const repl::GroupLog* group_log(const KeyGroup& group) const;
  [[nodiscard]] const repl::GroupLog* replica_log(const KeyGroup& group) const;
  /// Replica-side object state (introspection for tests/operators).
  [[nodiscard]] const GroupState* replica_state(const KeyGroup& group) const;

  /// Open a recovery session for a group this server is about to be
  /// promoted for: probes the surviving replica set for fresher
  /// (epoch, seq) heads so peers can stream the missing suffix before
  /// promote_replica installs. An env that delivers inline finishes
  /// the repair inside this call; ClashNode and SimCluster hold a
  /// grace window.
  /// Returns whether a new session opened (none if one is already open).
  bool begin_group_recovery(const KeyGroup& group);

  /// Drop an open recovery session without promoting (the grace-window
  /// re-check failed: the member rejoined or the ring moved the heir).
  void abandon_group_recovery(const KeyGroup& group) {
    event(obs::SpanKind::kRecoveryAbandon, group_tag(group));
    recovery_.cancel(group);
  }

  /// Hand every active group whose DHT owner is now `to` over to it
  /// with full state (ring re-admission healed the routing — without
  /// this, a rejoined node would serve its key ranges empty). Returns
  /// the number of groups moved.
  std::size_t handoff_groups(ServerId to);

  [[nodiscard]] const repl::RecoveryStats& recovery_stats() const {
    return recovery_.stats();
  }

  // --- Durable storage subsystem (src/storage/) ------------------------
  /// Attach the node's durable store: every owned-group mutation
  /// appends to its WAL (under kPerAppend, a tick that appended ends
  /// in one deferred NodeStore::commit), activations write baseline
  /// snapshots, and log compaction cuts checkpoint snapshots that
  /// truncate the WAL.
  /// Attach before any traffic; the store must outlive the server.
  void set_storage(storage::NodeStore* store) { storage_ = store; }

  /// True when a store is attached and the config enables durability.
  [[nodiscard]] bool durable() const;

  /// Install the store's recovered pre-crash image as replica records
  /// (owner = self). Promotion then re-adopts each group under a
  /// bumped epoch, and the recovery pull fetches only the divergent
  /// suffix from live holders — not a full snapshot. Returns the
  /// number of groups restored.
  std::size_t restore_from_storage();

  /// Resume snapshot transfers that paused on transport backpressure:
  /// sends as many pending chunks as each destination's budget allows.
  /// Returns the number of transfers still unfinished. Driven by
  /// run_load_check and, on the TCP layer, by connection-drain
  /// callbacks.
  std::size_t pump_snapshots();
  [[nodiscard]] bool has_pending_snapshots() const {
    return !outbound_snapshots_.empty();
  }

  [[nodiscard]] std::size_t replica_count() const {
    return replicas_.size();
  }
  [[nodiscard]] bool has_replica(const KeyGroup& group) const {
    return replicas_.count(group) > 0;
  }
  /// NodeHost's inputs: the groups held as replica records,
  /// and the owner a record names (nullopt: no record).
  [[nodiscard]] std::vector<KeyGroup> replica_groups() const {
    std::vector<KeyGroup> out;
    for (const auto& [group, _] : replicas_) out.push_back(group);
    return out;
  }
  [[nodiscard]] std::optional<ServerId> replica_owner(
      const KeyGroup& group) const {
    const auto it = replicas_.find(group);
    return it == replicas_.end() ? std::nullopt
                                 : std::optional(it->second.owner);
  }
  /// Forget the replica record of `group` (DropReplica; NodeHost once
  /// the ring no longer places this server in the group's replica set).
  void drop_replica(const KeyGroup& group);

  // --- Client RPC (Section 5, three cases) ----------------------------
  [[nodiscard]] AcceptObjectReply handle_accept_object(const AcceptObject& m);

  // --- Continuous queries ----------------------------------------------
  /// Match `r` against the continuous queries of the active group
  /// covering its key and return the match count (0 when no group here
  /// covers it). Meters the group's GroupCost::matches and served
  /// bytes, the clash_cq_* metrics, and a kQueryMatch span per firing
  /// record.
  std::size_t match(const cq::Record& r);

  // --- Peer messages ---------------------------------------------------
  void deliver(ServerId from, const Message& msg);

  // --- Periodic driver --------------------------------------------------
  /// One LOAD_CHECK_PERIOD tick: emit load reports, then split when
  /// overloaded / consolidate when underloaded.
  void run_load_check();

  // --- Bookkeeping used by the simulator and applications ---------------
  /// Remove a stream registration (source key changed or went away).
  /// Not a protocol message: equivalent to the rate decaying to zero in
  /// a per-packet deployment.
  void remove_stream(ClientId source, const Key& key);

  /// Remove an expired continuous query.
  void remove_query(QueryId id, const Key& key);

  // --- Introspection ----------------------------------------------------
  [[nodiscard]] double server_load() const;
  [[nodiscard]] double load_of(const KeyGroup& group) const;
  [[nodiscard]] const GroupState* group_state(const KeyGroup& group) const;
  [[nodiscard]] std::size_t total_queries() const;
  [[nodiscard]] std::size_t total_streams() const;
  /// Depths of this server's active groups (for Figure 4c).
  [[nodiscard]] std::vector<unsigned> active_depths() const;
  [[nodiscard]] bool is_active() const { return table_.active_count() > 0; }

  /// Move the members of `subset` out of `st` into the returned state
  /// (a split's right half); each side's stream_rate is its own sum.
  static GroupState extract_subset(GroupState& st, const KeyGroup& subset);

 private:
  struct ChildReport {
    double load = 0;
    bool is_leaf = false;
    SimTime at{0};
  };

  void handle_accept_keygroup(ServerId from, const AcceptKeyGroup& m);
  void handle_load_report(ServerId from, const LoadReport& m);
  void handle_reclaim(ServerId from, const ReclaimKeyGroup& m);
  void handle_reclaim_ack(ServerId from, const ReclaimAck& m);
  void handle_reclaim_refused(ServerId from, const ReclaimRefused& m);
  void handle_repl_append(ServerId from, const ReplAppend& m);
  void handle_repl_ack(ServerId from, const ReplAck& m);
  void handle_snapshot_offer(ServerId from, const SnapshotOffer& m);
  void handle_snapshot_chunk(ServerId from, const SnapshotChunk& m);
  void handle_ae_probe(ServerId from, const AntiEntropyProbe& m);
  void handle_ae_diff(ServerId from, const AntiEntropyDiff& m);

  /// Tell replica holders a group stopped being active here.
  void retire_replicas(const KeyGroup& group);

  /// Split `group`, shedding its right half (Section 5). When
  /// `reshed_on_self_map` is set and the right child maps back to this
  /// server, the right group's depth is increased again for "another
  /// randomized attempt" (load-shedding semantics); otherwise both
  /// children simply stay local (administrative splitting).
  void split_group(const KeyGroup& group, bool reshed_on_self_map);
  /// Merge's last step: the parent entry goes active again over
  /// `merged` (its left child's objects plus its right half's), and the
  /// left child's entry and log retire.
  void reactivate_parent(ServerTableEntry& parent_entry, GroupState merged);

  void send_load_reports();
  void try_split_for_overload();
  void try_consolidate();

  [[nodiscard]] std::optional<KeyGroup> pick_split_candidate();
  [[nodiscard]] std::optional<KeyGroup> pick_merge_candidate() const;

  /// Drop an emptied ephemeral group (fixed-depth baseline mode).
  void maybe_gc_group(const KeyGroup& group);

  ServerId self_;
  ClashConfig cfg_;
  ServerEnv& env_;
  dht::KeyHasher hasher_;
  AppHooks* app_hooks_ = nullptr;
  storage::NodeStore* storage_ = nullptr;
  ServerTable table_;
  std::unordered_map<KeyGroup, GroupState> state_;
  std::map<KeyGroup, ChildReport> child_reports_;  // right-child group -> report
  std::set<KeyGroup> pending_reclaims_;            // right-child groups asked back

  // --- Replication-log internals (src/repl/) ---------------------------
  /// ReplAppend batches in flight: head seq + send time, popped by the
  /// first ok ReplAck at or past that seq (commit-latency histogram).
  struct PendingCommit {
    std::uint64_t seq = 0;
    SimTime sent{0};
    std::uint64_t trace_id = 0;
  };
  /// Owner-side replication state of one group this server owns and
  /// logs (replicated or durable). init_group_log makes the record and
  /// drop_group_log erases it, so everything here lives exactly as
  /// long as the group's log.
  struct OwnedLog {
    /// Acks confirm holder progress; repair is nack-driven, so no
    /// per-holder state is kept.
    repl::GroupLog log{0, 0};
    /// Where the group sits on the ring, hashed once.
    dht::HashKey ring_pos;
    /// Ops logged during the current dispatch tick, sent as one frame
    /// at the flush (empty between ticks). They are the last
    /// batch.size() entries of `log`'s current line: a re-epoch and a
    /// retire send the batch first, and compaction never moves the head.
    std::vector<repl::LogOp> batch;
    /// Correlation id of the traced op (if any) batched here; a batch
    /// coalescing several ops keeps the first traced one's id.
    std::uint64_t trace_id = 0;
    /// Batches sent under the current line and not yet acked; a
    /// re-epoch clears them, since no holder can ack an old line now.
    std::deque<PendingCommit> inflight;
    /// The group's kReplAppend in-flight op, open while `inflight` is
    /// non-empty (0: none).
    std::uint64_t op_token = 0;
  };
  /// Keyed by group; node-based, so a record's address survives the
  /// inserts that an inline-delivering env's re-entrant sends can make.
  std::unordered_map<KeyGroup, OwnedLog> owned_logs_;
  /// Groups whose batch went non-empty since the last flush: the flush
  /// visits these, not every group this server owns.
  std::vector<KeyGroup> batched_;
  bool append_flush_scheduled_ = false;
  /// The tick's WAL group commit is deferred (kPerAppend).
  bool commit_scheduled_ = false;
  /// Build and fan `owned`'s batch out to the group's replica set
  /// (empties the batch; no-op when it is empty).
  void send_append_batch(const KeyGroup& group, OwnedLog& owned);

  /// The ring successors of ring position `pos` that hold the replicas
  /// of the group placed there, this server excluded (a ring shorter
  /// than the replication factor wraps back to the owner). Asked of
  /// the env on every call, so a ring change applies to the next send.
  [[nodiscard]] std::vector<ServerId> replica_set(dht::HashKey pos);
  /// `group`'s ring position: the hash kept in its OwnedLog when it has
  /// one, else hashed now.
  [[nodiscard]] dht::HashKey ring_pos(const KeyGroup& group) const;
  /// Append one op to an active group's log and queue it for the
  /// replica set (no-op unless the log engine is on). Ops queued
  /// during one dispatch tick coalesce into a single ReplAppend frame
  /// per group (flushed through ServerEnv::defer; an env with the
  /// inline default flushes per op).
  void log_op(const KeyGroup& group, repl::LogOp op);
  /// Send every non-empty queued ReplAppend batch now.
  void flush_pending_appends();
  /// Start (or restart) a group's log at an epoch strictly above both
  /// `min_epoch` and any epoch this server previously used for it.
  /// A restart first sends the batch queued under the old line.
  OwnedLog& init_group_log(const KeyGroup& group, std::uint64_t min_epoch);
  /// Retire a group's log, remembering the epoch for reactivations.
  void drop_group_log(const KeyGroup& group);
  /// Snapshot an active group to its whole replica set and compact.
  void snapshot_group(const ServerTableEntry& entry);
  /// Stream one snapshot (offer + chunks) of an active group to `to`.
  void send_snapshot_to(ServerId to, const ServerTableEntry& entry);
  /// Chunk an arbitrary state image at `head` to `to` (owner snapshots
  /// and peer-built repair snapshots share this path). The offer goes
  /// out immediately; chunks flow through the paced outbound cursor
  /// (pump_snapshots) so a large group cannot bury a backpressured
  /// connection in one tick.
  void send_state_snapshot(ServerId to, const KeyGroup& group,
                           const GroupState& st, repl::LogHead head,
                           bool root, ServerId parent, ServerId owner);
  /// Drop the unsent remainder of a transfer (receiver nacked it or
  /// the group left this server); repair restarts it from scratch.
  void cancel_outbound_snapshot(ServerId to, const KeyGroup& group);
  void cancel_outbound_snapshots(const KeyGroup& group);
  /// Periodic anti-entropy: batched (epoch, seq) vectors per holder.
  void send_anti_entropy();
  /// Answer a peer that reported being behind on `group` at `have`.
  void repair_peer(ServerId to, const KeyGroup& group, repl::LogHead have);

  /// Write `entry`'s current state as its on-disk snapshot (no-op
  /// without a durable store). The snapshot anchors WAL replay and
  /// advances the group's truncation floor.
  void persist_group_snapshot(const ServerTableEntry& entry);
  /// Make a freshly activated group durable: creates its log (which
  /// writes the baseline snapshot) when no log exists yet.
  void ensure_durable_group(const ServerTableEntry& entry);

  /// Drop replica records nobody has refreshed for several check
  /// periods: an ownership move re-targets the replica set, and the
  /// ex-holders' stale copies must not linger as promotion poison.
  void gc_stale_replicas();

  /// Replicas held on behalf of other owners (replication extension).
  struct ReplicaRecord {
    ServerId owner{};
    bool root = false;
    ServerId parent{};
    GroupState state;
    /// Last time any owner/peer touched this record (lease clock).
    SimTime refreshed{0};

    // Applied position + retained suffix since the last snapshot
    // (log.head() is the applied head; entries repair peers).
    repl::GroupLog log{0, 0};
    /// Freshest head any owner/peer ever advertised for the group.
    repl::LogHead advertised;

    /// Head of the last transfer this holder tore down and nacked:
    /// the dead stream's remaining chunks must stay silent (one nack
    /// per failed transfer, not one per stale chunk).
    repl::LogHead last_nacked{};

    /// In-flight chunked snapshot assembly (chunks must arrive in
    /// order; a mismatch drops the assembly, nacks the sender for an
    /// immediate restart, and anti-entropy backstops the retry).
    struct PendingSnapshot {
      repl::LogHead head;
      ServerId owner{};
      bool root = false;
      ServerId parent{};
      std::uint32_t total = 0;
      std::uint32_t received = 0;
      GroupState state;
      /// When the offer opened the assembly (snapshot-transfer span).
      SimTime started{0};
      /// Correlation id from the offer (0 = untraced).
      std::uint64_t trace_id = 0;
      /// InflightTable registration (kSnapshotIn); 0 when untracked.
      std::uint64_t inflight_token = 0;
    };
    std::optional<PendingSnapshot> pending;
  };
  std::map<KeyGroup, ReplicaRecord> replicas_;

  /// Paced outbound snapshot transfers: chunks are pre-cut at offer
  /// time (a stable image regardless of later mutations) and drained
  /// by pump_snapshots as the destination's budget allows.
  struct OutboundSnapshot {
    std::vector<SnapshotChunk> chunks;
    std::size_t next = 0;
    /// InflightTable registration (kSnapshotOut); 0 when untracked.
    std::uint64_t inflight_token = 0;
  };
  std::map<std::pair<ServerId, KeyGroup>, OutboundSnapshot>
      outbound_snapshots_;
  bool pumping_snapshots_ = false;  // re-entrancy guard (nack restarts)

  /// Last epoch used locally for a no-longer-active group: a
  /// reactivation must start strictly above it so stale copies can
  /// never dominate the new line.
  std::map<KeyGroup, std::uint64_t> retired_epochs_;
  /// Replica-lease clock: the GC lease floors at the slowest observed
  /// gap between run_load_check calls (the real refresh cadence).
  SimTime last_load_check_{-1};
  std::int64_t observed_check_gap_usec_ = 0;

  Rng rng_;
  MessageStats stats_;

  // --- Observability (src/obs/) ----------------------------------------
  obs::Hub& hub_;  // env_.obs(), cached at construction
  obs::HistogramHandle commit_latency_us_;
  obs::HistogramHandle failover_us_;
  obs::HistogramHandle snapshot_install_us_;
  obs::Counter puts_total_;
  obs::Counter repl_bytes_total_;
  obs::Counter cq_records_total_;
  obs::Counter cq_matches_total_;
  obs::HistogramHandle cq_match_us_;

  std::unordered_map<KeyGroup, GroupCost> group_costs_;
  /// Recovery sessions: one record each, its kRecoveryPull op and the
  /// failover span's start included.
  repl::RecoveryCoordinator recovery_;

  // --- Event ring / in-flight table glue --------------------------------
  /// Stable correlation tag for a group in ring events (the label
  /// string itself lives in the in-flight table entries).
  [[nodiscard]] static std::uint64_t group_tag(const KeyGroup& group) {
    return std::hash<KeyGroup>{}(group);
  }
  /// Record one instant lifecycle edge in the hub's event ring.
  void event(obs::SpanKind kind, std::uint64_t arg, std::uint64_t arg2 = 0) {
    hub_.tracer.record(kind, self_.value, env_.now(), SimDuration{0}, arg,
                       arg2);
  }
  /// Retire a group's kReplAppend op (its pending commits drained or
  /// were invalidated by an epoch change).
  void end_append_op(OwnedLog& owned) {
    hub_.inflight.end(owned.op_token);
    owned.op_token = 0;
  }
  void end_outbound_op(OutboundSnapshot& out) {
    hub_.inflight.end(out.inflight_token);
    out.inflight_token = 0;
  }
  /// Group lifecycle hooks with a ring event attached.
  void note_group_activated(const KeyGroup& group) {
    event(obs::SpanKind::kGroupActivated, group_tag(group));
    env_.on_group_activated(group);
  }
  void note_group_deactivated(const KeyGroup& group) {
    event(obs::SpanKind::kGroupDeactivated, group_tag(group));
    env_.on_group_deactivated(group);
  }

  /// Correlation id of the operation currently being dispatched
  /// (nonzero only while handling a traced AcceptObject / ReplAppend /
  /// snapshot): every span recorded and every replication message sent
  /// downstream inside the dispatch inherits it, which is what stitches
  /// one query's flow across nodes. Scoped by TraceScope in server.cpp.
  std::uint64_t active_trace_ = 0;
};

}  // namespace clash
