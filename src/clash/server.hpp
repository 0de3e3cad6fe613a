// ClashServer: the server side of the protocol (Sections 4 and 5):
// the server table, group splits and merges, ACCEPT_KEYGROUP and the
// client RPC. Its replication engine (repl::Replicator) keeps each
// owned group's log, the replicas it holds for other owners, and the
// snapshot transfers; the server calls it when a group becomes active
// here (activate) and when one leaves (deactivate), and forwards it the
// replication messages. Transport-agnostic: all I/O goes through
// ServerEnv, so the same logic runs under the discrete-event simulator,
// unit tests, and the TCP deployment layer.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "clash/config.hpp"
#include "clash/group_state.hpp"
#include "clash/load.hpp"
#include "clash/messages.hpp"
#include "clash/server_env.hpp"
#include "clash/server_table.hpp"
#include "clash/stats.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "dht/dht.hpp"
#include "obs/hub.hpp"
#include "repl/replicator.hpp"

namespace clash {

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
  void meter_repl_bytes(const KeyGroup& group, std::uint64_t bytes) {
    repl_.meter_repl_bytes(group, bytes);
  }
  /// Meter `bytes` of durable-storage writes for `group`.
  void meter_storage_bytes(const KeyGroup& group, std::uint64_t bytes) {
    repl_.meter_storage_bytes(group, bytes);
  }
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
  [[nodiscard]] bool log_replication() const { return repl_.replicating(); }

  /// Owner-side log head of an active group (replicated or durable).
  [[nodiscard]] std::optional<repl::LogHead> log_head(
      const KeyGroup& group) const {
    return repl_.log_head(group);
  }
  /// Replica-side applied head for a group held on behalf of a peer.
  [[nodiscard]] std::optional<repl::LogHead> replica_head(
      const KeyGroup& group) const {
    const repl::GroupLog* log = repl_.replica_log(group);
    return log != nullptr ? std::optional(log->head()) : std::nullopt;
  }
  /// Owner-side / replica-side log of `group`, retained suffix included
  /// (introspection for tests/operators); nullptr when absent.
  [[nodiscard]] const repl::GroupLog* group_log(const KeyGroup& g) const {
    return repl_.group_log(g);
  }
  [[nodiscard]] const repl::GroupLog* replica_log(const KeyGroup& g) const {
    return repl_.replica_log(g);
  }
  /// Replica-side object state (introspection for tests/operators).
  [[nodiscard]] const GroupState* replica_state(const KeyGroup& g) const {
    return repl_.replica_state(g);
  }

  /// Open a recovery session for a group this server is about to be
  /// promoted for: probes the surviving replica set for fresher
  /// (epoch, seq) heads so peers can stream the missing suffix before
  /// promote_replica installs. An env that delivers inline finishes
  /// the repair inside this call; ClashNode and SimCluster hold a
  /// grace window.
  /// Returns whether a new session opened (none if one is already open).
  bool begin_group_recovery(const KeyGroup& group) {
    return repl_.begin_recovery(group);
  }

  /// Drop an open recovery session without promoting (the grace-window
  /// re-check failed: the member rejoined or the ring moved the heir).
  void abandon_group_recovery(const KeyGroup& group) {
    repl_.abandon_recovery(group);
  }

  /// Hand every active group whose DHT owner is now `to` over to it
  /// with full state (ring re-admission healed the routing — without
  /// this, a rejoined node would serve its key ranges empty). Returns
  /// the number of groups moved.
  std::size_t handoff_groups(ServerId to);

  [[nodiscard]] const repl::RecoveryStats& recovery_stats() const {
    return repl_.recovery_stats();
  }

  // --- Durable storage subsystem (src/storage/) ------------------------
  /// Attach the node's durable store: every owned-group mutation
  /// appends to its WAL (a tick that appended ends in one deferred
  /// group commit: one WAL write, synced per the fsync policy),
  /// activations write baseline snapshots, and log compaction cuts
  /// checkpoint snapshots, written at the WAL's next sync point, that
  /// truncate the WAL.
  /// Attach before any traffic; the store must outlive the server.
  void set_storage(storage::NodeStore* store) { repl_.set_storage(store); }

  /// True when a store is attached and the config enables durability.
  [[nodiscard]] bool durable() const { return repl_.durable(); }

  /// Install the store's recovered pre-crash image as replica records
  /// (owner = self). Promotion then re-adopts each group under a
  /// bumped epoch, and the recovery pull fetches only the divergent
  /// suffix from live holders — not a full snapshot. Returns the
  /// number of groups restored.
  std::size_t restore_from_storage() { return repl_.restore_from_storage(); }

  /// Resume snapshot transfers that paused on transport backpressure:
  /// sends as many pending chunks as each destination's budget allows.
  /// Returns the number of transfers still unfinished. Driven by
  /// run_load_check and, on the TCP layer, by connection-drain
  /// callbacks.
  std::size_t pump_snapshots() { return repl_.pump_snapshots(); }
  [[nodiscard]] bool has_pending_snapshots() const {
    return repl_.has_pending_snapshots();
  }

  [[nodiscard]] std::size_t replica_count() const {
    return repl_.replica_count();
  }
  [[nodiscard]] bool has_replica(const KeyGroup& group) const {
    return repl_.replica_log(group) != nullptr;
  }
  /// NodeHost's inputs: the groups held as replica records,
  /// and the owner a record names (nullopt: no record).
  [[nodiscard]] std::vector<KeyGroup> replica_groups() const {
    return repl_.replica_groups();
  }
  [[nodiscard]] std::optional<ServerId> replica_owner(
      const KeyGroup& group) const {
    return repl_.replica_owner(group);
  }
  /// Forget the replica record of `group` (DropReplica; NodeHost once
  /// the ring no longer places this server in the group's replica set).
  void drop_replica(const KeyGroup& group) { repl_.drop_replica(group); }

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

  /// The one way a group becomes active here (install, transfer, merge,
  /// a split's children, promotion): `entry` replaces any entry held for
  /// its group, `st` becomes its objects, the env hears of it, and the
  /// engine starts its log on a line above `min_epoch`.
  void activate(const ServerTableEntry& entry, GroupState st,
                std::uint64_t min_epoch);
  enum class Retire { kNow, kLater };
  /// The one way a group stops being active here: returns its objects,
  /// drops its entry (a split parent's, which names a right child, stays
  /// as lineage) and tells the env. Split and merge pass kLater and
  /// retire the log once the old baseline's objects are anchored again:
  /// a WAL drop record written before that would lose them to a crash.
  GroupState deactivate(const KeyGroup& group, Retire retire = Retire::kNow);

  /// Split `group`, shedding its right half (Section 5). When
  /// `reshed_on_self_map` is set and the right child maps back to this
  /// server, the right group's depth is increased again for "another
  /// randomized attempt" (load-shedding semantics); otherwise both
  /// children simply stay local (administrative splitting).
  void split_group(const KeyGroup& group, bool reshed_on_self_map);
  /// Merge's last step: `parent` goes active again over its left
  /// child's objects plus `right_half` (a ReclaimAck's or the local
  /// right child's), and the left child retires once the parent's
  /// baseline is written.
  template <typename Objects>
  void merge_into_parent(const KeyGroup& parent, const Objects& right_half);

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
  ServerTable table_;
  std::unordered_map<KeyGroup, GroupState> state_;
  std::map<KeyGroup, ChildReport> child_reports_;  // right-child group -> report
  std::set<KeyGroup> pending_reclaims_;            // right-child groups asked back

  Rng rng_;
  MessageStats stats_;

  // --- Observability (src/obs/) ----------------------------------------
  obs::Hub& hub_;  // env_.obs(), cached at construction
  obs::Counter puts_total_;
  obs::Counter cq_records_total_;
  obs::Counter cq_matches_total_;
  obs::HistogramHandle cq_match_us_;

  std::unordered_map<KeyGroup, GroupCost> group_costs_;

  /// Correlation id of the operation currently being dispatched
  /// (nonzero only while handling a traced AcceptObject / ReplAppend /
  /// snapshot): every span recorded and every replication message sent
  /// downstream inside the dispatch inherits it, which is what stitches
  /// one query's flow across nodes. Scoped by repl::TraceScope.
  std::uint64_t active_trace_ = 0;

  /// The replication engine (src/repl/): declared last, since it holds
  /// references to the members above.
  repl::Replicator repl_;
};

}  // namespace clash
