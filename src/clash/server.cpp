#include "clash/server.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>

#include "common/logging.hpp"
#include "storage/store.hpp"
#include "wire/codec.hpp"

namespace clash {

ClashServer::ClashServer(ServerId self, const ClashConfig& cfg, ServerEnv& env,
                         dht::KeyHasher hasher)
    : self_(self),
      cfg_(cfg),
      env_(env),
      hasher_(hasher),
      table_(cfg.key_width),
      rng_(self.value * 0x9e3779b97f4a7c15ULL + 17),
      hub_(env.obs()),
      recovery_(hub_.inflight, std::uint32_t(self.value)) {
  auto& reg = hub_.registry;
  commit_latency_us_ = reg.histogram("clash_repl_commit_usec");
  failover_us_ = reg.histogram("clash_failover_recovery_usec");
  snapshot_install_us_ = reg.histogram("clash_snapshot_install_usec");
  puts_total_ = reg.counter("clash_puts_total");
  repl_bytes_total_ = reg.counter("clash_repl_bytes_total");
  cq_records_total_ = reg.counter("clash_cq_records_total");
  cq_matches_total_ = reg.counter("clash_cq_matches_total");
  cq_match_us_ = reg.histogram("clash_cq_match_usec");
}

// Structural wire-size model for the cost vector: close enough to the
// encoded sizes for placement decisions, free on the hot path (no
// second encode).
namespace {

constexpr std::uint64_t kMsgOverheadBytes = 24;
constexpr std::uint64_t kPutWireBytes = 40;
constexpr std::uint64_t kMatchWireBytes = 48;  // one match notification
constexpr std::uint64_t kPredicateWireBytes = 13;

std::uint64_t approx_op_bytes(const repl::LogOp& op) {
  return 24 + kPredicateWireBytes * op.query.predicates.size();
}

std::uint64_t approx_chunk_bytes(const SnapshotChunk& c) {
  std::uint64_t b = kMsgOverheadBytes + 24 * c.streams.size() +
                    16 * c.queries.size();
  for (const auto& q : c.queries) {
    b += kPredicateWireBytes * q.predicates.size();
  }
  return b;
}

/// Remove `group`'s state from `states` and return it (empty when it
/// had none).
GroupState take_state(std::unordered_map<KeyGroup, GroupState>& states,
                      const KeyGroup& group) {
  GroupState st;
  if (const auto it = states.find(group); it != states.end()) {
    st = std::move(it->second);
    states.erase(it);
  }
  return st;
}

/// Copy a group's objects into a transfer's vectors (a split's right
/// half, a reclaimed child, a handoff).
template <typename Transfer>
void export_objects(const GroupState& st, Transfer& out) {
  out.streams.reserve(st.streams.size());
  for (const auto& [_, s] : st.streams) out.streams.push_back(s);
  out.queries.reserve(st.queries.size());
  for (const auto& [_, q] : st.queries) out.queries.push_back(q);
}

const StreamInfo& object_of(const StreamInfo& s) { return s; }
const QueryInfo& object_of(const QueryInfo& q) { return q; }
template <typename Id, typename Object>
const Object& object_of(const std::pair<const Id, Object>& entry) {
  return entry.second;
}

/// Absorb the objects of `in` (a transfer's vectors or another group's
/// maps) into `gs`. An object both hold keeps the incoming copy when
/// `incoming_wins`, the local one otherwise; either way stream_rate
/// stays the sum of the streams' rates.
template <typename Objects>
void absorb_objects(GroupState& gs, const Objects& in, bool incoming_wins) {
  for (const auto& entry : in.streams) {
    const StreamInfo& s = object_of(entry);
    auto [it, fresh] = gs.streams.try_emplace(s.source, s);
    if (!fresh) {
      if (!incoming_wins) continue;
      gs.stream_rate -= it->second.rate;
      it->second = s;
    }
    gs.stream_rate += s.rate;
  }
  for (const auto& entry : in.queries) {
    const QueryInfo& q = object_of(entry);
    if (incoming_wins) {
      gs.queries.upsert(q);
    } else if (gs.queries.count(q.id) == 0) {
      gs.queries.insert(q);
    }
  }
}

/// RAII for ClashServer::active_trace_: installs `id` (when nonzero)
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

}  // namespace

void ClashServer::meter_repl_bytes(const KeyGroup& group,
                                   std::uint64_t bytes) {
  group_costs_[group].repl_bytes += bytes;
  repl_bytes_total_.inc(bytes);
}

void ClashServer::meter_storage_bytes(const KeyGroup& group,
                                      std::uint64_t bytes) {
  group_costs_[group].storage_bytes += bytes;
}

void ClashServer::fold_census(NodeCensusRecord& rec,
                              std::size_t top_k) const {
  rec.load = server_load();
  rec.active_groups = std::uint32_t(table_.active_count());
  rec.replica_records = std::uint32_t(replicas_.size());
  rec.queries = total_queries();
  rec.streams = total_streams();
  rec.totals = total_group_cost();
  rec.top_groups.clear();
  rec.top_groups.reserve(group_costs_.size());
  for (const auto& [group, cost] : group_costs_) {
    rec.top_groups.push_back(CensusGroupCost{group, cost});
  }
  // Deterministic top-K: heaviest first, ties by group identity so two
  // folds of the same state publish the same record.
  std::sort(rec.top_groups.begin(), rec.top_groups.end(),
            [](const CensusGroupCost& a, const CensusGroupCost& b) {
              if (a.cost.total_bytes() != b.cost.total_bytes()) {
                return a.cost.total_bytes() > b.cost.total_bytes();
              }
              return a.group < b.group;
            });
  if (rec.top_groups.size() > top_k) rec.top_groups.resize(top_k);
}

void ClashServer::install_entry(const ServerTableEntry& entry) {
  table_.insert(entry);
  if (entry.active) {
    state_.try_emplace(entry.group);
    note_group_activated(entry.group);
    if (cfg_.replication_factor > 0) snapshot_group(entry);
    ensure_durable_group(entry);
  }
}

bool ClashServer::mark_group_root(const KeyGroup& group) {
  ServerTableEntry* entry = table_.find(group);
  if (entry == nullptr || !entry->active) return false;
  if (entry->root) return true;
  entry->root = true;
  // The group's replicas (and its durable baseline) were cut while the
  // flag was still false: bootstrap force-splits before it marks the
  // floor. Refresh them, or a promoted copy would consolidate above it.
  persist_group_snapshot(*entry);
  if (cfg_.replication_factor > 0) snapshot_group(*entry);
  return true;
}

// ---------------------------------------------------------------------------
// Client RPC: the three cases of Section 5.
// ---------------------------------------------------------------------------

AcceptObjectReply ClashServer::handle_accept_object(const AcceptObject& m) {
  const TraceScope trace(active_trace_, m.trace_id);
  ServerTableEntry* entry = table_.active_entry_for(m.key);
  if (entry == nullptr) {
    // Case (c): not responsible. Reply with the longest prefix match
    // across all entries so the client can narrow its depth search.
    return IncorrectDepth{table_.longest_prefix_match(m.key)};
  }
  // Cases (a) (right depth) and (b) (wrong depth, right server) differ
  // only in the echoed depth; the client compares.
  if (!m.probe_only) {
    if (hub_.tracer.enabled()) {
      hub_.tracer.record(obs::SpanKind::kIngest, self_.value, env_.now(),
                         SimDuration{0}, std::uint64_t(m.kind), 0,
                         active_trace_);
    }
    GroupState& gs = state_[entry->group];
    GroupCost& cost = group_costs_[entry->group];
    ++cost.puts;
    cost.bytes_served += kPutWireBytes;
    puts_total_.inc();
    if (m.kind == ObjectKind::kQuery) {
      QueryInfo q(m.query_id, m.key, m.scope_depth.value_or(m.key.width()),
                  m.predicates);
      gs.queries.upsert(q);
      log_op(entry->group, repl::LogOp::put_query(std::move(q)));
    } else {
      auto [it, inserted] = gs.streams.try_emplace(m.source);
      if (!inserted) gs.stream_rate -= it->second.rate;
      it->second = StreamInfo{m.source, m.key, m.stream_rate};
      gs.stream_rate += m.stream_rate;
      log_op(entry->group,
             repl::LogOp::put_stream(StreamInfo{m.source, m.key,
                                                m.stream_rate}));
    }
  }
  return AcceptObjectOk{entry->group.depth()};
}

std::size_t ClashServer::match(const cq::Record& r) {
  const ServerTableEntry* entry = table_.active_entry_for(r.key);
  if (entry == nullptr) return 0;
  const auto st = state_.find(entry->group);
  if (st == state_.end()) return 0;
  cq_records_total_.inc();
  // Only a firing record pays for the second clock read.
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = st->second.queries.match(r);
  if (n == 0) return 0;
  cq_match_us_.record(std::uint64_t(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  cq_matches_total_.inc(n);
  GroupCost& cost = group_costs_[entry->group];
  cost.matches += n;
  cost.bytes_served += n * kMatchWireBytes;
  hub_.tracer.record(obs::SpanKind::kQueryMatch, self_.value, env_.now(),
                     SimDuration{0}, n, 0, active_trace_);
  return n;
}

void ClashServer::remove_stream(ClientId source, const Key& key) {
  ServerTableEntry* entry = table_.active_entry_for(key);
  if (entry == nullptr) return;
  const auto st = state_.find(entry->group);
  if (st == state_.end()) return;
  const auto it = st->second.streams.find(source);
  if (it == st->second.streams.end()) return;
  st->second.stream_rate -= it->second.rate;
  if (st->second.stream_rate < 0) st->second.stream_rate = 0;  // fp dust
  st->second.streams.erase(it);
  log_op(entry->group, repl::LogOp::del_stream(source));
  maybe_gc_group(entry->group);
}

void ClashServer::remove_query(QueryId id, const Key& key) {
  ServerTableEntry* entry = table_.active_entry_for(key);
  if (entry == nullptr) return;
  const auto st = state_.find(entry->group);
  if (st == state_.end()) return;
  st->second.queries.erase(id);
  log_op(entry->group, repl::LogOp::del_query(id));
  maybe_gc_group(entry->group);
}

void ClashServer::maybe_gc_group(const KeyGroup& group_ref) {
  if (!cfg_.ephemeral_groups) return;
  // Callers pass a reference into the table entry that table_.erase is
  // about to free — copy first.
  const KeyGroup group = group_ref;
  const auto st = state_.find(group);
  if (st == state_.end() || !st->second.empty()) return;
  state_.erase(st);
  table_.erase(group);
  note_group_deactivated(group);
  retire_replicas(group);
}

// ---------------------------------------------------------------------------
// Peer message dispatch.
// ---------------------------------------------------------------------------

void ClashServer::deliver(ServerId from, const Message& msg) {
  // Each peer message is counted here, once, by its receiver: the same
  // count in the simulator and over TCP (Figure 5's message classes).
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, AcceptKeyGroup>) {
          stats_.keygroup_transfers++;
          handle_accept_keygroup(from, m);
        } else if constexpr (std::is_same_v<T, LoadReport>) {
          stats_.load_reports++;
          handle_load_report(from, m);
        } else if constexpr (std::is_same_v<T, ReclaimKeyGroup>) {
          stats_.reclaim_requests++;
          handle_reclaim(from, m);
        } else if constexpr (std::is_same_v<T, ReclaimAck>) {
          stats_.reclaim_replies++;
          handle_reclaim_ack(from, m);
        } else if constexpr (std::is_same_v<T, ReclaimRefused>) {
          stats_.reclaim_replies++;
          handle_reclaim_refused(from, m);
        } else if constexpr (std::is_same_v<T, DropReplica>) {
          stats_.replica_drops++;
          drop_replica(m.group);
        } else if constexpr (std::is_same_v<T, ReplAppend>) {
          stats_.repl_appends++;
          handle_repl_append(from, m);
        } else if constexpr (std::is_same_v<T, ReplAck>) {
          stats_.repl_acks++;
          handle_repl_ack(from, m);
        } else if constexpr (std::is_same_v<T, SnapshotOffer>) {
          stats_.snapshot_offers++;
          handle_snapshot_offer(from, m);
        } else if constexpr (std::is_same_v<T, SnapshotChunk>) {
          stats_.snapshot_chunks++;
          handle_snapshot_chunk(from, m);
        } else if constexpr (std::is_same_v<T, AntiEntropyProbe>) {
          stats_.anti_entropy_probes++;
          handle_ae_probe(from, m);
        } else if constexpr (std::is_same_v<T, AntiEntropyDiff>) {
          stats_.anti_entropy_diffs++;
          handle_ae_diff(from, m);
        } else if constexpr (std::is_same_v<T, AcceptKeyGroupAck>) {
          // Acknowledgement only; transfer already applied locally.
          stats_.keygroup_acks++;
        } else {
          CLASH_WARN << to_string(self_)
                     << ": unexpected message variant from peer";
        }
      },
      msg);
}

void ClashServer::handle_accept_keygroup(ServerId from,
                                         const AcceptKeyGroup& m) {
  // Section 5: a node must accept every ACCEPT_KEYGROUP (it can always
  // split further itself if overloaded).
  //
  // Split views (a false death verdict, a partition) can leave the group
  // active here too: an heir promoted it while this server kept it, and
  // handoff_groups sends it back. Fence by epoch: the higher-epoch copy
  // wins every object both copies hold (this server's on a tie), the
  // objects only one copy holds are kept, so writes taken on either
  // side of the split survive, and the group starts a line above both.
  ServerTableEntry* held = table_.find(m.group);
  std::uint64_t epoch = m.epoch;
  bool incoming_wins = true;
  if (held == nullptr) {
    ServerTableEntry entry;
    entry.group = m.group;
    entry.parent = m.parent;
    entry.root = m.root;  // handoffs preserve lineage; splits send false
    entry.active = true;
    table_.insert(entry);
    held = table_.find(m.group);
  } else if (!held->active) {
    // This server split the group since: its children cover the range.
    CLASH_WARN << to_string(self_) << ": refusing transfer of "
               << m.group.label() << " (split here)";
    return;
  } else {
    const auto lit = owned_logs_.find(m.group);
    const std::uint64_t local =
        lit != owned_logs_.end() ? lit->second.log.epoch() : 0;
    incoming_wins = m.epoch > local;
    epoch = std::max(epoch, local);
    if (incoming_wins) {
      held->parent = m.parent;
      held->root = m.root;
    }
  }
  // Also on a merge: the sender's copy just deactivated.
  note_group_activated(m.group);

  absorb_objects(state_[m.group], m, incoming_wins);
  if (app_hooks_ != nullptr && !m.app_state.empty() && incoming_wins) {
    app_hooks_->import_state(m.group, m.app_state);
  }
  // A transfer supersedes any in-flight recovery of the same group
  // (e.g. a handoff landing inside a promotion grace window).
  recovery_.cancel(m.group);

  // Replicate the freshly adopted group now rather than at the next
  // load check: a group must never live a whole check period with no
  // replica, or its owner's crash in that window would lose it (and,
  // in the deployed layer, leave its key range unroutable -- no
  // survivor would even know the group existed).
  if (log_replication() || durable()) init_group_log(m.group, epoch + 1);
  if (cfg_.replication_factor > 0) snapshot_group(*held);

  env_.send(from, AcceptKeyGroupAck{m.group});
}

void ClashServer::handle_load_report(ServerId from, const LoadReport& m) {
  child_reports_[m.group] = ChildReport{m.load, m.is_leaf, env_.now()};
  // Self-healing child pointer: after a failover the group's new owner
  // reports here; update the lineage entry so consolidation can still
  // reach it.
  if (m.group.is_right_child()) {
    ServerTableEntry* parent_entry = table_.find(m.group.parent());
    if (parent_entry != nullptr && !parent_entry->active &&
        parent_entry->right_child.valid() &&
        parent_entry->right_child != from &&
        pending_reclaims_.count(m.group) == 0) {
      parent_entry->right_child = from;
    }
  }
}

void ClashServer::handle_reclaim(ServerId from, const ReclaimKeyGroup& m) {
  ServerTableEntry* entry = table_.find(m.group);
  // Refuse unless the group is still an active leaf we hold for this
  // parent (it may have been split further since the last report).
  if (entry == nullptr || !entry->active || entry->root ||
      entry->parent != from) {
    stats_.merge_refusals++;
    env_.send(from, ReclaimRefused{m.group});
    return;
  }
  const GroupState st = take_state(state_, m.group);
  table_.erase(m.group);
  child_reports_.erase(m.group);
  note_group_deactivated(m.group);
  retire_replicas(m.group);

  ReclaimAck ack;
  ack.group = m.group;
  export_objects(st, ack);
  if (app_hooks_ != nullptr) {
    ack.app_state = app_hooks_->export_state(m.group, from);
  }
  stats_.state_transfer_msgs += ack.queries.size();
  env_.send(from, std::move(ack));
}

void ClashServer::handle_reclaim_ack(ServerId from, const ReclaimAck& m) {
  pending_reclaims_.erase(m.group);
  child_reports_.erase(m.group);

  ServerTableEntry* parent_entry = table_.find(m.group.parent());
  if (parent_entry == nullptr || parent_entry->active ||
      parent_entry->right_child != from) {
    // Should not happen with the pending-reclaim guard; drop the state
    // loudly rather than corrupt the table.
    CLASH_ERROR << to_string(self_) << ": stray ReclaimAck for "
                << m.group.label();
    return;
  }
  GroupState merged = take_state(state_, m.group.parent().left_child());
  // An object both halves hold (a source re-registered across the
  // split without a withdraw) keeps the right half's copy, counted once.
  absorb_objects(merged, m, /*incoming_wins=*/true);
  if (app_hooks_ != nullptr && !m.app_state.empty()) {
    app_hooks_->import_state(parent_entry->group, m.app_state);
  }
  reactivate_parent(*parent_entry, std::move(merged));
}

void ClashServer::reactivate_parent(ServerTableEntry& parent_entry,
                                    GroupState merged) {
  const KeyGroup parent_group = parent_entry.group;
  const KeyGroup left = parent_group.left_child();
  assert(table_.find(left) != nullptr && table_.find(left)->active);
  table_.erase(left);
  note_group_deactivated(left);
  table_.set_active(parent_entry, true);
  parent_entry.right_child = ServerId{};
  state_[parent_group] = std::move(merged);
  note_group_activated(parent_group);
  if (cfg_.replication_factor > 0) snapshot_group(parent_entry);
  ensure_durable_group(parent_entry);
  // The merged parent's baseline is anchored; only now may the left
  // child's durable record be dropped (see split_group).
  retire_replicas(left);
  stats_.merges++;
}

void ClashServer::handle_reclaim_refused(ServerId /*from*/,
                                         const ReclaimRefused& m) {
  pending_reclaims_.erase(m.group);
  // Mark the report non-leaf so we stop trying until a fresh report.
  const auto it = child_reports_.find(m.group);
  if (it != child_reports_.end()) it->second.is_leaf = false;
}

// ---------------------------------------------------------------------------
// Splitting (Section 4/5).
// ---------------------------------------------------------------------------

bool ClashServer::force_split(const KeyGroup& group) {
  ServerTableEntry* entry = table_.find(group);
  if (entry == nullptr || !entry->active ||
      group.depth() >= cfg_.key_width) {
    return false;
  }
  split_group(group, /*reshed_on_self_map=*/false);
  return true;
}

void ClashServer::split_group(const KeyGroup& group,
                              bool reshed_on_self_map) {
  [[maybe_unused]] ServerTableEntry* entry = table_.find(group);
  assert(entry != nullptr && entry->active);
  assert(group.depth() < cfg_.key_width);

  GroupState st = take_state(state_, group);

  KeyGroup current = group;
  // Replica/log retirement of the groups this split deactivates is
  // deferred to the end: the WAL drop record of a split-away group
  // must never hit the disk before every object it covered is
  // re-anchored (children baselines written, or the right half sent),
  // or a crash inside the split would lose state that only the old
  // snapshot still described.
  std::vector<KeyGroup> retired;
  for (;;) {
    const KeyGroup left = current.left_child();
    const KeyGroup right = current.right_child();

    // The left child expands to the same N-bit virtual key, so it maps
    // back to this server by construction; only the right child needs a
    // DHT lookup.
    const dht::LookupResult owner =
        env_.dht_lookup(hasher_.hash_key(right.virtual_key()));

    GroupState right_state = extract_subset(st, right);

    ServerTableEntry* cur_entry = table_.find(current);
    assert(cur_entry != nullptr);
    table_.set_active(*cur_entry, false);
    cur_entry->right_child = owner.owner;
    note_group_deactivated(current);

    ServerTableEntry left_entry;
    left_entry.group = left;
    left_entry.parent = self_;
    left_entry.active = true;
    table_.insert(left_entry);
    state_[left] = std::move(st);
    note_group_activated(left);
    // The left child is a final placement: replicate it immediately so
    // it never spends a check period unprotected (see
    // handle_accept_keygroup).
    if (cfg_.replication_factor > 0) snapshot_group(left_entry);
    ensure_durable_group(left_entry);
    retired.push_back(current);

    if (owner.owner != self_ || right.depth() >= cfg_.key_width ||
        !reshed_on_self_map) {
      if (owner.owner == self_) {
        // Administrative split, or a maximal-depth right child that
        // still maps here: keep the right child local and active.
        ServerTableEntry right_entry;
        right_entry.group = right;
        right_entry.parent = self_;
        right_entry.active = true;
        cur_entry = table_.find(current);
        cur_entry->right_child = self_;
        table_.insert(right_entry);
        state_[right] = std::move(right_state);
        note_group_activated(right);
        if (cfg_.replication_factor > 0) snapshot_group(right_entry);
        ensure_durable_group(right_entry);
        stats_.self_remaps++;
      } else {
        AcceptKeyGroup msg;
        msg.group = right;
        msg.parent = self_;
        export_objects(right_state, msg);
        if (app_hooks_ != nullptr) {
          msg.app_state = app_hooks_->export_state(right, owner.owner);
        }
        stats_.state_transfer_msgs += msg.queries.size();
        env_.send(owner.owner, std::move(msg));
      }
      stats_.splits++;
      for (const KeyGroup& g : retired) retire_replicas(g);
      return;
    }

    // Right child mapped back to us: make "another randomized attempt"
    // by increasing the depth of the right group again (Section 5).
    stats_.self_remaps++;
    ServerTableEntry right_entry;
    right_entry.group = right;
    right_entry.parent = self_;
    right_entry.active = true;  // immediately re-split below
    table_.insert(right_entry);
    note_group_activated(right);
    st = std::move(right_state);
    current = right;
  }
}

// ---------------------------------------------------------------------------
// Periodic load management.
// ---------------------------------------------------------------------------

void ClashServer::run_load_check() {
  // The replica lease must track the cadence this method actually runs
  // at: the deployment layer drives it on its own interval, which may
  // be far longer than ClashConfig::load_check_period — deriving the
  // lease from the config alone could expire perfectly live replicas
  // between two refreshes.
  const SimTime now = env_.now();
  if (last_load_check_.usec >= 0) {
    observed_check_gap_usec_ =
        std::max(observed_check_gap_usec_, (now - last_load_check_).usec);
  }
  last_load_check_ = now;
  if (durable()) {
    storage_->tick(now);  // kInterval fsync backstop
    // Re-anchor any group whose snapshot write failed (ENOSPC,
    // transient I/O): without the baseline, recovery would replay its
    // ops onto an empty image and call the partial result success.
    for (const ServerTableEntry* e : table_.active_entries()) {
      if (storage_->snapshot_retry_pending(e->group)) {
        persist_group_snapshot(*e);
      }
    }
  }
  send_load_reports();
  gc_stale_replicas();
  // The steady-state replica refresh is one (epoch, seq) vector per
  // holder: divergence is repaired by exactly the missing suffix.
  if (log_replication()) send_anti_entropy();
  // Resume any snapshot transfer that paused on transport
  // backpressure (the drain callback is the fast path; this is the
  // periodic backstop).
  pump_snapshots();
  const double load = server_load();
  switch (classify_load(cfg_, load)) {
    case LoadVerdict::kOverloaded:
      try_split_for_overload();
      break;
    case LoadVerdict::kUnderloaded:
      if (cfg_.enable_consolidation) try_consolidate();
      break;
    case LoadVerdict::kNormal:
      break;
  }
}

void ClashServer::send_load_reports() {
  for (const ServerTableEntry* e : table_.all_entries()) {
    if (e->root || !e->parent.valid() || e->parent == self_) continue;
    LoadReport r;
    r.group = e->group;
    r.is_leaf = e->active;
    r.load = e->active ? load_of(e->group) : 0.0;
    env_.send(e->parent, r);
  }
}

void ClashServer::try_split_for_overload() {
  for (unsigned i = 0; i < cfg_.max_splits_per_check; ++i) {
    if (classify_load(cfg_, server_load()) != LoadVerdict::kOverloaded) break;
    const auto candidate = pick_split_candidate();
    if (!candidate) break;  // nothing splittable (all at max depth)
    split_group(*candidate, /*reshed_on_self_map=*/true);
  }
}

std::optional<KeyGroup> ClashServer::pick_split_candidate() {
  std::vector<const ServerTableEntry*> eligible;
  for (const ServerTableEntry* e : table_.active_entries()) {
    if (e->group.depth() >= cfg_.key_width) continue;
    // Never split the local left child of a reclaim in flight: the
    // merge handler needs it to still be an active leaf.
    if (!e->group.is_root() &&
        pending_reclaims_.count(e->group.sibling()) > 0) {
      continue;
    }
    eligible.push_back(e);
  }
  if (eligible.empty()) return std::nullopt;

  switch (cfg_.split_policy) {
    case ClashConfig::SplitPolicy::kRandom:
      return eligible[rng_.below(eligible.size())]->group;
    case ClashConfig::SplitPolicy::kMostKeys: {
      const auto it = std::max_element(
          eligible.begin(), eligible.end(), [](const auto* a, const auto* b) {
            return a->group.cardinality() < b->group.cardinality();
          });
      return (*it)->group;
    }
    case ClashConfig::SplitPolicy::kHottest:
      break;
  }
  const auto it = std::max_element(
      eligible.begin(), eligible.end(), [this](const auto* a, const auto* b) {
        return load_of(a->group) < load_of(b->group);
      });
  // Splitting a zero-load group cannot shed anything.
  if (load_of((*it)->group) <= 0.0) return std::nullopt;
  return (*it)->group;
}

std::optional<KeyGroup> ClashServer::pick_merge_candidate() const {
  // Candidates: inactive local entries whose left child is a local
  // active non-root leaf and whose right child reported being a cold
  // leaf recently.
  const SimTime now = env_.now();
  const auto fresh_within =
      SimTime(cfg_.load_check_period.usec * 3);  // staleness bound

  std::optional<KeyGroup> best;
  double best_combined = 0;
  for (const ServerTableEntry* e : table_.all_entries()) {
    if (e->active || !e->right_child.valid()) continue;
    if (pending_reclaims_.count(e->group.right_child()) > 0) continue;

    const KeyGroup left = e->group.left_child();
    const ServerTableEntry* left_entry = table_.find(left);
    if (left_entry == nullptr || !left_entry->active || left_entry->root) {
      continue;
    }

    const KeyGroup right = e->group.right_child();
    double right_load = 0;
    if (e->right_child == self_) {
      const ServerTableEntry* right_entry = table_.find(right);
      if (right_entry == nullptr || !right_entry->active ||
          right_entry->root) {
        continue;
      }
      right_load = load_of(right);
    } else {
      const auto rep = child_reports_.find(right);
      if (rep == child_reports_.end() || !rep->second.is_leaf) continue;
      if (now - rep->second.at > fresh_within) continue;
      right_load = rep->second.load;
    }

    const double combined = load_of(left) + right_load;
    if (combined > ClashConfig::kMergeTargetFrac * cfg_.capacity) continue;
    // Absorbing the right child must not push us over the overload
    // threshold.
    if (server_load() + right_load > cfg_.overload_frac * cfg_.capacity) {
      continue;
    }
    if (!best || combined < best_combined) {  // paper: coldest
      best = e->group;
      best_combined = combined;
    }
  }
  return best;
}

void ClashServer::try_consolidate() {
  const auto candidate = pick_merge_candidate();
  if (!candidate) return;
  ServerTableEntry* entry = table_.find(*candidate);
  assert(entry != nullptr && !entry->active);
  const KeyGroup right = candidate->right_child();

  if (entry->right_child == self_) {
    // Both halves local: merge without messages.
    assert(table_.find(right) != nullptr && table_.find(right)->active);
    const GroupState right_state = take_state(state_, right);
    table_.erase(right);
    child_reports_.erase(right);
    note_group_deactivated(right);
    retire_replicas(right);
    GroupState merged = take_state(state_, candidate->left_child());
    absorb_objects(merged, right_state, /*incoming_wins=*/true);
    reactivate_parent(*entry, std::move(merged));
    return;
  }

  pending_reclaims_.insert(right);
  env_.send(entry->right_child, ReclaimKeyGroup{right});
}

// ---------------------------------------------------------------------------
// Fault tolerance: replica retirement and lease GC.
// ---------------------------------------------------------------------------

void ClashServer::retire_replicas(const KeyGroup& group) {
  // Read before drop_group_log forgets the cached position.
  const dht::HashKey pos = ring_pos(group);
  cancel_outbound_snapshots(group);  // the image being streamed is dead
  drop_group_log(group);
  // The group left this server (gc / split / merge / handoff): its cost
  // history goes with it, or the map — and its scrape-time gauges —
  // grow without bound under churn. The new owner meters from zero.
  group_costs_.erase(group);
  if (cfg_.replication_factor == 0) return;
  env_.fan_out(replica_set(pos), DropReplica{group});
}

void ClashServer::gc_stale_replicas() {
  const SimTime now = env_.now();
  const auto lease = SimTime(
      std::max(cfg_.load_check_period.usec, observed_check_gap_usec_) * 3);
  for (auto it = replicas_.begin(); it != replicas_.end();) {
    if (now - it->second.refreshed > lease) {
      // Replication-byte costs metered for a replica we no longer hold
      // go too — unless the group is also actively owned here.
      const ServerTableEntry* entry = table_.find(it->first);
      if (entry == nullptr || !entry->active) {
        group_costs_.erase(it->first);
      }
      it = replicas_.erase(it);
    } else {
      ++it;
    }
  }
}

void ClashServer::drop_replica(const KeyGroup& group) {
  replicas_.erase(group);
  const ServerTableEntry* entry = table_.find(group);
  if (entry == nullptr || !entry->active) group_costs_.erase(group);
}

// ---------------------------------------------------------------------------
// Replication & recovery subsystem (src/repl/): per-group operation
// log, snapshot + delta state transfer, anti-entropy repair.
// ---------------------------------------------------------------------------

std::vector<ServerId> ClashServer::replica_set(dht::HashKey pos) {
  auto targets = env_.replica_targets(pos, cfg_.replication_factor);
  std::erase(targets, self_);
  return targets;
}

dht::HashKey ClashServer::ring_pos(const KeyGroup& group) const {
  const auto it = owned_logs_.find(group);
  return it != owned_logs_.end() ? it->second.ring_pos
                                 : hasher_.hash_key(group.virtual_key());
}

// ---------------------------------------------------------------------------
// Durable storage subsystem (src/storage/): append-on-mutate WAL,
// baseline/checkpoint snapshots, crash-recovery restore.
// ---------------------------------------------------------------------------

bool ClashServer::durable() const {
  return storage_ != nullptr &&
         cfg_.durability_mode != ClashConfig::DurabilityMode::kNone;
}

void ClashServer::persist_group_snapshot(const ServerTableEntry& entry) {
  if (!durable()) return;
  storage::SnapshotImage img;
  img.group = entry.group;
  img.head = log_head(entry.group).value_or(repl::LogHead{1, 0});
  img.root = entry.root;
  img.parent = entry.parent;
  const auto st = state_.find(entry.group);
  if (st != state_.end()) img.state = st->second;
  meter_storage_bytes(entry.group, storage_->write_snapshot(img));
}

void ClashServer::ensure_durable_group(const ServerTableEntry& entry) {
  if (!durable() || owned_logs_.count(entry.group) > 0) return;
  // Creating the log writes the baseline snapshot; with replication on
  // the replica push (snapshot_group) usually beat us here and this is
  // a no-op.
  init_group_log(entry.group, 1);
}

std::size_t ClashServer::restore_from_storage() {
  if (storage_ == nullptr) return 0;
  auto image = storage_->take_image();
  if (!durable()) return 0;
  for (auto& [group, g] : image.groups) {
    ReplicaRecord rec;
    rec.owner = self_;
    rec.root = g.root;
    rec.parent = g.parent;
    rec.state = std::move(g.state);
    rec.refreshed = env_.now();
    rec.log.reset(g.head.epoch, g.head.seq);
    rec.advertised = g.head;
    replicas_[group] = std::move(rec);
    // The group's next ownership line must rise above the recovered
    // one even if promotion happens before any peer is heard.
    auto [it, inserted] = retired_epochs_.try_emplace(group, g.head.epoch);
    if (!inserted && it->second < g.head.epoch) it->second = g.head.epoch;
  }
  return image.groups.size();
}

ClashServer::OwnedLog& ClashServer::init_group_log(const KeyGroup& group,
                                                  std::uint64_t min_epoch) {
  auto [it, fresh] = owned_logs_.try_emplace(group);
  OwnedLog& owned = it->second;
  if (fresh) {
    owned.ring_pos = hasher_.hash_key(group.virtual_key());
  } else {
    // A queued batch must not outlive its epoch: send it under the old
    // line before the new one starts.
    send_append_batch(group, owned);
    // Heads registered under the old line can never be acked now.
    end_append_op(owned);
    owned.inflight.clear();
  }
  std::uint64_t epoch = std::max<std::uint64_t>(min_epoch, 1);
  const auto rit = retired_epochs_.find(group);
  if (rit != retired_epochs_.end()) epoch = std::max(epoch, rit->second + 1);
  owned.log = repl::GroupLog(epoch, 0);
  event(obs::SpanKind::kEpochBump, group_tag(group), epoch);
  // A new line's baseline must hit the disk before any of its WAL
  // records: recovery anchors the replay on it (the state adopted
  // with the group — a split's share, a handoff, a promoted replica —
  // never went through log_op, so only the snapshot carries it).
  if (const ServerTableEntry* entry = table_.find(group);
      entry != nullptr && entry->active) {
    persist_group_snapshot(*entry);
  }
  return owned;
}

void ClashServer::drop_group_log(const KeyGroup& group) {
  const auto it = owned_logs_.find(group);
  if (it == owned_logs_.end()) return;
  OwnedLog& owned = it->second;
  send_append_batch(group, owned);
  end_append_op(owned);
  const std::uint64_t epoch = owned.log.epoch();
  retired_epochs_[group] = epoch;
  if (durable()) storage_->drop_group(group, epoch, env_.now());
  owned_logs_.erase(group);
}

void ClashServer::log_op(const KeyGroup& group, repl::LogOp op) {
  const bool replicating = log_replication();
  if (!replicating && !durable()) return;
  const auto it = owned_logs_.find(group);
  OwnedLog& owned =
      it != owned_logs_.end() ? it->second : init_group_log(group, 1);
  repl::GroupLog& log = owned.log;

  if (replicating) {
    // One ReplAppend frame per group per dispatch tick: the transport
    // already coalesces writes, but encode/decode cost is per message,
    // so ops accumulate here and flush at the tick boundary. An env
    // with the inline defer default flushes per op.
    if (owned.batch.empty()) batched_.push_back(group);
    if (owned.trace_id == 0) owned.trace_id = active_trace_;
    owned.batch.push_back(op);
  }
  // Append-on-mutate, WAL first: the op is durable (per the fsync
  // policy) before the in-memory log observes it.
  const repl::LogHead head{log.epoch(), log.head().seq + 1};
  if (durable()) {
    meter_storage_bytes(group, storage_->append_op(group, head, op,
                                                   env_.now()));
    if (!commit_scheduled_ && storage_->commit_pending()) {
      // kPerAppend: every append of this tick shares one fsync at its
      // end, appends no client waits on (removals, handoffs) included.
      // An env with the inline defer default: one fsync per append.
      commit_scheduled_ = true;
      env_.defer([this] {
        commit_scheduled_ = false;
        storage_->commit(env_.now());
      });
    }
  }
  log.append(std::move(op));
  if (replicating && !append_flush_scheduled_) {
    // Scheduled only after the local append: an env with the inline
    // defer default flushes at once, and the batch must never be sent
    // ahead of the owner's own log head.
    append_flush_scheduled_ = true;
    env_.defer([this] { flush_pending_appends(); });
  }

  // Bound the retained suffix once the log outgrows the threshold. The
  // cut is local (on disk it advances the WAL truncation floor): each
  // replica compacts its own copy, so a caught-up holder keeps getting
  // deltas, and one left behind the floor is repaired by snapshot via
  // nack or anti-entropy.
  if (log.size() > cfg_.log_compact_threshold) {
    const ServerTableEntry* entry = table_.find(group);
    if (entry != nullptr && entry->active) {
      stats_.log_compactions++;
      persist_group_snapshot(*entry);
      log.compact();
    }
  }
}

void ClashServer::send_append_batch(const KeyGroup& group,
                                    OwnedLog& owned) {
  if (owned.batch.empty()) return;
  ReplAppend msg;
  msg.group = group;
  msg.owner = self_;
  msg.epoch = owned.log.epoch();
  msg.base_seq = owned.log.head().seq - owned.batch.size();
  msg.trace_id = std::exchange(owned.trace_id, 0);
  msg.entries = std::exchange(owned.batch, {});
  const auto targets = replica_set(owned.ring_pos);
  if (targets.empty()) return;
  msg.checksum = wire::content_crc(msg);  // trace_id set first: covered
  std::uint64_t wire = kMsgOverheadBytes;
  for (const auto& op : msg.entries) wire += approx_op_bytes(op);
  meter_repl_bytes(group, wire * targets.size());
  // Register the in-flight head *before* sending: an env that delivers
  // inline runs the holders' acks re-entrantly inside the fan-out.
  if (owned.inflight.empty()) {
    // Going empty -> non-empty opens the group's replication op in the
    // in-flight table; the last draining ack closes it.
    end_append_op(owned);
    owned.op_token = hub_.inflight.begin(
        obs::OpKind::kReplAppend, std::uint32_t(self_.value), group.label(),
        targets.front().value, env_.now().usec);
  }
  owned.inflight.push_back(PendingCommit{
      msg.base_seq + msg.entries.size(), env_.now(), msg.trace_id});
  if (owned.inflight.size() > 4096) owned.inflight.pop_front();
  env_.fan_out(targets, Message(std::move(msg)));
}

void ClashServer::flush_pending_appends() {
  append_flush_scheduled_ = false;
  // Taken out first: a fan-out that delivers inline (unit-test envs)
  // can log and queue again. Sorted, the sends leave in group order,
  // as they always have (the simulator's goldens pin it). A group
  // listed twice, or whose batch a re-epoch already sent, has an empty
  // batch by its turn; one whose log retired has no record.
  auto groups = std::exchange(batched_, {});
  std::sort(groups.begin(), groups.end());
  for (const KeyGroup& group : groups) {
    const auto it = owned_logs_.find(group);
    if (it != owned_logs_.end()) send_append_batch(group, it->second);
  }
  if (batched_.empty()) {  // keep the allocation for the next tick
    groups.clear();
    batched_ = std::move(groups);
  }
}

void ClashServer::snapshot_group(const ServerTableEntry& entry) {
  const auto it = owned_logs_.find(entry.group);
  OwnedLog& owned = it != owned_logs_.end() ? it->second
                                            : init_group_log(entry.group, 1);
  // The snapshot defines the new compaction boundary at the current
  // head; anyone behind it is repaired by the snapshot itself.
  owned.log.compact();
  persist_group_snapshot(entry);
  for (const ServerId target : replica_set(owned.ring_pos)) {
    send_snapshot_to(target, entry);
  }
}

void ClashServer::send_snapshot_to(ServerId to,
                                   const ServerTableEntry& entry) {
  const repl::LogHead head =
      log_head(entry.group).value_or(repl::LogHead{1, 0});
  static const GroupState kEmpty;
  const auto st = state_.find(entry.group);
  const GroupState& gs = st != state_.end() ? st->second : kEmpty;
  send_state_snapshot(to, entry.group, gs, head, entry.root, entry.parent,
                      self_);
}

void ClashServer::send_state_snapshot(ServerId to, const KeyGroup& group,
                                      const GroupState& st,
                                      repl::LogHead head, bool root,
                                      ServerId parent, ServerId owner) {
  const std::size_t per_chunk = std::max(1u, cfg_.snapshot_chunk_objects);
  const std::size_t objects = st.streams.size() + st.queries.size();
  const auto total =
      std::uint32_t(std::max<std::size_t>(1, (objects + per_chunk - 1) /
                                                 per_chunk));
  // Every transfer gets a correlation id: the active trace when the
  // snapshot is a consequence of a traced op, a fresh one otherwise
  // (| 1 keeps it nonzero), so offer, chunks, and the receiver's
  // install span stitch into one flow.
  const std::uint64_t trace_id =
      active_trace_ != 0 ? active_trace_ : (rng_.next() | 1);
  SnapshotOffer offer;
  offer.group = group;
  offer.owner = owner;
  offer.head = head;
  offer.root = root;
  offer.parent = parent;
  offer.total_chunks = total;
  offer.trace_id = trace_id;
  meter_repl_bytes(group, kMsgOverheadBytes);
  hub_.tracer.record(obs::SpanKind::kSnapshotOfferSent, self_.value,
                     env_.now(), SimDuration{0}, group_tag(group), total,
                     trace_id);
  env_.send(to, offer);

  // Pre-cut the chunks into an outbound cursor instead of blasting
  // them all now: pump_snapshots drains the cursor as fast as the
  // destination's budget allows (unbounded in the sync sim; queue-depth
  // driven over TCP) and resumes when the transport drains. A restart
  // for the same (to, group) replaces any unfinished transfer.
  OutboundSnapshot out;
  out.chunks.reserve(total);
  auto stream_it = st.streams.begin();
  auto query_it = st.queries.begin();
  for (std::uint32_t idx = 0; idx < total; ++idx) {
    SnapshotChunk chunk;
    chunk.group = group;
    chunk.head = head;
    chunk.index = idx;
    chunk.total = total;
    chunk.trace_id = trace_id;  // before the CRC stamp below
    std::size_t in_chunk = 0;
    while (in_chunk < per_chunk && stream_it != st.streams.end()) {
      chunk.streams.push_back(stream_it->second);
      ++stream_it;
      ++in_chunk;
    }
    while (in_chunk < per_chunk && query_it != st.queries.end()) {
      chunk.queries.push_back(query_it->second);
      ++query_it;
      ++in_chunk;
    }
    chunk.checksum = wire::content_crc(chunk);
    out.chunks.push_back(std::move(chunk));
  }
  // A restart for the same (to, group) replaces the cursor below:
  // retire the superseded transfer's in-flight entry first.
  if (const auto oit = outbound_snapshots_.find({to, group});
      oit != outbound_snapshots_.end()) {
    end_outbound_op(oit->second);
  }
  out.inflight_token = hub_.inflight.begin(
      obs::OpKind::kSnapshotOut, std::uint32_t(self_.value), group.label(),
      to.value, env_.now().usec, total);
  outbound_snapshots_[{to, group}] = std::move(out);
  pump_snapshots();
}

std::size_t ClashServer::pump_snapshots() {
  // A chunk delivery can nack synchronously and restart the very
  // transfer being pumped (the map entry is replaced or erased under
  // the loop), so: no held iterators across sends, and no nested
  // pumps — the outermost loop re-finds each entry per chunk and
  // naturally picks up a restarted cursor.
  if (pumping_snapshots_) return outbound_snapshots_.size();
  pumping_snapshots_ = true;
  bool progress = true;
  while (progress) {
    progress = false;
    std::vector<std::pair<ServerId, KeyGroup>> keys;
    keys.reserve(outbound_snapshots_.size());
    for (const auto& [key, _] : outbound_snapshots_) keys.push_back(key);
    for (const auto& key : keys) {
      std::size_t budget = env_.snapshot_chunk_budget(key.first);
      for (;;) {
        const auto it = outbound_snapshots_.find(key);
        if (it == outbound_snapshots_.end()) break;  // cancelled mid-pump
        OutboundSnapshot& out = it->second;
        if (out.next >= out.chunks.size()) {
          end_outbound_op(out);
          outbound_snapshots_.erase(it);
          break;
        }
        if (budget == 0) break;
        --budget;
        progress = true;
        meter_repl_bytes(key.second,
                         approx_chunk_bytes(out.chunks[out.next]));
        Message msg(std::move(out.chunks[out.next]));
        ++out.next;
        // Copy the token out: the send may re-enter and replace or
        // erase this very map entry (stale tokens are ignored).
        const std::uint64_t tok = out.inflight_token;
        env_.send(key.first, msg);
        hub_.inflight.progress(tok, env_.now().usec);
      }
    }
    if (outbound_snapshots_.empty()) break;
  }
  pumping_snapshots_ = false;
  return outbound_snapshots_.size();
}

void ClashServer::cancel_outbound_snapshot(ServerId to,
                                           const KeyGroup& group) {
  const auto it = outbound_snapshots_.find({to, group});
  if (it == outbound_snapshots_.end()) return;
  event(obs::SpanKind::kSnapshotAborted, group_tag(group), to.value);
  end_outbound_op(it->second);
  outbound_snapshots_.erase(it);
}

void ClashServer::cancel_outbound_snapshots(const KeyGroup& group) {
  for (auto it = outbound_snapshots_.begin();
       it != outbound_snapshots_.end();) {
    if (it->first.second == group) {
      event(obs::SpanKind::kSnapshotAborted, group_tag(group),
            it->first.first.value);
      end_outbound_op(it->second);
      it = outbound_snapshots_.erase(it);
    } else {
      ++it;
    }
  }
}

void ClashServer::send_anti_entropy() {
  std::map<ServerId, std::vector<GroupHead>> per_holder;
  for (const ServerTableEntry* e : table_.active_entries()) {
    const auto lit = owned_logs_.find(e->group);
    if (lit == owned_logs_.end()) {
      snapshot_group(*e);  // missing log: heal with a fresh snapshot
      continue;
    }
    const auto head = lit->second.log.head();
    for (const ServerId target : replica_set(lit->second.ring_pos)) {
      per_holder[target].push_back(GroupHead{e->group, head});
    }
  }
  for (auto& [holder, heads] : per_holder) {
    env_.send(holder, AntiEntropyProbe{self_, std::move(heads)});
  }
}

void ClashServer::handle_repl_append(ServerId from, const ReplAppend& m) {
  const TraceScope trace(active_trace_, m.trace_id);
  // Corruption fences, before any state is touched. The content CRC
  // catches in-flight byte flips that survive the codec's structural
  // checks; the seq overflow guard catches a base_seq flipped into
  // wrap-around territory. Rejected appends are simply dropped — no
  // nack, because a nack would trigger repair off a forged head; the
  // sender's anti-entropy probe re-syncs us on the next period.
  if ((m.checksum != 0 && m.checksum != wire::content_crc(m)) ||
      m.base_seq + m.entries.size() < m.base_seq) {
    stats_.corrupt_rejected++;
    event(obs::SpanKind::kCorruptReject, group_tag(m.group));
    return;
  }
  // Never apply replica traffic to a group this server actively owns
  // (a stale owner racing a promotion).
  if (const auto* entry = table_.find(m.group);
      entry != nullptr && entry->active) {
    return;
  }
  const auto it = replicas_.find(m.group);
  if (it == replicas_.end()) {
    // No base to apply deltas onto: nack so the sender repairs us.
    env_.send(from, ReplAck{m.group, repl::LogHead{}, false});
    return;
  }
  ReplicaRecord& rec = it->second;
  rec.refreshed = env_.now();
  const repl::LogHead tip{m.epoch, m.base_seq + m.entries.size()};
  if (rec.advertised < tip) rec.advertised = tip;
  if (m.owner.valid()) rec.owner = m.owner;

  const repl::LogHead head = rec.log.head();
  if (m.epoch != head.epoch || m.base_seq > head.seq) {
    if (rec.pending) {
      // A snapshot assembly is already in flight for this group: it
      // will re-anchor us past this gap, so stay quiet. Nacking here
      // would make the sender cancel and restart that very transfer —
      // under paced TCP streaming, every routine append during a long
      // transfer would reset it and it could never complete.
      return;
    }
    // Epoch change or a gap: nack with our real head; the sender
    // diffs us forward (suffix or snapshot).
    env_.send(from, ReplAck{m.group, head, false});
    return;
  }
  // Skip the overlap (idempotent re-delivery), apply the rest.
  const std::size_t skip = std::size_t(head.seq - m.base_seq);
  for (std::size_t i = skip; i < m.entries.size(); ++i) {
    const repl::LogOp& op = m.entries[i];
    repl::GroupLog::apply(op, rec.state);
    rec.log.append(op);
  }
  // The replica bounds its own suffix at the owner's threshold, which
  // keeps the peer-repair window the same size as the owner's.
  if (rec.log.size() > cfg_.log_compact_threshold) rec.log.compact();
  const std::size_t applied =
      m.entries.size() > skip ? m.entries.size() - skip : 0;
  if (applied > 0) {
    if (hub_.tracer.enabled()) {
      hub_.tracer.record(obs::SpanKind::kReplApply, self_.value, env_.now(),
                         SimDuration{0}, applied, 0, active_trace_);
    }
    recovery_.note_entries_repaired(m.group, applied, env_.now());
  }
  env_.send(from, ReplAck{m.group, rec.log.head(), true});
}

void ClashServer::handle_repl_ack(ServerId from, const ReplAck& m) {
  // Positive acks confirm progress and need no bookkeeping; a nack
  // asks for repair, served from the owner log or, on a non-owner
  // (peer recovery), from the replica record. The nack also aborts any
  // snapshot still streaming to that peer for the group — the receiver
  // tore down its assembly, so the unsent chunks would only be nacked
  // again; repair restarts the transfer from scratch instead.
  if (m.ok) {
    // First positive ack at or past an in-flight batch head commits
    // it: record ReplAppend -> ReplAck latency (later acks for the
    // same head find the deque already drained).
    const auto it = owned_logs_.find(m.group);
    if (it != owned_logs_.end() && !it->second.inflight.empty()) {
      auto& heads = it->second.inflight;
      const SimTime now = env_.now();
      // Every head in flight belongs to the log's current line.
      const bool same_line = m.head.epoch == it->second.log.epoch();
      while (same_line && !heads.empty() && heads.front().seq <= m.head.seq) {
        const SimDuration latency = now - heads.front().sent;
        commit_latency_us_.record_signed(latency.usec);
        hub_.tracer.record(obs::SpanKind::kCommit, self_.value,
                           heads.front().sent, latency, heads.front().seq,
                           0, heads.front().trace_id);
        heads.pop_front();
      }
      if (heads.empty()) {
        end_append_op(it->second);
      } else {
        hub_.inflight.progress(it->second.op_token, now.usec);
      }
    }
    return;
  }
  cancel_outbound_snapshot(from, m.group);
  repair_peer(from, m.group, m.head);
}

void ClashServer::handle_snapshot_offer(ServerId from,
                                        const SnapshotOffer& m) {
  // Sanity fence: no legitimate snapshot approaches a million chunks
  // (the pacer would never finish one); a count that large is a
  // corrupted or hostile offer and would wedge the assembly forever
  // waiting for chunks that do not exist.
  constexpr std::uint32_t kMaxSaneChunks = 1u << 20;
  if (m.total_chunks == 0 || m.total_chunks > kMaxSaneChunks) {
    stats_.corrupt_rejected++;
    event(obs::SpanKind::kCorruptReject, group_tag(m.group));
    return;
  }
  if (const auto* entry = table_.find(m.group);
      entry != nullptr && entry->active) {
    return;
  }
  ReplicaRecord& rec = replicas_[m.group];
  rec.refreshed = env_.now();
  if (rec.pending && !(rec.pending->head < m.head)) {
    // A transfer is mid-flight and this offer is not strictly fresher:
    // a duplicate or competing offer for the same head must not
    // discard the chunks already assembled — overwriting the record
    // here desyncs the chunk cursor and loses the whole transfer.
    // Only a strictly newer head (a snapshot superseding the one in
    // flight) preempts the assembly.
    stats_.snapshot_offers_ignored++;
    return;
  }
  event(obs::SpanKind::kSnapshotOfferRecv, group_tag(m.group),
        m.total_chunks);
  if (rec.pending) {
    // A strictly fresher offer preempts the assembly in flight; its
    // in-flight entry must not outlive the record it tracked.
    hub_.inflight.end(rec.pending->inflight_token);
  }
  ReplicaRecord::PendingSnapshot pending;
  pending.head = m.head;
  pending.owner = m.owner;
  pending.root = m.root;
  pending.parent = m.parent;
  pending.total = m.total_chunks;
  pending.started = env_.now();
  pending.trace_id = m.trace_id;
  pending.inflight_token = hub_.inflight.begin(
      obs::OpKind::kSnapshotIn, std::uint32_t(self_.value), m.group.label(),
      from.value, env_.now().usec, m.total_chunks);
  rec.pending = std::move(pending);
  rec.last_nacked = repl::LogHead{};  // the new stream starts clean
}

void ClashServer::handle_snapshot_chunk(ServerId from,
                                        const SnapshotChunk& m) {
  // Corruption fence first: installing a flipped stream rate or query
  // id into a pending assembly would poison the replica at promotion.
  // Dropping the chunk desyncs the stream, and the *next* chunk's
  // index mismatch nacks the transfer into a clean restart.
  if (m.checksum != 0 && m.checksum != wire::content_crc(m)) {
    stats_.corrupt_rejected++;
    event(obs::SpanKind::kCorruptReject, group_tag(m.group));
    return;
  }
  if (const auto* entry = table_.find(m.group);
      entry != nullptr && entry->active) {
    return;
  }
  const auto it = replicas_.find(m.group);
  if (it == replicas_.end()) return;  // offer was never seen
  ReplicaRecord& rec = it->second;
  rec.refreshed = env_.now();
  if (!rec.pending && rec.last_nacked == m.head) {
    return;  // remnants of a transfer already nacked: stay silent
  }
  if (rec.pending && rec.pending->head == m.head &&
      m.total == rec.pending->total && m.index < rec.pending->received) {
    return;  // duplicated frame of an already-applied chunk: idempotent
  }
  if (!rec.pending || rec.pending->head != m.head ||
      m.index != rec.pending->received || m.total != rec.pending->total) {
    // Stream out of sync (lost, reordered, or never-offered chunk):
    // tear the assembly down and nack with our real head so the sender
    // restarts NOW — staying silent would leave it streaming a dead
    // transfer while recovery waits out a full anti-entropy period.
    if (rec.pending) {
      event(obs::SpanKind::kSnapshotAborted, group_tag(m.group), from.value);
      hub_.inflight.end(rec.pending->inflight_token);
    }
    rec.pending.reset();
    rec.last_nacked = m.head;
    stats_.snapshot_aborts++;
    env_.send(from, ReplAck{m.group, rec.log.head(), false});
    return;
  }
  ReplicaRecord::PendingSnapshot& p = *rec.pending;
  // A re-delivered object replaces its copy (its rate not counted twice).
  absorb_objects(p.state, m, /*incoming_wins=*/true);
  ++p.received;
  hub_.inflight.progress(p.inflight_token, env_.now().usec);
  if (p.received < p.total) return;

  // Complete: install the image and re-anchor the retained log.
  rec.owner = p.owner;
  rec.root = p.root;
  rec.parent = p.parent;
  rec.state = std::move(p.state);
  rec.log.reset(m.head.epoch, m.head.seq);
  if (rec.advertised < m.head) rec.advertised = m.head;
  snapshot_install_us_.record_signed((env_.now() - p.started).usec);
  hub_.tracer.record(obs::SpanKind::kSnapshotTransfer, self_.value,
                     p.started, env_.now() - p.started, group_tag(m.group),
                     p.total, p.trace_id);
  hub_.inflight.end(p.inflight_token);
  rec.pending.reset();
  recovery_.note_snapshot_pulled(m.group, env_.now());
  env_.send(from, ReplAck{m.group, rec.log.head(), true});
}

void ClashServer::handle_ae_probe(ServerId from, const AntiEntropyProbe& m) {
  AntiEntropyDiff diff;
  for (const GroupHead& gh : m.heads) {
    if (const auto* entry = table_.find(gh.group);
        entry != nullptr && entry->active) {
      continue;  // both sides claim ownership; promotion sorts it out
    }
    const auto it = replicas_.find(gh.group);
    if (it == replicas_.end()) {
      diff.behind.push_back(GroupHead{gh.group, repl::LogHead{}});
      continue;
    }
    ReplicaRecord& rec = it->second;
    rec.refreshed = env_.now();
    if (rec.advertised < gh.head) rec.advertised = gh.head;
    if (m.owner.valid()) rec.owner = m.owner;
    const auto head = rec.log.head();
    if (head == gh.head) continue;
    if (head.epoch == gh.head.epoch && head < gh.head) {
      diff.behind.push_back(GroupHead{gh.group, head});
    } else {
      // Epoch drift in either direction: our copy belongs to a dead
      // ownership line — the probing owner is the authority, resync
      // from scratch.
      diff.behind.push_back(GroupHead{gh.group, repl::LogHead{}});
    }
  }
  if (!diff.behind.empty()) env_.send(from, diff);
}

void ClashServer::handle_ae_diff(ServerId from, const AntiEntropyDiff& m) {
  for (const GroupHead& gh : m.behind) repair_peer(from, gh.group, gh.head);
}

void ClashServer::repair_peer(ServerId to, const KeyGroup& group,
                              repl::LogHead have) {
  // Active-owner path: repair from the authoritative log.
  const ServerTableEntry* entry = table_.find(group);
  if (entry != nullptr && entry->active) {
    const auto lit = owned_logs_.find(group);
    if (lit == owned_logs_.end()) return;  // anti-entropy heals it by snapshot
    repl::GroupLog& log = lit->second.log;
    std::vector<repl::LogOp> out;
    if (have.epoch == log.epoch() && log.suffix_from(have.seq, out)) {
      if (!out.empty()) {
        std::uint64_t wire = kMsgOverheadBytes;
        for (const auto& op : out) wire += approx_op_bytes(op);
        meter_repl_bytes(group, wire);
        ReplAppend repair{group, self_, log.epoch(), have.seq,
                          active_trace_, std::move(out)};
        repair.checksum = wire::content_crc(repair);
        env_.send(to, Message(std::move(repair)));
      }
    } else {
      send_snapshot_to(to, *entry);
    }
    return;
  }
  // Peer path (owner dead, a promoting heir is pulling): repair from
  // our replica when it is strictly fresher than the requester.
  const auto rit = replicas_.find(group);
  if (rit == replicas_.end()) return;
  ReplicaRecord& rec = rit->second;
  const auto head = rec.log.head();
  if (!(have < head)) return;
  std::vector<repl::LogOp> out;
  if (have.epoch == head.epoch && rec.log.suffix_from(have.seq, out)) {
    if (!out.empty()) {
      ReplAppend repair{group, rec.owner, head.epoch, have.seq,
                        active_trace_, std::move(out)};
      repair.checksum = wire::content_crc(repair);
      env_.send(to, Message(std::move(repair)));
    }
    return;
  }
  // The requester predates our retained suffix: ship a peer-built
  // snapshot of the object state at our head.
  send_state_snapshot(to, group, rec.state, head, rec.root, rec.parent,
                      rec.owner);
}

bool ClashServer::begin_group_recovery(const KeyGroup& group) {
  if (!log_replication()) return false;
  if (const auto* entry = table_.find(group);
      entry != nullptr && entry->active) {
    return false;
  }
  const auto it = replicas_.find(group);
  const repl::LogHead start =
      it != replicas_.end() ? it->second.log.head() : repl::LogHead{};
  if (!recovery_.begin(group, start, env_.now())) {
    return false;  // probes already out
  }
  event(obs::SpanKind::kRecoveryBegin, group_tag(group));
  env_.fan_out(replica_set(ring_pos(group)),
               AntiEntropyDiff{{GroupHead{group, start}}});
  return true;
}

std::optional<repl::LogHead> ClashServer::log_head(
    const KeyGroup& group) const {
  const auto it = owned_logs_.find(group);
  if (it == owned_logs_.end()) return std::nullopt;
  return it->second.log.head();
}

std::optional<repl::LogHead> ClashServer::replica_head(
    const KeyGroup& group) const {
  const auto it = replicas_.find(group);
  if (it == replicas_.end()) return std::nullopt;
  return it->second.log.head();
}

const repl::GroupLog* ClashServer::group_log(const KeyGroup& group) const {
  const auto it = owned_logs_.find(group);
  return it == owned_logs_.end() ? nullptr : &it->second.log;
}

const repl::GroupLog* ClashServer::replica_log(const KeyGroup& group) const {
  const auto it = replicas_.find(group);
  return it == replicas_.end() ? nullptr : &it->second.log;
}

const GroupState* ClashServer::replica_state(const KeyGroup& group) const {
  const auto it = replicas_.find(group);
  return it == replicas_.end() ? nullptr : &it->second.state;
}

std::size_t ClashServer::handoff_groups(ServerId to) {
  if (to == self_ || !to.valid()) return 0;
  struct Moving {
    KeyGroup group;
    bool root = false;
    ServerId parent{};
  };
  std::vector<Moving> moving;
  for (const ServerTableEntry* e : table_.active_entries()) {
    // Never move a group entangled in an in-flight reclaim: the merge
    // handler needs the local leaves exactly where the reports said.
    if (!e->group.is_root() &&
        pending_reclaims_.count(e->group.sibling()) > 0) {
      continue;
    }
    if (env_.dht_lookup(ring_pos(e->group)).owner == to) {
      moving.push_back(Moving{e->group, e->root, e->parent});
    }
  }
  for (const auto& mv : moving) {
    AcceptKeyGroup msg;
    msg.group = mv.group;
    msg.parent = mv.parent;
    msg.root = mv.root;
    const auto lit = owned_logs_.find(mv.group);
    msg.epoch = lit != owned_logs_.end() ? lit->second.log.epoch() : 0;
    export_objects(take_state(state_, mv.group), msg);
    if (app_hooks_ != nullptr) {
      msg.app_state = app_hooks_->export_state(mv.group, to);
    }
    // Retire replicas and the local entry BEFORE the transfer: the new
    // owner re-replicates on install, and a retire arriving afterwards
    // would wipe the fresh records.
    table_.erase(mv.group);
    child_reports_.erase(mv.group);
    note_group_deactivated(mv.group);
    retire_replicas(mv.group);
    stats_.state_transfer_msgs += msg.queries.size();
    stats_.handoffs++;
    env_.send(to, std::move(msg));
  }
  return moving.size();
}

bool ClashServer::promote_replica(const KeyGroup& group) {
  // Stale or duplicate promotion requests must never corrupt the
  // table: refuse when any entry for (or active entry overlapping) the
  // group already exists here. Any recovery session opened for the
  // promotion is dropped with it, or it would suppress the peer
  // probes of every future recovery of this group.
  if (const auto* existing = table_.find(group)) {
    abandon_group_recovery(group);
    return existing->active;
  }
  for (const ServerTableEntry* e : table_.active_entries()) {
    if (e->group.covers(group) || group.covers(e->group)) {
      CLASH_WARN << to_string(self_) << ": refusing promotion of "
                 << group.label() << " (overlaps active "
                 << e->group.label() << ")";
      abandon_group_recovery(group);
      return false;
    }
  }
  // Pull the freshest suffix from the surviving holders before
  // installing anything: a replica that lags the highest advertised
  // head is repaired (or superseded by a fresher peer), never silently
  // promoted. A no-op when NodeHost already opened the
  // session, or without replication (no holder to pull from).
  (void)begin_group_recovery(group);
  const auto it = replicas_.find(group);
  if (it == replicas_.end()) {
    abandon_group_recovery(group);  // no copy held, none pulled
    return false;
  }
  ReplicaRecord& rec = it->second;
  const repl::LogHead head = rec.log.head();
  const repl::LogHead advertised = rec.advertised;
  ServerTableEntry entry;
  entry.group = group;
  entry.active = true;
  entry.root = rec.root;
  entry.parent = rec.parent;
  table_.insert(entry);
  state_[group] = std::move(rec.state);
  replicas_.erase(it);
  note_group_activated(group);
  stats_.failovers++;
  // One failover edge: spans the recovery session when one was open,
  // an instant otherwise (rf 0 promotes at once).
  const std::optional<SimTime> opened =
      recovery_.finish(group, head, advertised);
  const SimTime started = opened.value_or(env_.now());
  if (opened) failover_us_.record_signed((env_.now() - started).usec);
  hub_.tracer.record(obs::SpanKind::kFailover, self_.value, started,
                     env_.now() - started, group_tag(group));
  // New ownership line: the epoch rises above anything ever advertised
  // (and above the line a restored record carried), and the new
  // replica set gets an immediate snapshot, so a second failure in this
  // period still finds fresh holders.
  if (log_replication() || durable()) {
    init_group_log(group, std::max(head.epoch, advertised.epoch) + 1);
  }
  if (log_replication()) snapshot_group(entry);
  return true;
}

GroupState ClashServer::extract_subset(GroupState& st,
                                       const KeyGroup& subset) {
  // A partition into two fresh maps: erasing from a flat map while
  // iterating it would skip the entries its backward shift moves.
  GroupState keep;
  GroupState out;
  for (const auto& [id, s] : st.streams) {
    GroupState& dst = subset.contains(s.key) ? out : keep;
    dst.streams.try_emplace(id, s);
    dst.stream_rate += s.rate;
  }
  // A query goes to each side its scope intersects: a scope wider than
  // `subset` reaches both, and each keeps a copy under the same id.
  for (const auto& [_, q] : st.queries) {
    const KeyGroup scope = q.scope();
    if (subset.covers(scope) || scope.covers(subset)) out.queries.insert(q);
    if (!subset.covers(scope)) keep.queries.insert(q);
  }
  st = std::move(keep);
  return out;
}

double ClashServer::server_load() const {
  double total = 0;
  for (const ServerTableEntry* e : table_.active_entries()) {
    total += load_of(e->group);
  }
  return total;
}

double ClashServer::load_of(const KeyGroup& group) const {
  const auto it = state_.find(group);
  if (it == state_.end()) return 0;
  double load =
      group_load(cfg_, it->second.stream_rate, it->second.queries.size());
  if (app_hooks_ != nullptr) load += app_hooks_->app_load(group);
  return load;
}

bool ClashServer::signal_overload() {
  const auto candidate = pick_split_candidate();
  if (!candidate) return false;
  split_group(*candidate, /*reshed_on_self_map=*/true);
  return true;
}

const GroupState* ClashServer::group_state(const KeyGroup& group) const {
  const auto it = state_.find(group);
  return it == state_.end() ? nullptr : &it->second;
}

std::size_t ClashServer::total_queries() const {
  std::size_t n = 0;
  for (const auto& [_, gs] : state_) n += gs.queries.size();
  return n;
}

std::size_t ClashServer::total_streams() const {
  std::size_t n = 0;
  for (const auto& [_, gs] : state_) n += gs.streams.size();
  return n;
}

std::vector<unsigned> ClashServer::active_depths() const {
  std::vector<unsigned> out;
  for (const ServerTableEntry* e : table_.active_entries()) {
    out.push_back(e->group.depth());
  }
  return out;
}

}  // namespace clash
