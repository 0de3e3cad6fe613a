#include "clash/server.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "common/logging.hpp"

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
      repl_(self_, cfg_, env_, hasher_, table_, state_, rng_, stats_,
            group_costs_, active_trace_) {
  auto& reg = hub_.registry;
  puts_total_ = reg.counter("clash_puts_total");
  cq_records_total_ = reg.counter("clash_cq_records_total");
  cq_matches_total_ = reg.counter("clash_cq_matches_total");
  cq_match_us_ = reg.histogram("clash_cq_match_usec");
}

namespace {

// Structural wire sizes for the cost vector (see repl/replicator.cpp).
constexpr std::uint64_t kPutWireBytes = 40;
constexpr std::uint64_t kMatchWireBytes = 48;  // one match notification

/// Copy a group's objects into a transfer's vectors (a split's right
/// half, a reclaimed child, a handoff).
template <typename Transfer>
void export_objects(const GroupState& st, Transfer& out) {
  out.streams.reserve(st.streams.size());
  for (const auto& [_, s] : st.streams) out.streams.push_back(s);
  out.queries.reserve(st.queries.size());
  for (const auto& [_, q] : st.queries) out.queries.push_back(q);
}

}  // namespace

void ClashServer::fold_census(NodeCensusRecord& rec,
                              std::size_t top_k) const {
  rec.load = server_load();
  rec.active_groups = std::uint32_t(table_.active_count());
  rec.replica_records = std::uint32_t(repl_.replica_count());
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
  if (entry.active) {
    activate(entry, GroupState{}, 1);
  } else {
    table_.insert(entry);
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
  repl_.snapshot_group(*entry);
  return true;
}

// ---------------------------------------------------------------------------
// Client RPC: the three cases of Section 5.
// ---------------------------------------------------------------------------

AcceptObjectReply ClashServer::handle_accept_object(const AcceptObject& m) {
  const repl::TraceScope trace(active_trace_, m.trace_id);
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
      repl_.log_op(entry->group, repl::LogOp::put_query(std::move(q)));
    } else {
      auto [it, inserted] = gs.streams.try_emplace(m.source);
      if (!inserted) gs.stream_rate -= it->second.rate;
      it->second = StreamInfo{m.source, m.key, m.stream_rate};
      gs.stream_rate += m.stream_rate;
      repl_.log_op(entry->group,
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
  repl_.log_op(entry->group, repl::LogOp::del_stream(source));
  maybe_gc_group(entry->group);
}

void ClashServer::remove_query(QueryId id, const Key& key) {
  ServerTableEntry* entry = table_.active_entry_for(key);
  if (entry == nullptr) return;
  const auto st = state_.find(entry->group);
  if (st == state_.end()) return;
  st->second.queries.erase(id);
  repl_.log_op(entry->group, repl::LogOp::del_query(id));
  maybe_gc_group(entry->group);
}

void ClashServer::maybe_gc_group(const KeyGroup& group) {
  if (!cfg_.ephemeral_groups) return;
  const auto st = state_.find(group);
  if (st == state_.end() || !st->second.empty()) return;
  (void)deactivate(group);
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
          repl_.on(from, m);
        } else if constexpr (std::is_same_v<T, ReplAppend>) {
          stats_.repl_appends++;
          repl_.on(from, m);
        } else if constexpr (std::is_same_v<T, ReplAck>) {
          stats_.repl_acks++;
          repl_.on(from, m);
        } else if constexpr (std::is_same_v<T, SnapshotOffer>) {
          stats_.snapshot_offers++;
          repl_.on(from, m);
        } else if constexpr (std::is_same_v<T, SnapshotChunk>) {
          stats_.snapshot_chunks++;
          repl_.on(from, m);
        } else if constexpr (std::is_same_v<T, AntiEntropyProbe>) {
          stats_.anti_entropy_probes++;
          repl_.on(from, m);
        } else if constexpr (std::is_same_v<T, AntiEntropyDiff>) {
          stats_.anti_entropy_diffs++;
          repl_.on(from, m);
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
  // Handoffs preserve lineage; splits send root false.
  ServerTableEntry entry{m.group, m.root, m.parent};
  std::uint64_t epoch = m.epoch;
  bool incoming_wins = true;
  GroupState st;
  if (const ServerTableEntry* held = table_.find(m.group); held != nullptr) {
    if (!held->active) {
      // This server split the group since: its children cover the range.
      CLASH_WARN << to_string(self_) << ": refusing transfer of "
                 << m.group.label() << " (split here)";
      return;
    }
    const std::uint64_t local =
        repl_.log_head(m.group).value_or(repl::LogHead{}).epoch;
    incoming_wins = m.epoch > local;
    epoch = std::max(epoch, local);
    if (!incoming_wins) {
      entry.parent = held->parent;
      entry.root = held->root;
    }
    // The held copy folds into the incoming one, and the group activates
    // again on a line above both.
    if (auto held_state = state_.extract(m.group)) {
      st = std::move(held_state.mapped());
    }
  }
  repl::absorb_objects(st, m, incoming_wins);
  if (app_hooks_ != nullptr && !m.app_state.empty() && incoming_wins) {
    app_hooks_->import_state(m.group, m.app_state);
  }
  activate(entry, std::move(st), epoch + 1);
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
  const GroupState st = deactivate(m.group);

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
  if (app_hooks_ != nullptr && !m.app_state.empty()) {
    app_hooks_->import_state(parent_entry->group, m.app_state);
  }
  merge_into_parent(parent_entry->group, m);
}

template <typename Objects>
void ClashServer::merge_into_parent(const KeyGroup& parent,
                                    const Objects& right_half) {
  const KeyGroup left = parent.left_child();
  assert(table_.find(left) != nullptr && table_.find(left)->active);
  const ServerTableEntry* lineage = table_.find(parent);
  const ServerTableEntry entry{parent, lineage->root, lineage->parent};
  GroupState merged = deactivate(left, Retire::kLater);
  // An object both halves hold (a source re-registered across the
  // split without a withdraw) keeps the right half's copy, counted once.
  repl::absorb_objects(merged, right_half, /*incoming_wins=*/true);
  activate(entry, std::move(merged), 1);
  // The merged parent's baseline is anchored; only now may the left
  // child's durable record be dropped (see split_group).
  repl_.retire(left);
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

  // Retirement of the groups this split deactivates is deferred to the
  // end: the WAL drop record of a split-away group must never hit the
  // disk before every object it covered is re-anchored (children
  // baselines written, or the right half sent), or a crash inside the
  // split would lose state that only the old snapshot still described.
  std::vector<KeyGroup> retired;
  GroupState st;
  KeyGroup current = group;
  for (;;) {
    const KeyGroup left = current.left_child();
    const KeyGroup right = current.right_child();

    // The left child expands to the same N-bit virtual key, so it maps
    // back to this server by construction; only the right child needs a
    // DHT lookup.
    const dht::LookupResult owner =
        env_.dht_lookup(hasher_.hash_key(right.virtual_key()));

    if (current == group) {
      table_.find(group)->right_child = owner.owner;
      st = deactivate(group, Retire::kLater);
    } else {
      // A right child that mapped back here was never active: its entry
      // is its children's lineage from the start.
      table_.insert(
          ServerTableEntry{current, false, self_, owner.owner, false});
    }
    retired.push_back(current);

    GroupState right_state = extract_subset(st, right);
    // The left child is a final placement: it replicates at once, so it
    // never spends a check period unprotected.
    activate({left, false, self_}, std::move(st), 1);

    if (owner.owner != self_ || right.depth() >= cfg_.key_width ||
        !reshed_on_self_map) {
      if (owner.owner == self_) {
        // Administrative split, or a maximal-depth right child that
        // still maps here: keep the right child local and active.
        activate({right, false, self_}, std::move(right_state), 1);
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
      break;
    }

    // Right child mapped back to us: make "another randomized attempt"
    // by increasing the depth of the right group again (Section 5).
    stats_.self_remaps++;
    st = std::move(right_state);
    current = right;
  }
  for (const KeyGroup& g : retired) repl_.retire(g);
}

// ---------------------------------------------------------------------------
// Periodic load management.
// ---------------------------------------------------------------------------

void ClashServer::run_load_check() {
  send_load_reports();
  repl_.run_check();
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
    merge_into_parent(*candidate, deactivate(right));
    return;
  }

  pending_reclaims_.insert(right);
  env_.send(entry->right_child, ReclaimKeyGroup{right});
}

// ---------------------------------------------------------------------------
// The two seams: a group enters and leaves this server.
// ---------------------------------------------------------------------------

void ClashServer::activate(const ServerTableEntry& entry, GroupState st,
                           std::uint64_t min_epoch) {
  assert(entry.active);
  table_.erase(entry.group);
  table_.insert(entry);
  state_[entry.group] = std::move(st);
  hub_.tracer.record(obs::SpanKind::kGroupActivated, self_.value, env_.now(),
                     SimDuration{0}, repl::group_tag(entry.group), 0);
  env_.on_group_activated(entry.group);
  repl_.activate(entry, min_epoch);
}

GroupState ClashServer::deactivate(const KeyGroup& group_ref, Retire retire) {
  // Callers may pass a reference into the entry that is erased below.
  const KeyGroup group = group_ref;
  ServerTableEntry* entry = table_.find(group);
  assert(entry != nullptr && entry->active);
  if (entry->right_child.valid()) {
    table_.set_active(*entry, false);
  } else {
    table_.erase(group);
  }
  child_reports_.erase(group);
  GroupState st;
  if (auto node = state_.extract(group)) st = std::move(node.mapped());
  hub_.tracer.record(obs::SpanKind::kGroupDeactivated, self_.value,
                     env_.now(), SimDuration{0}, repl::group_tag(group), 0);
  env_.on_group_deactivated(group);
  if (retire == Retire::kNow) repl_.retire(group);
  return st;
}

std::size_t ClashServer::handoff_groups(ServerId to) {
  if (to == self_ || !to.valid()) return 0;
  std::vector<KeyGroup> moving;
  for (const ServerTableEntry* e : table_.active_entries()) {
    // Never move a group entangled in an in-flight reclaim: the merge
    // handler needs the local leaves exactly where the reports said.
    if (!e->group.is_root() &&
        pending_reclaims_.count(e->group.sibling()) > 0) {
      continue;
    }
    if (env_.dht_lookup(repl_.ring_pos(e->group)).owner == to) {
      moving.push_back(e->group);
    }
  }
  for (const KeyGroup& group : moving) {
    const ServerTableEntry* e = table_.find(group);
    AcceptKeyGroup msg;
    msg.group = group;
    msg.parent = e->parent;
    msg.root = e->root;
    msg.epoch = repl_.log_head(group).value_or(repl::LogHead{}).epoch;
    // Retire replicas and the local entry BEFORE the transfer: the new
    // owner re-replicates on install, and a retire arriving afterwards
    // would wipe the fresh records.
    export_objects(deactivate(group), msg);
    if (app_hooks_ != nullptr) {
      msg.app_state = app_hooks_->export_state(group, to);
    }
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
  std::optional<repl::Replicator::Promotion> rec = repl_.take_replica(group);
  if (!rec) {
    abandon_group_recovery(group);  // no copy held, none pulled
    return false;
  }
  stats_.failovers++;
  // New ownership line: the epoch rises above anything ever advertised
  // (and above the line a restored record carried), and the new
  // replica set gets an immediate snapshot, so a second failure in this
  // period still finds fresh holders.
  activate({group, rec->root, rec->parent}, std::move(rec->state),
           rec->epoch + 1);
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
