#include "repl/replicator.hpp"

#include <algorithm>

#include "storage/store.hpp"

namespace clash::repl {

// Structural wire-size model for the cost vector: close enough to the
// encoded sizes for placement decisions, free on the hot path (no
// second encode).
namespace {

constexpr std::uint64_t kMsgOverheadBytes = 24;
constexpr std::uint64_t kPredicateWireBytes = 13;

std::uint64_t approx_bytes(const ReplAppend& m) {
  std::uint64_t b = kMsgOverheadBytes;
  for (const auto& op : m.entries) {
    b += 24 + kPredicateWireBytes * op.query.predicates.size();
  }
  return b;
}

std::uint64_t approx_bytes(const SnapshotChunk& c) {
  std::uint64_t b = kMsgOverheadBytes + 24 * c.streams.size() +
                    16 * c.queries.size();
  for (const auto& q : c.queries) {
    b += kPredicateWireBytes * q.predicates.size();
  }
  return b;
}

}  // namespace

Replicator::Replicator(ServerId self, const ClashConfig& cfg, ServerEnv& env,
                       const dht::KeyHasher& hasher, const ServerTable& table,
                       const std::unordered_map<KeyGroup, GroupState>& state,
                       Rng& rng, MessageStats& stats,
                       std::unordered_map<KeyGroup, GroupCost>& costs,
                       std::uint64_t& active_trace)
    : self_(self),
      cfg_(cfg),
      env_(env),
      hasher_(hasher),
      table_(table),
      state_(state),
      rng_(rng),
      stats_(stats),
      costs_(costs),
      active_trace_(active_trace),
      hub_(env.obs()),
      recovery_(hub_.inflight, std::uint32_t(self.value)) {
  auto& reg = hub_.registry;
  commit_latency_us_ = reg.histogram("clash_repl_commit_usec");
  failover_us_ = reg.histogram("clash_failover_recovery_usec");
  snapshot_install_us_ = reg.histogram("clash_snapshot_install_usec");
  repl_bytes_total_ = reg.counter("clash_repl_bytes_total");
}

bool Replicator::durable() const {
  return storage_ != nullptr &&
         cfg_.durability_mode != ClashConfig::DurabilityMode::kNone;
}

bool Replicator::owns(const KeyGroup& group) const {
  const ServerTableEntry* entry = table_.find(group);
  return entry != nullptr && entry->active;
}

std::vector<ServerId> Replicator::replica_set(dht::HashKey pos) {
  auto targets = env_.replica_targets(pos, cfg_.replication_factor);
  std::erase(targets, self_);
  return targets;
}

dht::HashKey Replicator::ring_pos(const KeyGroup& group) const {
  const auto it = owned_logs_.find(group);
  return it != owned_logs_.end() ? it->second.ring_pos
                                 : hasher_.hash_key(group.virtual_key());
}

void Replicator::meter_repl_bytes(const KeyGroup& group, std::uint64_t bytes) {
  costs_[group].repl_bytes += bytes;
  repl_bytes_total_.inc(bytes);
}

void Replicator::event(obs::SpanKind kind, std::uint64_t arg,
                       std::uint64_t arg2) {
  hub_.tracer.record(kind, self_.value, env_.now(), SimDuration{0}, arg, arg2);
}

void Replicator::reject(const KeyGroup& group) {
  stats_.corrupt_rejected++;
  event(obs::SpanKind::kCorruptReject, group_tag(group));
}

template <typename M>
Message Replicator::metered(M msg, std::size_t copies) {
  meter_repl_bytes(msg.group, approx_bytes(msg) * copies);
  return Message(std::move(msg));
}

void Replicator::activate(const ServerTableEntry& entry,
                          std::uint64_t min_epoch) {
  // An activation supersedes any recovery of the group (e.g. a handoff
  // landing inside a promotion grace window).
  recovery_.cancel(entry.group);
  if (!replicating() && !durable()) return;
  // Replicate now, not at the next load check: an owner crash inside a
  // period with no replica would lose the group.
  start_line(entry.group, min_epoch);
  snapshot_group(entry);
}

void Replicator::retire(const KeyGroup& group) {
  // Read before the log (and its cached position) goes.
  const dht::HashKey pos = ring_pos(group);
  cancel_outbound(group);  // the image being streamed is dead
  if (const auto it = owned_logs_.find(group); it != owned_logs_.end()) {
    OwnedLog& owned = it->second;
    send_append_batch(group, owned);
    hub_.inflight.end(std::exchange(owned.op_token, 0));
    const std::uint64_t epoch = owned.log.epoch();
    retired_epochs_[group] = epoch;
    baselines_.erase(group);
    checkpoints_.erase(group);
    if (durable()) {
      // The drop must not reach the disk before the baselines that
      // re-anchor what the group covered (a split's children).
      if (!baselines_.empty()) write_snapshots(false);
      storage_->drop_group(group, epoch, env_.now());
    }
    owned_logs_.erase(it);
  }
  // The cost history goes too, or the map grows without bound under
  // churn; the new owner meters from zero.
  costs_.erase(group);
  if (!replicating()) return;
  env_.fan_out(replica_set(pos), DropReplica{group});
}

Replicator::OwnedLog& Replicator::start_line(const KeyGroup& group,
                                             std::uint64_t min_epoch) {
  auto [it, fresh] = owned_logs_.try_emplace(group);
  OwnedLog& owned = it->second;
  std::uint64_t epoch = std::max<std::uint64_t>(min_epoch, 1);
  if (fresh) {
    owned.ring_pos = hasher_.hash_key(group.virtual_key());
  } else {
    // The batch queued under the old line goes out under it; the heads
    // in flight there can never be acked now.
    send_append_batch(group, owned);
    hub_.inflight.end(std::exchange(owned.op_token, 0));
    owned.inflight.clear();
    epoch = std::max(epoch, owned.log.epoch() + 1);
  }
  const auto rit = retired_epochs_.find(group);
  if (rit != retired_epochs_.end()) epoch = std::max(epoch, rit->second + 1);
  owned.log = GroupLog(epoch, 0);
  event(obs::SpanKind::kEpochBump, group_tag(group), epoch);
  return owned;
}

void Replicator::persist_baseline(const KeyGroup& group) {
  if (!durable()) return;
  baselines_.insert(group);
  schedule_commit();
}

void Replicator::write_snapshots(bool checkpoints) {
  std::set<KeyGroup> due = std::exchange(baselines_, {});
  if (checkpoints) {
    due.merge(checkpoints_);
    checkpoints_.clear();
  } else {
    // A baseline written now covers the group's pending checkpoint.
    for (const KeyGroup& group : due) checkpoints_.erase(group);
  }
  std::vector<storage::SnapshotView> views;
  views.reserve(due.size());
  for (const KeyGroup& group : due) {
    const ServerTableEntry* entry = table_.find(group);
    if (entry == nullptr || !entry->active) continue;
    views.push_back({{group, log_head(group).value_or(LogHead{1, 0}),
                      entry->root, entry->parent},
                     state_of(group)});
  }
  if (views.empty()) return;
  const auto bytes = storage_->write_snapshots(views);
  for (std::size_t i = 0; i < views.size(); ++i) {
    meter_storage_bytes(views[i].group, bytes[i]);
  }
}

void Replicator::schedule_commit() {
  if (commit_scheduled_) return;
  commit_scheduled_ = true;
  env_.defer([this] { commit(); });
}

void Replicator::commit() {
  commit_scheduled_ = false;
  const SimTime now = env_.now();
  write_snapshots(storage_->sync_due(now));
  storage_->commit(now);
}

const GroupState& Replicator::state_of(const KeyGroup& group) const {
  static const GroupState kEmpty;
  const auto it = state_.find(group);
  return it != state_.end() ? it->second : kEmpty;
}

Replicator::Source Replicator::owner_source(const ServerTableEntry& entry,
                                            const OwnedLog& owned) const {
  return Source{owned.log, state_of(entry.group), entry.root, entry.parent,
                self_};
}

void Replicator::snapshot_group(const ServerTableEntry& entry) {
  if (!replicating() && !durable()) return;
  const auto it = owned_logs_.find(entry.group);
  OwnedLog& owned =
      it != owned_logs_.end() ? it->second : start_line(entry.group, 1);
  // The snapshot defines the new compaction boundary at the current
  // head; anyone behind it is repaired by the snapshot itself.
  owned.log.compact();
  persist_baseline(entry.group);
  if (!replicating()) return;
  const Source src = owner_source(entry, owned);
  for (const ServerId target : replica_set(owned.ring_pos)) {
    send_snapshot(target, entry.group, src);
  }
}

void Replicator::log_op(const KeyGroup& group, LogOp op) {
  const bool replicating = this->replicating();
  if (!replicating && !durable()) return;
  auto it = owned_logs_.find(group);
  if (it == owned_logs_.end()) {
    // Logging went on after the group activated (a store attached
    // late): its line starts from a snapshot.
    snapshot_group(*table_.find(group));
    it = owned_logs_.find(group);
  }
  OwnedLog& owned = it->second;
  GroupLog& log = owned.log;

  if (replicating) {
    // One ReplAppend frame per group per dispatch tick: encode and
    // decode cost is per message.
    if (owned.batch.empty()) batched_.push_back(group);
    if (owned.trace_id == 0) owned.trace_id = active_trace_;
    owned.batch.push_back(op);
  }
  // Append-on-mutate, WAL first: the op is staged for the tick's WAL
  // write before the in-memory log observes it. Staging never writes
  // it, so the baselines queued this tick still land ahead of it; they
  // are written once the log holds the op, since the server applied it
  // to the group's state before logging it.
  const LogHead head{log.epoch(), log.head().seq + 1};
  if (durable()) {
    meter_storage_bytes(group, storage_->append_op(group, head, op,
                                                   env_.now()));
  }
  log.append(std::move(op));
  if (durable() && !baselines_.empty()) write_snapshots(false);
  if (replicating && !append_flush_scheduled_) {
    // Scheduled only after the local append: an env with the inline
    // defer default flushes at once, and the batch must never be sent
    // ahead of the owner's own log head.
    append_flush_scheduled_ = true;
    env_.defer([this] { flush_pending_appends(); });
  }

  // Bound the retained suffix. The cut is local: each replica compacts
  // its own copy, and a holder left behind the floor is repaired by
  // snapshot. On disk the checkpoint that advances the WAL truncation
  // floor waits for the WAL's next sync point.
  if (log.size() > cfg_.log_compact_threshold) {
    const ServerTableEntry* entry = table_.find(group);
    if (entry != nullptr && entry->active) {
      stats_.log_compactions++;
      if (durable()) checkpoints_.insert(group);
      log.compact();
    }
  }
  // Every append of the tick shares one commit at its end, appends no
  // client waits on (removals, handoffs) included. An env with the
  // inline defer default commits each append at once.
  if (durable()) schedule_commit();
}

void Replicator::send_append_batch(const KeyGroup& group, OwnedLog& owned) {
  if (owned.batch.empty()) return;
  ReplAppend msg{group, self_, owned.log.epoch(),
                 owned.log.head().seq - owned.batch.size(),
                 std::exchange(owned.trace_id, 0),
                 std::exchange(owned.batch, {})};
  const auto targets = replica_set(owned.ring_pos);
  if (targets.empty()) return;
  // Register the in-flight head *before* sending: an env that delivers
  // inline runs the holders' acks re-entrantly inside the fan-out.
  if (owned.inflight.empty()) {
    // Going empty -> non-empty opens the group's replication op in the
    // in-flight table; the last draining ack closes it.
    hub_.inflight.end(std::exchange(owned.op_token, 0));
    owned.op_token = hub_.inflight.begin(
        obs::OpKind::kReplAppend, std::uint32_t(self_.value), group.label(),
        targets.front().value, env_.now().usec);
  }
  owned.inflight.push_back(PendingCommit{
      msg.base_seq + msg.entries.size(), env_.now(), msg.trace_id});
  if (owned.inflight.size() > 4096) owned.inflight.pop_front();
  env_.fan_out(targets, metered(std::move(msg), targets.size()));
}

void Replicator::flush_pending_appends() {
  append_flush_scheduled_ = false;
  // Taken out first: a fan-out that delivers inline can log and queue
  // again. Sorted, the sends leave in group order (the simulator's
  // goldens pin it). A group listed twice, or whose batch a re-epoch
  // sent, has an empty batch by its turn; a retired one has no record.
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

void Replicator::send_snapshot(ServerId to, const KeyGroup& group,
                               const Source& src) {
  const LogHead head = src.log.head();
  const GroupState& st = src.state;
  const std::size_t per_chunk = std::max(1u, cfg_.snapshot_chunk_objects);
  const std::size_t objects = st.streams.size() + st.queries.size();
  const auto total =
      std::uint32_t(std::max<std::size_t>(1, (objects + per_chunk - 1) /
                                                 per_chunk));
  // Every transfer gets a correlation id (the active trace, else a
  // fresh nonzero one), so offer, chunks and the install span stitch.
  const std::uint64_t trace_id =
      active_trace_ != 0 ? active_trace_ : (rng_.next() | 1);
  meter_repl_bytes(group, kMsgOverheadBytes);
  hub_.tracer.record(obs::SpanKind::kSnapshotOfferSent, self_.value,
                     env_.now(), SimDuration{0}, group_tag(group), total,
                     trace_id);
  env_.send(to, SnapshotOffer{group, src.owner, head, src.root, src.parent,
                              total, trace_id});

  // Pre-cut the chunks (streams first, then queries) into an outbound
  // cursor that pump_snapshots drains as the destination's budget
  // allows (unbounded in the sim; queue-depth driven over TCP).
  OutboundSnapshot out;
  for (std::uint32_t idx = 0; idx < total; ++idx) {
    out.chunks.push_back({group, head, idx, total, trace_id, {}, {}});
  }
  std::size_t placed = 0;
  for (const auto& [_, s] : st.streams) {
    out.chunks[placed++ / per_chunk].streams.push_back(s);
  }
  for (const auto& [_, q] : st.queries) {
    out.chunks[placed++ / per_chunk].queries.push_back(q);
  }
  // A restart for the same (to, group) replaces any unfinished
  // transfer: retire the superseded one's in-flight entry first.
  if (const auto oit = outbound_.find({to, group}); oit != outbound_.end()) {
    hub_.inflight.end(oit->second.inflight_token);
  }
  out.inflight_token = hub_.inflight.begin(
      obs::OpKind::kSnapshotOut, std::uint32_t(self_.value), group.label(),
      to.value, env_.now().usec, total);
  outbound_[{to, group}] = std::move(out);
  pump_snapshots();
}

std::size_t Replicator::pump_snapshots() {
  // A chunk delivery can nack inline and restart or erase the transfer
  // being pumped: no iterator is held across a send, no pump nests, and
  // the outermost loop re-finds each entry per chunk.
  if (pumping_snapshots_) return outbound_.size();
  pumping_snapshots_ = true;
  bool progress = true;
  while (progress) {
    progress = false;
    std::vector<std::pair<ServerId, KeyGroup>> keys;
    keys.reserve(outbound_.size());
    for (const auto& [key, _] : outbound_) keys.push_back(key);
    for (const auto& key : keys) {
      std::size_t budget = env_.snapshot_chunk_budget(key.first);
      for (;;) {
        const auto it = outbound_.find(key);
        if (it == outbound_.end()) break;  // cancelled mid-pump
        OutboundSnapshot& out = it->second;
        if (out.next >= out.chunks.size()) {
          hub_.inflight.end(out.inflight_token);
          outbound_.erase(it);
          break;
        }
        if (budget == 0) break;
        --budget;
        progress = true;
        Message msg = metered(std::move(out.chunks[out.next]), 1);
        ++out.next;
        // Copy the token out: the send may re-enter and replace or
        // erase this very map entry (stale tokens are ignored).
        const std::uint64_t tok = out.inflight_token;
        env_.send(key.first, msg);
        hub_.inflight.progress(tok, env_.now().usec);
      }
    }
    if (outbound_.empty()) break;
  }
  pumping_snapshots_ = false;
  return outbound_.size();
}

void Replicator::cancel_outbound(const KeyGroup& group, ServerId only) {
  for (auto it = outbound_.begin(); it != outbound_.end();) {
    const auto& [to, g] = it->first;
    if (g != group || (only.valid() && to != only)) {
      ++it;
      continue;
    }
    event(obs::SpanKind::kSnapshotAborted, group_tag(group), to.value);
    hub_.inflight.end(it->second.inflight_token);
    it = outbound_.erase(it);
  }
}

void Replicator::run_check() {
  // The replica lease tracks the cadence checks actually run at: the
  // deployment layer's interval may be far longer than
  // ClashConfig::load_check_period.
  const SimTime now = env_.now();
  if (last_check_.usec >= 0) {
    observed_check_gap_usec_ =
        std::max(observed_check_gap_usec_, (now - last_check_).usec);
  }
  last_check_ = now;
  if (durable()) {
    // Re-anchor any group whose snapshot write failed (ENOSPC,
    // transient I/O): without the baseline, recovery would replay its
    // ops onto an empty image and call the partial result success.
    for (const ServerTableEntry* e : table_.active_entries()) {
      if (storage_->snapshot_retry_pending(e->group)) {
        baselines_.insert(e->group);
      }
    }
    commit();  // the kInterval sync backstop
  }
  // Replica records nobody refreshed for several check periods go: an
  // ownership move re-targets the replica set, and the ex-holders'
  // stale copies must not linger as promotion poison.
  const auto lease = SimTime(
      std::max(cfg_.load_check_period.usec, observed_check_gap_usec_) * 3);
  std::vector<KeyGroup> stale;
  for (const auto& [group, rec] : replicas_) {
    if (now - rec.refreshed > lease) stale.push_back(group);
  }
  for (const KeyGroup& group : stale) drop_replica(group);
  // The steady-state refresh is one (epoch, seq) vector per holder.
  if (replicating()) send_anti_entropy();
  pump_snapshots();  // the backstop of the transport's drain callback
}

void Replicator::send_anti_entropy() {
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

void Replicator::repair_peer(ServerId to, const KeyGroup& group, LogHead have) {
  std::optional<Source> src;
  if (const ServerTableEntry* entry = table_.find(group);
      entry != nullptr && entry->active) {
    const auto lit = owned_logs_.find(group);
    if (lit == owned_logs_.end()) return;  // anti-entropy heals it
    src.emplace(owner_source(*entry, lit->second));
  } else {
    const auto rit = replicas_.find(group);
    if (rit == replicas_.end() || !(have < rit->second.log.head())) return;
    const ReplicaRecord& rec = rit->second;
    src.emplace(Source{rec.log, rec.state, rec.root, rec.parent, rec.owner});
  }
  const GroupLog& log = src->log;
  std::vector<LogOp> out;
  if (have.epoch == log.epoch() && log.suffix_from(have.seq, out)) {
    if (out.empty()) return;
    ReplAppend repair{group, src->owner, log.epoch(), have.seq, active_trace_,
                      std::move(out)};
    env_.send(to, metered(std::move(repair), 1));
    return;
  }
  // The requester predates the retained suffix (or runs another line):
  // ship a snapshot of the object state at the source's head.
  send_snapshot(to, group, *src);
}

// ---------------------------------------------------------------------------
// The replication messages.
// ---------------------------------------------------------------------------

void Replicator::on(ServerId from, const ReplAppend& m) {
  const TraceScope trace(active_trace_, m.trace_id);
  // Corruption fences, before any state is touched: the content CRC
  // verdict, and a base_seq flipped into wrap-around. A rejected append is
  // dropped without a nack (that would repair off a forged head); the
  // sender's next anti-entropy probe re-syncs us.
  if (!m.crc_ok || m.base_seq + m.entries.size() < m.base_seq) {
    reject(m.group);
    return;
  }
  if (owns(m.group)) return;
  const auto it = replicas_.find(m.group);
  if (it == replicas_.end()) {
    // No base to apply deltas onto: nack so the sender repairs us.
    env_.send(from, ReplAck{m.group, LogHead{}, false});
    return;
  }
  ReplicaRecord& rec = it->second;
  rec.refreshed = env_.now();
  const LogHead tip{m.epoch, m.base_seq + m.entries.size()};
  if (rec.advertised < tip) rec.advertised = tip;
  if (m.owner.valid()) rec.owner = m.owner;

  const LogHead head = rec.log.head();
  if (m.epoch != head.epoch || m.base_seq > head.seq) {
    if (rec.pending) {
      // The snapshot in flight will re-anchor us past this gap. A nack
      // would restart it, and under paced streaming every append during
      // a long transfer would then reset it forever.
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
    const LogOp& op = m.entries[i];
    GroupLog::apply(op, rec.state);
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

void Replicator::on(ServerId from, const ReplAck& m) {
  // A nack asks for repair. It also aborts any snapshot still streaming
  // to that peer for the group: the receiver tore its assembly down, so
  // repair restarts the transfer from scratch.
  if (!m.ok) {
    cancel_outbound(m.group, from);
    repair_peer(from, m.group, m.head);
    return;
  }
  // The first positive ack at or past an in-flight batch head commits
  // it: record ReplAppend -> ReplAck latency.
  const auto it = owned_logs_.find(m.group);
  if (it == owned_logs_.end() || it->second.inflight.empty()) return;
  auto& heads = it->second.inflight;
  const SimTime now = env_.now();
  // Every head in flight belongs to the log's current line.
  const bool same_line = m.head.epoch == it->second.log.epoch();
  while (same_line && !heads.empty() && heads.front().seq <= m.head.seq) {
    const SimDuration latency = now - heads.front().sent;
    commit_latency_us_.record_signed(latency.usec);
    hub_.tracer.record(obs::SpanKind::kCommit, self_.value, heads.front().sent,
                       latency, heads.front().seq, 0, heads.front().trace_id);
    heads.pop_front();
  }
  if (heads.empty()) {
    hub_.inflight.end(std::exchange(it->second.op_token, 0));
  } else {
    hub_.inflight.progress(it->second.op_token, now.usec);
  }
}

void Replicator::on(ServerId from, const SnapshotOffer& m) {
  // Sanity fence: a count near a million chunks is a corrupted offer
  // that would wedge the assembly waiting for chunks that never come.
  constexpr std::uint32_t kMaxSaneChunks = 1u << 20;
  if (m.total_chunks == 0 || m.total_chunks > kMaxSaneChunks) {
    reject(m.group);
    return;
  }
  if (owns(m.group)) return;
  ReplicaRecord& rec = replicas_[m.group];
  rec.refreshed = env_.now();
  if (rec.pending && !(rec.pending->offer.head < m.head)) {
    // A duplicate or competing offer must not discard the chunks
    // already assembled; only a strictly newer head preempts them.
    stats_.snapshot_offers_ignored++;
    return;
  }
  event(obs::SpanKind::kSnapshotOfferRecv, group_tag(m.group),
        m.total_chunks);
  close_assembly(rec);  // a strictly fresher offer preempts it
  rec.pending = ReplicaRecord::PendingSnapshot{m, 0, {}, env_.now(), 0};
  rec.pending->inflight_token = hub_.inflight.begin(
      obs::OpKind::kSnapshotIn, std::uint32_t(self_.value), m.group.label(),
      from.value, env_.now().usec, m.total_chunks);
  rec.last_nacked = LogHead{};  // the new stream starts clean
}

void Replicator::on(ServerId from, const SnapshotChunk& m) {
  // Corruption fence first. Dropping the chunk desyncs the stream, and
  // the next chunk's index mismatch nacks the transfer into a restart.
  if (!m.crc_ok) {
    reject(m.group);
    return;
  }
  if (owns(m.group)) return;
  const auto it = replicas_.find(m.group);
  if (it == replicas_.end()) return;  // offer was never seen
  ReplicaRecord& rec = it->second;
  rec.refreshed = env_.now();
  if (!rec.pending && rec.last_nacked == m.head) {
    return;  // remnants of a transfer already nacked: stay silent
  }
  const bool same_stream = rec.pending && rec.pending->offer.head == m.head &&
                           m.total == rec.pending->offer.total_chunks;
  if (same_stream && m.index < rec.pending->received) {
    return;  // duplicated frame of an already-applied chunk: idempotent
  }
  if (!same_stream || m.index != rec.pending->received) {
    // Stream out of sync (lost, reordered, or never-offered chunk): tear
    // the assembly down and nack with our real head, so the sender
    // restarts now rather than after an anti-entropy period.
    if (rec.pending) {
      event(obs::SpanKind::kSnapshotAborted, group_tag(m.group), from.value);
    }
    close_assembly(rec);
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
  if (p.received < p.offer.total_chunks) return;

  // Complete: install the image and re-anchor the retained log.
  rec.owner = p.offer.owner;
  rec.root = p.offer.root;
  rec.parent = p.offer.parent;
  rec.state = std::move(p.state);
  rec.log.reset(m.head.epoch, m.head.seq);
  if (rec.advertised < m.head) rec.advertised = m.head;
  snapshot_install_us_.record_signed((env_.now() - p.started).usec);
  hub_.tracer.record(obs::SpanKind::kSnapshotTransfer, self_.value, p.started,
                     env_.now() - p.started, group_tag(m.group),
                     p.offer.total_chunks, p.offer.trace_id);
  close_assembly(rec);
  recovery_.note_snapshot_pulled(m.group, env_.now());
  env_.send(from, ReplAck{m.group, rec.log.head(), true});
}

void Replicator::on(ServerId from, const AntiEntropyProbe& m) {
  AntiEntropyDiff diff;
  for (const GroupHead& gh : m.heads) {
    if (owns(gh.group)) continue;  // both claim it; promotion sorts it out
    const auto it = replicas_.find(gh.group);
    if (it == replicas_.end()) {
      diff.behind.push_back(GroupHead{gh.group, LogHead{}});
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
      // Epoch drift either way: the probing owner is the authority, and
      // our copy resyncs from scratch.
      diff.behind.push_back(GroupHead{gh.group, LogHead{}});
    }
  }
  if (!diff.behind.empty()) env_.send(from, diff);
}

void Replicator::on(ServerId from, const AntiEntropyDiff& m) {
  for (const GroupHead& gh : m.behind) repair_peer(from, gh.group, gh.head);
}

// ---------------------------------------------------------------------------
// Replica records: drops, recovery and promotion.
// ---------------------------------------------------------------------------

void Replicator::close_assembly(ReplicaRecord& rec) {
  if (!rec.pending) return;
  hub_.inflight.end(rec.pending->inflight_token);
  rec.pending.reset();
}

void Replicator::erase_replica(Replicas::iterator it) {
  close_assembly(it->second);
  replicas_.erase(it);
}

void Replicator::drop_replica(const KeyGroup& group) {
  if (const auto it = replicas_.find(group); it != replicas_.end()) {
    erase_replica(it);
  }
  // Replication-byte costs metered for a replica no longer held go too,
  // unless the group is also actively owned here.
  if (!owns(group)) costs_.erase(group);
}

bool Replicator::begin_recovery(const KeyGroup& group) {
  if (!replicating() || owns(group)) return false;
  const auto it = replicas_.find(group);
  const LogHead start =
      it != replicas_.end() ? it->second.log.head() : LogHead{};
  if (!recovery_.begin(group, start, env_.now())) {
    return false;  // probes already out
  }
  event(obs::SpanKind::kRecoveryBegin, group_tag(group));
  env_.fan_out(replica_set(ring_pos(group)),
               AntiEntropyDiff{{GroupHead{group, start}}});
  return true;
}

void Replicator::abandon_recovery(const KeyGroup& group) {
  event(obs::SpanKind::kRecoveryAbandon, group_tag(group));
  recovery_.cancel(group);
}

std::optional<Replicator::Promotion> Replicator::take_replica(
    const KeyGroup& group) {
  const auto it = replicas_.find(group);
  if (it == replicas_.end()) return std::nullopt;
  ReplicaRecord& rec = it->second;
  const LogHead head = rec.log.head();
  Promotion out{std::move(rec.state), rec.root, rec.parent,
                std::max(head.epoch, rec.advertised.epoch)};
  // One failover edge: spans the recovery session when one was open,
  // an instant otherwise (rf 0 promotes at once).
  const std::optional<SimTime> opened =
      recovery_.finish(group, head, rec.advertised);
  const SimTime started = opened.value_or(env_.now());
  if (opened) failover_us_.record_signed((env_.now() - started).usec);
  hub_.tracer.record(obs::SpanKind::kFailover, self_.value, started,
                     env_.now() - started, group_tag(group));
  erase_replica(it);
  return out;
}

std::size_t Replicator::restore_from_storage() {
  if (storage_ == nullptr) return 0;
  auto image = storage_->take_image();
  if (!durable()) return 0;
  for (auto& [group, g] : image.groups) {
    ReplicaRecord rec{self_, g.root, g.parent, std::move(g.state), env_.now(),
                      GroupLog(g.head.epoch, g.head.seq), g.head};
    if (const auto it = replicas_.find(group); it != replicas_.end()) {
      erase_replica(it);
    }
    replicas_.emplace(group, std::move(rec));
    // The group's next ownership line must rise above the recovered
    // one even if promotion happens before any peer is heard.
    std::uint64_t& retired = retired_epochs_[group];
    retired = std::max(retired, g.head.epoch);
  }
  return image.groups.size();
}

std::vector<KeyGroup> Replicator::replica_groups() const {
  std::vector<KeyGroup> out;
  for (const auto& [group, _] : replicas_) out.push_back(group);
  return out;
}

}  // namespace clash::repl
