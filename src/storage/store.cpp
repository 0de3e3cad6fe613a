#include "storage/store.hpp"

#include <chrono>
#include <limits>
#include <utility>

#include "common/logging.hpp"

namespace clash::storage {

NodeStore::NodeStore(Backend& backend, Config cfg)
    : backend_(backend), cfg_(std::move(cfg)) {
  const auto scan_start = std::chrono::steady_clock::now();
  // Sweep half-written snapshots a crash left behind (recovery ignores
  // them, but an unlinked tmp must not linger to confuse operators or
  // fill the disk).
  for (const auto& path : backend_.list(cfg_.snap_dir)) {
    if (path.size() >= 4 && path.substr(path.size() - 4) == ".tmp") {
      backend_.remove_file(path);
    }
  }
  image_ = recover_image(backend_, cfg_.wal_dir, cfg_.snap_dir);
  recovered_groups_ = image_.groups.size();
  recovery_usec_ = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - scan_start)
                       .count();
  recovery_stats_ = image_.stats;
  floors_ = image_.snapshot_floors;
  dropped_ = image_.dropped_epochs;
  wal_ = std::make_unique<Wal>(
      backend_, Wal::Config{cfg_.wal_dir, cfg_.segment_bytes},
      image_.next_segment_index);
  // Adopt the pre-crash segments as closed so checkpoints reclaim
  // them like any other — otherwise every restart would leak its
  // predecessor's WAL forever, and replay would grow without bound.
  for (auto& [index, tails] : image_.segment_tails) {
    wal_->adopt_closed_segment(index, std::move(tails));
  }
  image_.segment_tails.clear();
  truncate();
}

void NodeStore::set_obs(obs::Hub* hub, std::uint64_t node) {
  affinity_.assert_held();
  hub_ = hub;
  node_ = node;
  if (hub_ == nullptr) {
    fsync_us_ = {};
    wal_records_ = wal_bytes_ = segments_deleted_ = {};
    snapshot_writes_ = snapshot_bytes_ = snapshot_write_failures_ = {};
    io_errors_ = {};
    return;
  }
  auto& r = hub_->registry;
  fsync_us_ = r.histogram("clash_wal_fsync_usec");
  wal_records_ = r.counter("clash_wal_records_total");
  wal_bytes_ = r.counter("clash_wal_bytes_total");
  segments_deleted_ = r.counter("clash_wal_segments_deleted_total");
  snapshot_writes_ = r.counter("clash_snapshot_writes_total");
  snapshot_bytes_ = r.counter("clash_snapshot_bytes_total");
  snapshot_write_failures_ = r.counter("clash_snapshot_write_failures_total");
  io_errors_ = r.counter("clash_storage_io_errors_total");
  hub_->registry.gauge("clash_storage_recovery_usec").set(recovery_usec_);
  hub_->tracer.record(obs::SpanKind::kRecoveryScan, node_, SimTime{0},
                      SimDuration{recovery_usec_}, recovered_groups_);
}

std::uint64_t NodeStore::append_op(const KeyGroup& group, repl::LogHead head,
                                   const repl::LogOp& op, SimTime now) {
  affinity_.assert_held();
  const std::uint64_t bytes =
      note_append(wal_->append_op(group, head, op), now);
  maybe_sync(now);
  return bytes;
}

std::uint64_t NodeStore::note_append(const Wal::AppendResult& r,
                                     SimTime now) {
  if (r.bytes > 0) wal_records_.inc();
  wal_bytes_.inc(r.bytes);
  io_errors_.inc(r.io_errors);
  if (r.rolled && hub_ != nullptr) {
    hub_->tracer.record(obs::SpanKind::kWalRollover, node_, now,
                        SimDuration{0}, wal_->open_segment_index());
  }
  return r.bytes;
}

std::uint64_t NodeStore::write_snapshot(const SnapshotImage& img) {
  affinity_.assert_held();
  const auto bytes = encode_snapshot(img);
  if (!backend_.write_file_atomic(snapshot_path(cfg_.snap_dir, img.group),
                                  bytes)) {
    // A lost baseline is a lost anchor (the adopted state never went
    // through the WAL): flag the group so the server re-persists it
    // at the next load check instead of presenting partial recovery
    // as success.
    snapshot_write_failures_.inc();
    failed_snapshots_.insert(img.group);
    CLASH_ERROR << "snapshot write failed for " << img.group.label()
                << " (will retry at the next load check)";
    return 0;
  }
  failed_snapshots_.erase(img.group);
  snapshot_writes_.inc();
  snapshot_bytes_.inc(bytes.size());
  floors_[img.group] = img.head;
  truncate();
  return bytes.size();
}

void NodeStore::drop_group(const KeyGroup& group, std::uint64_t epoch,
                           SimTime now) {
  affinity_.assert_held();
  (void)note_append(wal_->append_drop(group, epoch), now);
  // The drop record must be durable BEFORE the snapshot deletion is —
  // regardless of fsync policy (drops are rare; a sync costs little).
  // An unsynced drop paired with the immediately-durable unlink below
  // would let a crash resurrect a handed-off group from its residual
  // op records: state another node now legitimately owns.
  timed_sync(now);
  backend_.remove_file(snapshot_path(cfg_.snap_dir, group));
  floors_.erase(group);
  auto [it, inserted] = dropped_.try_emplace(group, epoch);
  if (!inserted && it->second < epoch) it->second = epoch;
  truncate();
}

void NodeStore::truncate() {
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  segments_deleted_.inc(wal_->truncate_covered(
      [this, kMax](const KeyGroup& group, repl::LogHead tail) {
        const auto floor = floors_.find(group);
        if (floor != floors_.end() && tail <= floor->second) return true;
        const auto dropped = dropped_.find(group);
        return dropped != dropped_.end() &&
               tail <= repl::LogHead{dropped->second, kMax};
      }));
}

bool NodeStore::timed_sync(SimTime now) {
  const auto t0 = std::chrono::steady_clock::now();
  const Wal::SyncResult result = wal_->sync();
  if (result == Wal::SyncResult::kIdle) return true;
  const bool ok = result == Wal::SyncResult::kSynced;
  if (!ok) io_errors_.inc();
  if (!fsync_us_.valid()) return ok;
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  fsync_us_.record(std::uint64_t(us));
  hub_->tracer.record(obs::SpanKind::kWalFsync, node_, now, SimDuration{us},
                      ok ? 0 : 1);
  return ok;
}

void NodeStore::maybe_sync(SimTime now) {
  switch (cfg_.fsync) {
    case ClashConfig::FsyncPolicy::kPerAppend:
      timed_sync(now);
      break;
    case ClashConfig::FsyncPolicy::kInterval:
      if (now - last_sync_ >= ClashConfig::kFsyncInterval) {
        timed_sync(now);
        last_sync_ = now;
      }
      break;
    case ClashConfig::FsyncPolicy::kNever:
      break;
  }
}

void NodeStore::tick(SimTime now) {
  affinity_.assert_held();
  if (cfg_.fsync == ClashConfig::FsyncPolicy::kInterval &&
      now - last_sync_ >= ClashConfig::kFsyncInterval) {
    timed_sync(now);
    last_sync_ = now;
  }
}

}  // namespace clash::storage
