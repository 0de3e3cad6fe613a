// storage::NodeStore: the per-node durable store a ClashServer writes
// through. One WAL (append-on-mutate) plus one snapshot file per owned
// group (baseline at activation; checkpoint after log compaction). It
// commits in groups: a dispatch tick's records reach the WAL in one
// write at the tick's commit, and snapshots are written in batches that
// share one directory sync. Every snapshot truncates the WAL past its
// group's floor, so disk use and replay stay bounded. Construction
// scans the backend and rebuilds the pre-crash image eagerly —
// take_image() hands it to the server's restore path — so the WAL
// always restarts on a fresh segment, never appending to a
// possibly-torn tail.
// Thread contract: a NodeStore is affine to its owner's single thread
// (the node's event loop; the simulator's thread in sim runs). State is
// CLASH_GUARDED_BY(affinity_) and public methods witness the token at
// entry; net::ClashNode binds the token to its event-loop probe, so
// off-loop storage calls abort in CLASH_LOOP_CHECKS builds.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "clash/config.hpp"
#include "common/affinity.hpp"
#include "common/thread_annotations.hpp"
#include "obs/hub.hpp"
#include "storage/recovery.hpp"
#include "storage/snapshot.hpp"
#include "storage/wal.hpp"

namespace clash::storage {

class NodeStore {
 public:
  struct Config {
    ClashConfig::FsyncPolicy fsync = ClashConfig::FsyncPolicy::kInterval;
    std::uint64_t segment_bytes = 1u << 20;
    std::string wal_dir = "wal";
    std::string snap_dir = "snap";

    /// Durability knobs as the protocol config carries them.
    [[nodiscard]] static Config from(const ClashConfig& c) {
      Config cfg;
      cfg.fsync = c.fsync_policy;
      cfg.segment_bytes = c.wal_segment_bytes;
      return cfg;
    }
  };

  /// Scans `backend` (recovery) and opens the WAL one segment past the
  /// highest on disk. The backend must outlive the store.
  NodeStore(Backend& backend, Config cfg);

  /// The affinity capability guarding all store state; the embedding
  /// node binds it to its home-thread probe during setup.
  [[nodiscard]] common::AffinityToken& affinity()
      CLASH_RETURN_CAPABILITY(affinity_) {
    return affinity_;
  }

  /// The image recovered at construction (pre-crash owned groups).
  /// Moves: call once, from the server's restore path.
  [[nodiscard]] RecoveredImage take_image() {
    affinity_.assert_held();
    return std::move(image_);
  }
  [[nodiscard]] const RecoveryScanStats& recovery_stats() const {
    affinity_.assert_held();
    return recovery_stats_;
  }

  /// Append one mutation of an owned group (`head` is the op's
  /// position after the append). The record is staged for the one WAL
  /// write at the next commit() (or sync). Returns the WAL bytes the
  /// record cost (per-group storage metering).
  std::uint64_t append_op(const KeyGroup& group, repl::LogHead head,
                          const repl::LogOp& op, SimTime now);

  /// Write each image as its group's snapshot file, all in one
  /// write_file_atomic batch (one directory sync): a baseline
  /// (activation under a new epoch) or a checkpoint (log-compaction
  /// cut). Once the whole batch is durable, each anchors its group's
  /// WAL replay and advances its truncation floor, and the segments the
  /// floors now cover are reclaimed. Returns each image's encoded
  /// bytes, all 0 when the batch failed (its groups are then flagged
  /// for retry).
  std::vector<std::uint64_t> write_snapshots(
      std::span<const SnapshotView> imgs);
  /// A batch of one.
  std::uint64_t write_snapshot(const SnapshotImage& img) {
    const SnapshotView view = img.view();
    return write_snapshots(std::span(&view, 1)).front();
  }

  /// The group left this node (split away, reclaimed, handed off):
  /// log a drop record, sync it with every record written before it
  /// (whatever the fsync policy), and delete its snapshot file.
  void drop_group(const KeyGroup& group, std::uint64_t epoch, SimTime now);

  /// True when a commit() at `now` is a sync point: under kPerAppend
  /// and kNever every commit is, under kInterval one that finds the
  /// interval elapsed (the load check's commit is the backstop). The
  /// server writes the compaction checkpoints it deferred at the sync
  /// points.
  [[nodiscard]] bool sync_due(SimTime now) const;

  /// The group commit, run once at the end of each dispatch tick that
  /// appended (and at each load check): write the staged records in one
  /// write, then fsync per the policy — under kPerAppend when records
  /// were appended since the last sync, under kInterval when the
  /// interval has elapsed, under kNever not at all. No reply to a put
  /// leaves before it.
  void commit(SimTime now);

  /// True when records appended since the last commit() wait for it.
  /// A sync of the open segment (a drop record's) clears it too.
  [[nodiscard]] bool commit_pending() const {
    affinity_.assert_held();
    return commit_pending_;
  }

  /// True when `group`'s last snapshot write failed and the server
  /// should re-persist it (checked each load check).
  [[nodiscard]] bool snapshot_retry_pending(const KeyGroup& group) const {
    affinity_.assert_held();
    return failed_snapshots_.count(group) > 0;
  }

  /// Attach an observability hub, the only place storage events are
  /// counted: WAL records/bytes/segment writes, reclaimed segments,
  /// snapshot writes/bytes/failures and I/O errors go to its clash_wal_* /
  /// clash_snapshot_* / clash_storage_* counters, and each fsync's
  /// wall-clock cost to the clash_wal_fsync_usec histogram (traced as
  /// WalFsync spans stamped with `node`), whose count is the fsync
  /// count. The construction-time recovery scan is published as the
  /// clash_storage_recovery_usec gauge plus a RecoveryScan span.
  void set_obs(obs::Hub* hub, std::uint64_t node);
  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  /// Count one WAL append's or write's outcome (and trace a rollover).
  std::uint64_t note_append(const Wal::AppendResult& r, SimTime now)
      CLASH_REQUIRES(affinity_);
  /// Write the staged records, then wal_->sync() wrapped with the fsync
  /// histogram/trace span (`now` stamps the span; the duration is
  /// wall-clock). Clears commit_pending_.
  bool timed_sync(SimTime now) CLASH_REQUIRES(affinity_);
  void truncate() CLASH_REQUIRES(affinity_);

  common::AffinityToken affinity_;
  Backend& backend_;
  Config cfg_;
  std::unique_ptr<Wal> wal_ CLASH_PT_GUARDED_BY(affinity_);
  RecoveredImage image_ CLASH_GUARDED_BY(affinity_);
  RecoveryScanStats recovery_stats_ CLASH_GUARDED_BY(affinity_);
  /// Durable snapshot head per group; WAL records at or below their
  /// group's floor are reclaimable.
  std::map<KeyGroup, repl::LogHead> floors_ CLASH_GUARDED_BY(affinity_);
  /// Epoch at which a group was dropped (covers its records without a
  /// floor entry).
  std::map<KeyGroup, std::uint64_t> dropped_ CLASH_GUARDED_BY(affinity_);
  /// Groups whose snapshot write failed (retried via
  /// snapshot_retry_pending).
  std::set<KeyGroup> failed_snapshots_ CLASH_GUARDED_BY(affinity_);
  SimTime last_sync_ CLASH_GUARDED_BY(affinity_){0};
  bool commit_pending_ CLASH_GUARDED_BY(affinity_) = false;

  obs::Hub* hub_ CLASH_GUARDED_BY(affinity_) = nullptr;
  std::uint64_t node_ CLASH_GUARDED_BY(affinity_) = 0;
  obs::HistogramHandle fsync_us_ CLASH_GUARDED_BY(affinity_);
  obs::Counter wal_records_ CLASH_GUARDED_BY(affinity_);
  obs::Counter wal_bytes_ CLASH_GUARDED_BY(affinity_);
  obs::Counter wal_writes_ CLASH_GUARDED_BY(affinity_);
  obs::Counter segments_deleted_ CLASH_GUARDED_BY(affinity_);
  obs::Counter snapshot_writes_ CLASH_GUARDED_BY(affinity_);
  obs::Counter snapshot_bytes_ CLASH_GUARDED_BY(affinity_);
  obs::Counter snapshot_write_failures_ CLASH_GUARDED_BY(affinity_);
  obs::Counter io_errors_ CLASH_GUARDED_BY(affinity_);
  // Construction-scan duration / group count (before take_image moves).
  std::int64_t recovery_usec_ CLASH_GUARDED_BY(affinity_) = 0;
  std::size_t recovered_groups_ CLASH_GUARDED_BY(affinity_) = 0;
};

}  // namespace clash::storage
