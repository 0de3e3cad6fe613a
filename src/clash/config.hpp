// Tunables for the CLASH protocol. Defaults reproduce the paper's
// simulation parameters (Section 6.1).
#pragma once

#include <cstdint>

#include "common/sim_time.hpp"

namespace clash {

struct ClashConfig {
  /// Identifier key width N (paper: 24).
  unsigned key_width = 24;

  /// Depth of the bootstrap key groups ("starting depth" in Figure 4c;
  /// paper: 6). The 2^initial_depth root groups are distributed by the
  /// DHT at startup and consolidation never rises above them.
  unsigned initial_depth = 6;

  /// Server capacity in load units (1 unit == 1 data packet/sec; see
  /// LoadParams). DESIGN.md's calibration notes derive 2400.
  double capacity = 2400.0;

  /// Overload threshold as a fraction of capacity (paper: 90 %).
  double overload_frac = 0.90;

  /// Underload threshold as a fraction of capacity (paper: 54 %).
  double underload_frac = 0.54;

  /// A reclaimed (merged) group must fit under this fraction of
  /// capacity, so a merge can never immediately re-trigger a split.
  static constexpr double kMergeTargetFrac = 0.45;

  /// Load model: load = alpha * data_rate + beta * log2(1 + queries),
  /// per key group ("linear in the data rate, logarithmic in the number
  /// of queries", Section 6).
  double load_alpha = 1.0;
  double load_beta = 8.0;

  /// How often servers evaluate overload/underload
  /// (LOAD_CHECK_PERIOD; paper: 5 minutes).
  SimDuration load_check_period = SimTime::from_minutes(5);

  /// Splits performed per overloaded check. The paper sheds one group
  /// per detection; raising this trades transient spike height for
  /// split churn (see bench/abl_policies).
  unsigned max_splits_per_check = 1;

  /// Split-selection policy (paper: hottest). Merges always pick the
  /// coldest candidate (paper).
  enum class SplitPolicy : std::uint8_t { kHottest, kRandom, kMostKeys };
  SplitPolicy split_policy = SplitPolicy::kHottest;

  /// Enable bottom-up consolidation (ablation hook).
  bool enable_consolidation = true;

  /// Garbage-collect a group's table entry when its last object leaves.
  /// Used by the fixed-depth DHT(x) baselines, whose 2^x groups are
  /// materialised lazily (DHT(24) would otherwise need 16M entries).
  bool ephemeral_groups = false;

  /// Fault-tolerance extension (off = paper-faithful): each active key
  /// group is replicated to this many ring successors through a
  /// per-group operation log (src/repl/). Every mutation is appended and
  /// streamed to the replica set immediately; the periodic traffic is an
  /// (epoch, seq) anti-entropy probe; failover and rejoin pull exactly
  /// the missing suffix. Every holder compacts its own log; snapshots
  /// ship only at activation and handoff, to repair a holder behind the
  /// compaction floor, or to fold app deltas. Staleness ~ one message
  /// delay. When a server fails, the DHT's new owner of each of its
  /// groups promotes its replica.
  unsigned replication_factor = 0;

  /// With replication on: after a member death, or on restart from
  /// disk, hold each candidate promotion open this long so the
  /// surviving replica set can stream the missing log suffix (or a
  /// snapshot) to the heir before it installs. Read by NodeHost in
  /// both transports; the simulator waits it out only when it runs on
  /// an event queue (ChurnSim).
  SimDuration recovery_grace = SimTime::from_seconds(0.25);

  /// Vestigial: no code reads it. bench/e2e/ still assigns it; delete
  /// both together.
  enum class ReplicationMode : std::uint8_t { kLog };
  ReplicationMode replication_mode = ReplicationMode::kLog;

  /// Retained entries per group log before its holder compacts it
  /// locally (bounds both memory and the size of a catch-up delta; a
  /// peer behind the floor is repaired by snapshot). Owner and replicas
  /// apply the same bound, so either can repair the other by delta. A
  /// durable store checkpoints at the same cut.
  unsigned log_compact_threshold = 256;

  /// Streams+queries per replication SnapshotChunk message.
  unsigned snapshot_chunk_objects = 128;

  // --- Durable storage subsystem (src/storage/) ------------------------
  /// What survives a process crash:
  ///  - kNone: the seed behaviour — a restarted node is empty; once
  ///    evicted and rejoined, it is handed its groups over the network.
  ///  - kWalSnapshot: every owned-group mutation is appended to a
  ///    segmented, CRC32-framed write-ahead log; a baseline snapshot per
  ///    group anchors replay, and checkpoint snapshots cut at log
  ///    compaction truncate the WAL past the snapshot floor — bounded
  ///    disk and bounded replay.
  enum class DurabilityMode : std::uint8_t { kNone, kWalSnapshot };
  DurabilityMode durability_mode = DurabilityMode::kNone;

  /// When WAL appends reach stable storage:
  ///  - kPerAppend: fsync every record (no loss, highest latency).
  ///  - kInterval: group commit — fsync at most once per
  ///    kFsyncInterval (bounded loss window).
  ///  - kNever: leave it to the OS (a crash may lose any unsynced
  ///    suffix; recovery still truncates to the last complete record).
  enum class FsyncPolicy : std::uint8_t { kPerAppend, kInterval, kNever };
  FsyncPolicy fsync_policy = FsyncPolicy::kInterval;

  /// Group-commit window for FsyncPolicy::kInterval.
  static constexpr SimDuration kFsyncInterval = SimTime::from_seconds(1);

  /// WAL segment rollover size (truncation reclaims whole segments).
  std::uint64_t wal_segment_bytes = 1u << 20;
};

}  // namespace clash
