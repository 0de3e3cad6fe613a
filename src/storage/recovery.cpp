#include "storage/recovery.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <set>
#include <utility>

#include "common/logging.hpp"
#include "repl/log.hpp"
#include "storage/snapshot.hpp"
#include "storage/wal.hpp"

namespace clash::storage {

namespace {

/// "wal/00000012.seg" -> 12; nullopt for files that are not segments.
std::optional<std::uint64_t> segment_index(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  if (name.size() < 5 || name.substr(name.size() - 4) != ".seg") {
    return std::nullopt;
  }
  char* end = nullptr;
  const auto index = std::strtoull(name.c_str(), &end, 10);
  if (end == name.c_str()) return std::nullopt;
  return index;
}

struct Replayer {
  std::map<KeyGroup, RecoveredGroup>& groups;
  RecoveryScanStats& stats;
  /// Groups whose replay hit a sequence gap: nothing after the gap can
  /// be trusted to chain, so the rest of their records are skipped and
  /// anti-entropy repairs the suffix from the replica set.
  std::set<KeyGroup> gapped;

  void operator()(const WalRecord& rec) {
    if (rec.kind == RecordKind::kDrop) {
      const auto it = groups.find(rec.group);
      if (it != groups.end() && it->second.head.epoch <= rec.head.epoch) {
        groups.erase(it);
        gapped.erase(rec.group);
        stats.drops_applied++;
      }
      return;
    }
    auto it = groups.find(rec.group);
    if (it == groups.end()) {
      // No baseline snapshot (lost, rejected, or an old-format store):
      // reconstruct from empty at the record's predecessor so at least
      // the logged suffix survives.
      RecoveredGroup g;
      g.head = repl::LogHead{rec.head.epoch, rec.head.seq - 1};
      it = groups.emplace(rec.group, std::move(g)).first;
      stats.orphan_groups++;
    }
    RecoveredGroup& g = it->second;
    if (rec.head.epoch < g.head.epoch ||
        (rec.head.epoch == g.head.epoch && rec.head.seq <= g.head.seq)) {
      stats.records_skipped++;  // pre-snapshot history
      return;
    }
    if (rec.head.epoch > g.head.epoch) {
      // A new ownership line without its baseline snapshot on disk
      // (the snapshot write raced the crash): restart the group empty
      // under the new line — the old line's state is dead anyway.
      g = RecoveredGroup{};
      g.head = repl::LogHead{rec.head.epoch, rec.head.seq - 1};
      gapped.erase(rec.group);
      stats.orphan_groups++;
    }
    if (gapped.count(rec.group) > 0) {
      stats.records_skipped++;
      return;
    }
    if (rec.head.seq != g.head.seq + 1) {
      gapped.insert(rec.group);
      stats.records_skipped++;
      return;
    }
    repl::GroupLog::apply(rec.op, g.state);
    g.head = rec.head;
    stats.records_replayed++;
  }
};

}  // namespace

RecoveredImage recover_image(Backend& backend, const std::string& wal_dir,
                             const std::string& snap_dir) {
  RecoveredImage image;

  for (const auto& path : backend.list(snap_dir)) {
    // Only finished snapshots count: a crash between write_file_atomic's
    // sync and rename leaves a valid-looking '*.snap.tmp' behind, and
    // loading it could resurrect a group whose drop record was since
    // truncated away.
    if (path.size() < 5 || path.substr(path.size() - 5) != ".snap") {
      continue;
    }
    std::vector<std::uint8_t> data;
    if (!backend.read_file(path, data)) {
      image.stats.snapshots_rejected++;
      continue;
    }
    SnapshotImage snap;
    if (!decode_snapshot(data, snap)) {
      CLASH_WARN << "rejecting corrupt snapshot " << path;
      image.stats.snapshots_rejected++;
      continue;
    }
    RecoveredGroup g;
    g.head = snap.head;
    g.root = snap.root;
    g.parent = snap.parent;
    g.state = std::move(snap.state);
    image.groups[snap.group] = std::move(g);
    image.snapshot_floors[snap.group] = snap.head;
    image.stats.snapshots_loaded++;
  }

  Replayer replay{image.groups, image.stats, {}};
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  for (const auto& path : backend.list(wal_dir)) {
    if (const auto index = segment_index(path)) {
      segments.emplace_back(*index, path);
      image.next_segment_index =
          std::max(image.next_segment_index, *index + 1);
    }
  }
  std::sort(segments.begin(), segments.end());
  for (const auto& [index, path] : segments) {
    std::vector<std::uint8_t> data;
    if (!backend.read_file(path, data)) continue;
    std::map<KeyGroup, repl::LogHead> tails;
    const auto result =
        scan_wal_segment(data, [&replay, &tails, &image](const WalRecord& rec) {
          auto [it, inserted] = tails.try_emplace(rec.group, rec.head);
          if (!inserted && it->second < rec.head) it->second = rec.head;
          if (rec.kind == RecordKind::kDrop) {
            auto [dit, fresh] =
                image.dropped_epochs.try_emplace(rec.group, rec.head.epoch);
            if (!fresh && dit->second < rec.head.epoch) {
              dit->second = rec.head.epoch;
            }
          }
          replay(rec);
        });
    image.segment_tails.emplace_back(index, std::move(tails));
    image.stats.segments_scanned++;
    if (result.end == ScanEnd::kTornTail) image.stats.torn_tails++;
    if (result.end == ScanEnd::kCorrupt) image.stats.corrupt_records++;
  }
  return image;
}

}  // namespace clash::storage
