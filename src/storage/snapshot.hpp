// On-disk group snapshots: one atomic file per key group holding the
// group's full object state (streams and continuous queries, predicates
// included) at a log head. The header is one field list (snapshot.cpp)
// over the wire codec's lists for group and head, and object state is
// serialised as a run of put_stream/put_query LogOps through the
// codec's LogOp list (wire/fields.hpp) — the exact encoding the
// replication subsystem uses — so recovery replays a snapshot through
// GroupLog::apply like any log suffix. The whole file is CRC32-trailed:
// a half-written or bit-rotted snapshot is rejected, never
// half-applied.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "clash/group_state.hpp"
#include "common/types.hpp"
#include "keys/key_group.hpp"
#include "repl/op.hpp"

namespace clash::storage {

/// What a snapshot file records besides the group's objects.
struct SnapshotHeader {
  KeyGroup group;
  repl::LogHead head;
  bool root = false;
  ServerId parent{};
};

/// A snapshot to write: the header plus the group's state, read where
/// it lives (an owned group's live state), never copied.
struct SnapshotView : SnapshotHeader {
  const GroupState& state;
};

/// A snapshot that owns its state: one read back, or built by hand.
struct SnapshotImage : SnapshotHeader {
  GroupState state;

  [[nodiscard]] SnapshotView view() const { return {*this, state}; }
};

/// Serialise a snapshot (magic + version + payload + trailing CRC32).
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(
    const SnapshotView& img);
[[nodiscard]] inline std::vector<std::uint8_t> encode_snapshot(
    const SnapshotImage& img) {
  return encode_snapshot(img.view());
}

/// Decode + CRC-validate; false on any damage (caller falls back to
/// WAL-only recovery for the group).
bool decode_snapshot(std::span<const std::uint8_t> data, SnapshotImage& out);

/// Stable, filesystem-safe path for a group's snapshot file
/// ("snap/<depth>-<virtual key hex>.snap"; the label's '*' wildcard is
/// not filename material).
[[nodiscard]] std::string snapshot_path(const std::string& dir,
                                        const KeyGroup& group);

}  // namespace clash::storage
