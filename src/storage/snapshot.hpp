// On-disk group snapshots: one atomic file per key group holding the
// group's full object state (streams and continuous queries, predicates
// included) at a log head. Object state is serialised as a run of
// put_stream/put_query LogOps — the exact wire encoding the replication
// subsystem already uses — so recovery replays a snapshot through
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

struct SnapshotImage {
  KeyGroup group;
  repl::LogHead head;
  bool root = false;
  ServerId parent{};
  GroupState state;
};

/// Serialise an image (magic + version + payload + trailing CRC32).
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(
    const SnapshotImage& img);

/// Decode + CRC-validate; false on any damage (caller falls back to
/// WAL-only recovery for the group).
bool decode_snapshot(std::span<const std::uint8_t> data, SnapshotImage& out);

/// Stable, filesystem-safe path for a group's snapshot file
/// ("snap/<depth>-<virtual key hex>.snap"; the label's '*' wildcard is
/// not filename material).
[[nodiscard]] std::string snapshot_path(const std::string& dir,
                                        const KeyGroup& group);

}  // namespace clash::storage
