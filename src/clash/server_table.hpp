// The ServerTable (Figure 2): each server's purely local view of the
// distributed binary splitting tree — the key groups it manages (active
// entries, the leaves) plus the lineage entries left behind by splits
// (inactive entries, which steer depth searches and enable
// consolidation).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "keys/key.hpp"
#include "keys/key_group.hpp"

namespace clash {

struct ServerTableEntry {
  KeyGroup group;
  /// ParentID == -1 in the paper: consolidation never collapses above a
  /// root entry.
  bool root = false;
  /// Server holding the parent entry (== self for locally-split groups;
  /// meaningless when root).
  ServerId parent{};
  /// Server managing the right child after a split (invalid until this
  /// entry is split).
  ServerId right_child{};
  /// True when this entry is a leaf of the logical tree — i.e. this
  /// server actively manages the group's objects. Once the entry is in
  /// a table, flip it only through ServerTable::set_active.
  bool active = true;
};

/// Entries are hashed by group. An active-entry lookup probes the key's
/// prefix at each depth that holds an active entry, deepest first,
/// instead of scanning the table; a count of active entries per depth
/// names those depths. The ordered readers (all_entries,
/// active_entries, to_string, check_invariants) sort by group, so their
/// output is deterministic. Entry pointers stay valid until that entry
/// is erased.
class ServerTable {
 public:
  explicit ServerTable(unsigned key_width) : key_width_(key_width) {}

  [[nodiscard]] unsigned key_width() const { return key_width_; }

  /// Inserts an entry; the group must not already be present.
  void insert(const ServerTableEntry& entry);

  void erase(const KeyGroup& group);

  /// Flips `entry` (an entry of this table) active or inactive.
  void set_active(ServerTableEntry& entry, bool active);

  [[nodiscard]] ServerTableEntry* find(const KeyGroup& group);
  [[nodiscard]] const ServerTableEntry* find(const KeyGroup& group) const;

  /// The unique ACTIVE entry whose group contains `k`, or nullptr.
  /// Uniqueness holds because active groups are prefix-free (checked by
  /// check_invariants()).
  [[nodiscard]] ServerTableEntry* active_entry_for(const Key& k);
  [[nodiscard]] const ServerTableEntry* active_entry_for(const Key& k) const;

  /// The longest prefix match between `k` and any entry (active or
  /// not): max over entries of min(common_prefix(k, vkey), depth).
  /// This is the dmin of an INCORRECT_DEPTH reply (Section 5 case c).
  [[nodiscard]] unsigned longest_prefix_match(const Key& k) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t active_count() const;

  /// Sorted by group.
  [[nodiscard]] std::vector<const ServerTableEntry*> active_entries() const;
  [[nodiscard]] std::vector<const ServerTableEntry*> all_entries() const;

  /// Validates the local invariants:
  ///  1. active groups are mutually prefix-free,
  ///  2. every inactive entry has a valid right_child,
  ///  3. every entry's virtual key has a zeroed suffix and the table's
  ///     key width,
  ///  4. the per-depth active counts match the entries.
  /// Returns an explanation of the first violation, or nullopt.
  [[nodiscard]] std::optional<std::string> check_invariants() const;

  /// Render in the style of Figure 2 (for logs/examples).
  [[nodiscard]] std::string to_string() const;

 private:
  void count_active(const ServerTableEntry& entry, int delta);

  unsigned key_width_;
  std::unordered_map<KeyGroup, ServerTableEntry> entries_;
  /// Active entries at each depth 0..key_width.
  std::array<std::uint32_t, Key::kMaxWidth + 1> active_at_depth_{};
};

}  // namespace clash
