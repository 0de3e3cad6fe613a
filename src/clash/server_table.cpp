#include "clash/server_table.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace clash {

void ServerTable::insert(const ServerTableEntry& entry) {
  if (entry.group.key_width() != key_width_) {
    throw std::invalid_argument("entry key width mismatch");
  }
  const auto [it, inserted] = entries_.emplace(entry.group, entry);
  if (!inserted) {
    throw std::invalid_argument("duplicate key group in server table: " +
                                entry.group.label());
  }
  count_active(it->second, +1);
}

void ServerTable::erase(const KeyGroup& group) {
  const auto it = entries_.find(group);
  if (it == entries_.end()) return;
  count_active(it->second, -1);
  entries_.erase(it);
}

void ServerTable::set_active(ServerTableEntry& entry, bool active) {
  assert(find(entry.group) == &entry);
  if (entry.active == active) return;
  count_active(entry, -1);
  entry.active = active;
  count_active(entry, +1);
}

void ServerTable::count_active(const ServerTableEntry& entry, int delta) {
  // Unsigned wrap-around makes a delta of -1 a decrement.
  if (entry.active) {
    active_at_depth_[entry.group.depth()] += std::uint32_t(delta);
  }
}

ServerTableEntry* ServerTable::find(const KeyGroup& group) {
  const auto it = entries_.find(group);
  return it == entries_.end() ? nullptr : &it->second;
}

const ServerTableEntry* ServerTable::find(const KeyGroup& group) const {
  const auto it = entries_.find(group);
  return it == entries_.end() ? nullptr : &it->second;
}

ServerTableEntry* ServerTable::active_entry_for(const Key& k) {
  return const_cast<ServerTableEntry*>(
      static_cast<const ServerTable*>(this)->active_entry_for(k));
}

const ServerTableEntry* ServerTable::active_entry_for(const Key& k) const {
  // Active groups are prefix-free, so at most one contains `k`: the
  // key's own prefix at that group's depth. Deepest first, since the
  // groups that split deepest are the ones that drew the most load.
  if (k.width() != key_width_) return nullptr;
  for (unsigned d = key_width_ + 1; d-- > 0;) {
    if (active_at_depth_[d] == 0) continue;
    const auto it = entries_.find(KeyGroup::of(k, d));
    if (it != entries_.end() && it->second.active) return &it->second;
  }
  return nullptr;
}

unsigned ServerTable::longest_prefix_match(const Key& k) const {
  unsigned best = 0;
  for (const auto& [group, entry] : entries_) {
    const unsigned match = std::min(group.virtual_key().common_prefix_len(k),
                                    group.depth());
    best = std::max(best, match);
  }
  return best;
}

std::size_t ServerTable::active_count() const {
  std::size_t n = 0;
  for (const std::uint32_t c : active_at_depth_) n += c;
  return n;
}

std::vector<const ServerTableEntry*> ServerTable::active_entries() const {
  std::vector<const ServerTableEntry*> out = all_entries();
  std::erase_if(out, [](const ServerTableEntry* e) { return !e->active; });
  return out;
}

std::vector<const ServerTableEntry*> ServerTable::all_entries() const {
  std::vector<const ServerTableEntry*> out;
  out.reserve(entries_.size());
  for (const auto& [_, entry] : entries_) out.push_back(&entry);
  std::sort(out.begin(), out.end(),
            [](const ServerTableEntry* a, const ServerTableEntry* b) {
              return a->group < b->group;
            });
  return out;
}

std::optional<std::string> ServerTable::check_invariants() const {
  std::vector<const ServerTableEntry*> active;
  std::array<std::uint32_t, Key::kMaxWidth + 1> per_depth{};
  for (const ServerTableEntry* e : all_entries()) {
    const KeyGroup& group = e->group;
    if (group.key_width() != key_width_) {
      return "entry " + group.label() + " has wrong key width";
    }
    if (shape(group.virtual_key(), group.depth()) != group.virtual_key()) {
      return "entry " + group.label() + " has non-zero suffix bits";
    }
    if (!e->active && !e->right_child.valid()) {
      return "inactive entry " + group.label() + " lacks a right child";
    }
    if (e->active) {
      active.push_back(e);
      ++per_depth[group.depth()];
    }
  }
  if (per_depth != active_at_depth_) {
    return std::string("active counts per depth disagree with the entries");
  }
  for (std::size_t i = 0; i < active.size(); ++i) {
    for (std::size_t j = i + 1; j < active.size(); ++j) {
      if (active[i]->group.covers(active[j]->group) ||
          active[j]->group.covers(active[i]->group)) {
        return "active groups overlap: " + active[i]->group.label() + " and " +
               active[j]->group.label();
      }
    }
  }
  return std::nullopt;
}

std::string ServerTable::to_string() const {
  std::ostringstream os;
  os << "No.  VirtualKeyGroup  Depth  Parent  RightChild  Active\n";
  std::size_t n = 1;
  for (const ServerTableEntry* e : all_entries()) {
    const ServerTableEntry& entry = *e;
    os << n++ << "    " << entry.group.label() << "  " << entry.group.depth()
       << "  ";
    if (entry.root) {
      os << "-1";
    } else if (entry.parent.valid()) {
      os << clash::to_string(entry.parent);
    } else {
      os << "?";
    }
    os << "  ";
    os << (entry.right_child.valid() ? clash::to_string(entry.right_child)
                                     : std::string("-"));
    os << "  " << (entry.active ? "Y" : "N") << "\n";
  }
  return os.str();
}

}  // namespace clash
