#include "dht/chord.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/bits.hpp"

namespace clash::dht {

ChordRing::ChordRing(Config config)
    : config_(config),
      hasher_(config.hash_bits, config.hash_algo, config.salt) {
  if (config_.virtual_servers == 0) {
    throw std::invalid_argument("virtual_servers must be >= 1");
  }
}

std::shared_ptr<const ChordRing> ChordRing::derive(ServerId id,
                                                   bool add) const {
  std::weak_ptr<const ChordRing>& slot = derived_[{id, add}];
  if (auto ring = slot.lock()) return ring;
  auto ring = std::make_shared<ChordRing>(*this);
  ring->derived_.clear();
  if (add) {
    ring->add_server(id);
  } else {
    ring->remove_server(id);
  }
  slot = ring;
  return ring;
}

std::uint64_t ChordRing::mask() const {
  return bits::low_mask(config_.hash_bits);
}

void ChordRing::add_server(ServerId id) {
  if (!id.valid()) throw std::invalid_argument("invalid server id");
  if (owned_positions_.count(id) > 0) {
    throw std::invalid_argument("server already on the ring");
  }
  auto& positions = owned_positions_[id];
  positions.reserve(config_.virtual_servers);
  for (unsigned r = 0; r < config_.virtual_servers; ++r) {
    std::uint64_t token = id.value * 0x100000001b3ULL + r;
    std::uint64_t pos = hasher_.hash_token(token).value;
    // Linear re-hash on collision: ring positions must be unique.
    while (ring_.count(pos) > 0) {
      token = token * 0x9e3779b97f4a7c15ULL + 1;
      pos = hasher_.hash_token(token).value;
    }
    ring_.emplace(pos, id);
    positions.push_back(pos);
  }
}

void ChordRing::remove_server(ServerId id) {
  const auto it = owned_positions_.find(id);
  if (it == owned_positions_.end()) return;
  for (const auto pos : it->second) ring_.erase(pos);
  owned_positions_.erase(it);
}

std::map<std::uint64_t, ServerId>::const_iterator ChordRing::successor_it(
    std::uint64_t p) const {
  assert(!ring_.empty());
  auto it = ring_.lower_bound(p & mask());
  if (it == ring_.end()) it = ring_.begin();  // wrap around the ring
  return it;
}

ServerId ChordRing::map(HashKey h) const {
  if (ring_.empty()) return ServerId{};
  return successor_it(h.value)->second;
}

HashKey ChordRing::successor_position(HashKey h) const {
  if (ring_.empty()) return HashKey{};
  return HashKey(successor_it(h.value)->first);
}

LookupResult ChordRing::lookup(HashKey h, ServerId origin) const {
  if (ring_.empty()) return {ServerId{}, 0};
  const auto origin_it = owned_positions_.find(origin);
  if (origin_it == owned_positions_.end() || origin_it->second.empty()) {
    throw std::invalid_argument("lookup origin is not on the ring");
  }

  const std::uint64_t m = mask();
  const std::uint64_t target = h.value & m;
  const std::uint64_t owner_pos = successor_it(target)->first;
  std::uint64_t cur = origin_it->second.front();

  unsigned hops = 0;
  // Iterative Chord routing: while the current node does not own the
  // target, forward to the closest preceding finger; if no finger
  // strictly precedes the target, take the final successor hop.
  while (cur != owner_pos) {
    // cur owns target iff target in (predecessor(cur), cur]; equivalent
    // here to cur == owner_pos since owner_pos = successor(target).
    std::uint64_t next = cur;
    const std::uint64_t dist = ring_distance(cur, target, m);
    if (dist != 0) {
      // Finger i of node at `cur` points to successor(cur + 2^i).
      // The closest preceding finger is found from the largest i with
      // 2^i <= dist downward; usually the first candidate works.
      for (unsigned i = bits::width(dist); i-- > 0;) {
        const std::uint64_t probe = (cur + (std::uint64_t{1} << i)) & m;
        const std::uint64_t finger = successor_it(probe)->first;
        if (ring_in_open(finger, cur, target, m)) {
          next = finger;
          break;
        }
      }
    }
    if (next == cur) {
      // No finger in (cur, target): the successor is the owner.
      next = owner_pos;
    }
    cur = next;
    ++hops;
  }
  return {ring_.at(owner_pos), hops};
}

std::size_t ChordRing::server_count() const { return owned_positions_.size(); }

std::vector<ServerId> ChordRing::servers() const {
  std::vector<ServerId> out;
  out.reserve(owned_positions_.size());
  for (const auto& [id, _] : owned_positions_) out.push_back(id);
  return out;
}

std::vector<ServerId> ChordRing::successors(HashKey h, std::size_t n) const {
  std::vector<ServerId> out;
  if (ring_.empty() || n == 0) return out;
  auto it = successor_it(h.value);
  // Walk clockwise collecting distinct physical servers.
  for (std::size_t steps = 0; steps < ring_.size() && out.size() < n;
       ++steps) {
    const ServerId s = it->second;
    if (std::find(out.begin(), out.end(), s) == out.end()) {
      out.push_back(s);
    }
    ++it;
    if (it == ring_.end()) it = ring_.begin();
  }
  return out;
}

std::vector<HashKey> ChordRing::positions_of(ServerId id) const {
  std::vector<HashKey> out;
  const auto it = owned_positions_.find(id);
  if (it == owned_positions_.end()) return out;
  out.reserve(it->second.size());
  for (const auto p : it->second) out.emplace_back(p);
  return out;
}

}  // namespace clash::dht
