// Chord ring (Stoica et al., SIGCOMM 2001) with finger-table routing.
//
// This is the simulation-oriented implementation the paper's evaluation
// uses ("extends the basic CHORD simulation code"): the ring holds the
// full membership, Map() is an O(log S) successor search, and lookup()
// reproduces Chord's iterative closest-preceding-finger routing exactly
// (including the final successor hop), so hop counts match a real
// deployment's message counts. Supports CFS-style virtual servers:
// each physical server may own several ring positions.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "dht/dht.hpp"

namespace clash::dht {

class ChordRing final : public Dht {
 public:
  struct Config {
    unsigned hash_bits = 32;
    /// Ring positions per physical server (Chord/CFS virtual servers).
    unsigned virtual_servers = 1;
    KeyHasher::Algo hash_algo = KeyHasher::Algo::kMix64;
    std::uint64_t salt = 0;
  };

  explicit ChordRing(Config config);

  /// Adds a server at positions derived from hash(server id, replica).
  /// Position collisions are resolved by probing with a new salt.
  void add_server(ServerId id);
  void remove_server(ServerId id);
  [[nodiscard]] bool contains(ServerId id) const {
    return owned_positions_.count(id) > 0;
  }

  /// A new ring: this one with `id` added / removed. The same change to
  /// the same ring yields the same object, so holders whose views agree
  /// share one ring (1000 simulated servers hold one copy, not 1000).
  /// Like the rest of the ring, not thread-safe.
  [[nodiscard]] std::shared_ptr<const ChordRing> with(ServerId id) const {
    return derive(id, /*add=*/true);
  }
  [[nodiscard]] std::shared_ptr<const ChordRing> without(ServerId id) const {
    return derive(id, /*add=*/false);
  }

  /// Owner of `h`: the first ring position clockwise from h (successor).
  [[nodiscard]] ServerId map(HashKey h) const override;

  /// Iterative Chord routing from `origin`'s first ring position.
  [[nodiscard]] LookupResult lookup(HashKey h, ServerId origin) const override;

  [[nodiscard]] std::size_t server_count() const override;
  [[nodiscard]] std::vector<ServerId> servers() const override;
  [[nodiscard]] std::vector<ServerId> successors(HashKey h,
                                                 std::size_t n) const override;

  [[nodiscard]] const KeyHasher& hasher() const { return hasher_; }

  /// Ring position(s) of a server (for tests / diagnostics).
  [[nodiscard]] std::vector<HashKey> positions_of(ServerId id) const;

  /// Successor ring position of `h` (the owner's position).
  [[nodiscard]] HashKey successor_position(HashKey h) const;

 private:
  [[nodiscard]] std::uint64_t mask() const;
  [[nodiscard]] std::shared_ptr<const ChordRing> derive(ServerId id,
                                                        bool add) const;
  /// First position >= p clockwise (wrapping).
  [[nodiscard]] std::map<std::uint64_t, ServerId>::const_iterator successor_it(
      std::uint64_t p) const;

  Config config_;
  KeyHasher hasher_;
  std::map<std::uint64_t, ServerId> ring_;  // position -> physical server
  std::map<ServerId, std::vector<std::uint64_t>> owned_positions_;
  /// Rings derived from this one, by change.
  mutable std::map<std::pair<ServerId, bool>, std::weak_ptr<const ChordRing>>
      derived_;
};

}  // namespace clash::dht
