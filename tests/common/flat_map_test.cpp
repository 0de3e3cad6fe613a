#include "common/flat_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/rng.hpp"

namespace clash {
namespace {

// The slot of a key is the top bits of its hash; with the identity as
// the hash, a test places keys at chosen home slots.
struct TopBitsHash {
  std::size_t operator()(std::uint64_t k) const noexcept { return k; }
};

// A key whose home slot is `slot` in a table of `cap` slots.
std::uint64_t at_home(std::uint64_t slot, std::uint64_t cap,
                      std::uint64_t tag) {
  const unsigned shift = 64 - unsigned(std::countr_zero(cap));
  return (slot << shift) | tag;
}

template <class Map>
std::map<std::uint64_t, std::uint64_t> contents(const Map& m) {
  std::map<std::uint64_t, std::uint64_t> out;
  for (const auto& [k, v] : m) {
    EXPECT_TRUE(out.emplace(k, v).second) << "key " << k << " seen twice";
  }
  return out;
}

// Random insert, upsert, erase (by key and by iterator), find and
// iterate against std::unordered_map, growing through several rehashes
// and draining back. `make_key` maps a draw to a key, so the clustered
// variant packs the keys into long probe runs that wrap the array end.
template <class Hash, class MakeKey>
void run_differential(std::uint64_t seed, MakeKey make_key) {
  Rng rng(seed);
  FlatMap<std::uint64_t, std::uint64_t, Hash> flat;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  std::size_t max_capacity = 0;
  for (int phase = 0; phase < 2; ++phase) {
    // Phase 0 grows (inserts win), phase 1 drains (erases win).
    const std::uint64_t erase_pct = phase == 0 ? 25 : 70;
    for (int step = 0; step < 6000; ++step) {
      const std::uint64_t k = make_key(rng.below(3000));
      const std::uint64_t op = rng.below(100);
      if (op < erase_pct) {
        if (rng.below(2) == 0) {
          ASSERT_EQ(flat.erase(k), ref.erase(k));
        } else if (auto it = flat.find(k); it != flat.end()) {
          flat.erase(it);
          ASSERT_EQ(ref.erase(k), 1u);
        } else {
          ASSERT_EQ(ref.count(k), 0u);
        }
      } else if (op < 70) {
        const std::uint64_t v = rng.next();
        const auto [it, inserted] = flat.try_emplace(k, v);
        const auto [rit, rinserted] = ref.try_emplace(k, v);
        ASSERT_EQ(inserted, rinserted);
        ASSERT_EQ(it->first, k);
        ASSERT_EQ(it->second, rit->second);
      } else if (op < 85) {
        const std::uint64_t v = rng.next();
        flat[k] = v;
        ref[k] = v;
      } else {
        const auto it = flat.find(k);
        const auto rit = ref.find(k);
        ASSERT_EQ(it == flat.end(), rit == ref.end());
        if (rit != ref.end()) {
          ASSERT_EQ(it->second, rit->second);
        }
        ASSERT_EQ(flat.count(k), ref.count(k));
      }
      ASSERT_EQ(flat.size(), ref.size());
      ASSERT_LE(flat.size() * 4, flat.capacity() * 3);
      max_capacity = std::max(max_capacity, flat.capacity());
      if (step % 500 == 0) {
        ASSERT_EQ(contents(flat),
                  (std::map<std::uint64_t, std::uint64_t>(ref.begin(),
                                                          ref.end())));
      }
    }
  }
  ASSERT_EQ(contents(flat), (std::map<std::uint64_t, std::uint64_t>(
                                ref.begin(), ref.end())));
  EXPECT_GE(max_capacity, 1024u);  // grew through several rehashes
}

TEST(FlatMap, MatchesUnorderedMapUnderRandomOps) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    run_differential<FlatHash<std::uint64_t>>(
        seed, [](std::uint64_t draw) { return draw * 7919; });
  }
}

TEST(FlatMap, MatchesUnorderedMapWithClusteredHomes) {
  // Every key's home is in the top 1/16 of the array, so runs spill
  // over the end into slot 0 and erases shift entries back across it.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    run_differential<TopBitsHash>(seed, [](std::uint64_t draw) {
      return (std::uint64_t{0xF} << 60) | ((draw * 0x9E3779B97F4A7C15) >> 4);
    });
  }
}

TEST(FlatMap, BackwardShiftEraseAcrossTheArrayEnd) {
  // Capacity 4 holds 3 entries. x and y both live at home 3, so y wraps
  // to slot 0; z's home 0 is taken, so it sits in slot 1.
  FlatMap<std::uint64_t, int, TopBitsHash> m;
  const std::uint64_t x = at_home(3, 4, 1);
  const std::uint64_t y = at_home(3, 4, 2);
  const std::uint64_t z = at_home(0, 4, 3);
  m[x] = 1;
  m[y] = 2;
  m[z] = 3;
  ASSERT_EQ(m.capacity(), 4u);
  // Erasing x pulls y back over the end into slot 3 and z into slot 0;
  // both stay reachable.
  EXPECT_EQ(m.erase(x), 1u);
  EXPECT_EQ(m.count(x), 0u);
  ASSERT_NE(m.find(y), m.end());
  EXPECT_EQ(m.find(y)->second, 2);
  ASSERT_NE(m.find(z), m.end());
  EXPECT_EQ(m.find(z)->second, 3);
  EXPECT_EQ(contents(m), (std::map<std::uint64_t, std::uint64_t>{
                             {y, 2}, {z, 3}}));

  // An entry whose home lies past the hole must stay put: w (home 2)
  // in slot 2, v (home 3) in slot 3, u (home 3) wrapped to slot 0.
  FlatMap<std::uint64_t, int, TopBitsHash> n;
  const std::uint64_t w = at_home(2, 4, 1);
  const std::uint64_t v = at_home(3, 4, 2);
  const std::uint64_t u = at_home(3, 4, 3);
  n[w] = 1;
  n[v] = 2;
  n[u] = 3;
  EXPECT_EQ(n.erase(w), 1u);
  EXPECT_EQ(n.at(v), 2);
  EXPECT_EQ(n.at(u), 3);
  EXPECT_EQ(n.erase(v), 1u);
  EXPECT_EQ(n.at(u), 3);  // shifted back from slot 0 to its home
  EXPECT_EQ(n.size(), 1u);
}

TEST(FlatMap, CopyAndMoveAreIndependent) {
  FlatMap<std::uint64_t, int> a;
  for (std::uint64_t i = 0; i < 100; ++i) a[i] = int(i);
  FlatMap<std::uint64_t, int> b = a;
  a.erase(std::uint64_t{5});
  a[1000] = 1;
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.at(5), 5);
  EXPECT_EQ(b.count(1000), 0u);
  b = a;
  EXPECT_EQ(b.count(5), 0u);
  EXPECT_EQ(b.at(1000), 1);

  FlatMap<std::uint64_t, int> c = std::move(a);
  EXPECT_EQ(c.size(), 100u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.find(7), a.end());
  a[7] = 7;  // a moved-from map is usable
  EXPECT_EQ(a.at(7), 7);
  c = std::move(b);
  EXPECT_EQ(c.at(1000), 1);
  EXPECT_THROW((void)c.at(123456), std::out_of_range);
}

}  // namespace
}  // namespace clash
