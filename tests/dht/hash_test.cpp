#include "dht/hash.hpp"

#include <gtest/gtest.h>

#include <set>

namespace clash::dht {
namespace {

TEST(KeyHasher, StaysInHashSpace) {
  for (const unsigned bits : {8u, 24u, 32u, 64u}) {
    const KeyHasher h(bits, KeyHasher::Algo::kMix64);
    for (std::uint64_t v = 0; v < 200; ++v) {
      const auto hk = h.hash_key(Key(v, 24));
      if (bits < 64) {
        EXPECT_LT(hk.value, std::uint64_t{1} << bits);
      }
    }
  }
}

TEST(KeyHasher, Deterministic) {
  const KeyHasher a(32, KeyHasher::Algo::kSha1, 7);
  const KeyHasher b(32, KeyHasher::Algo::kSha1, 7);
  EXPECT_EQ(a.hash_key(Key(123, 24)), b.hash_key(Key(123, 24)));
  EXPECT_EQ(a.hash_token(55), b.hash_token(55));
}

TEST(KeyHasher, SaltChangesPlacement) {
  const KeyHasher a(32, KeyHasher::Algo::kMix64, 1);
  const KeyHasher b(32, KeyHasher::Algo::kMix64, 2);
  int same = 0;
  for (std::uint64_t v = 0; v < 100; ++v) {
    same += (a.hash_key(Key(v, 24)) == b.hash_key(Key(v, 24)));
  }
  EXPECT_LT(same, 3);
}

TEST(KeyHasher, WidthMatters) {
  const KeyHasher h(32, KeyHasher::Algo::kMix64);
  // "0101" as a 4-bit key differs from "0101" zero-extended in 8 bits.
  EXPECT_NE(h.hash_key(Key(0b0101, 4)), h.hash_key(Key(0b01010000, 8)));
}

TEST(KeyHasher, BothAlgosSpreadUniformly) {
  for (const auto algo : {KeyHasher::Algo::kSha1, KeyHasher::Algo::kMix64}) {
    const KeyHasher h(16, algo);
    std::array<int, 16> buckets{};
    const int n = 16000;
    for (int v = 0; v < n; ++v) {
      buckets[h.hash_key(Key(std::uint64_t(v), 24)).value >> 12]++;
    }
    for (const int c : buckets) {
      EXPECT_NEAR(c, n / 16, 150) << (algo == KeyHasher::Algo::kSha1);
    }
  }
}

// Ring placement must never drift silently: these positions were
// recorded from the byte-at-a-time SHA-1 path, before hash64 learned
// to compress a key in one block. A changed value moves groups (and
// replica sets) between servers.
TEST(KeyHasher, PinnedPositions) {
  struct Pin {
    std::uint64_t value;
    unsigned width;
    std::uint64_t sha1_64;     // 64-bit space, salt 0
    std::uint64_t sha1_32_s7;  // 32-bit space, salt 7
    std::uint64_t mix64_64;    // 64-bit space, salt 0
  };
  const Pin pins[] = {
      {0x0, 1, 0xb7fc9906104e870eULL, 0x5552f7edULL, 0xc2b1be2928f5384aULL},
      {0x0, 24, 0x9cfd938a7a881420ULL, 0x84f15259ULL, 0xdc5c6763d1857abdULL},
      {0x600000, 24, 0x705d7157b2ea78a1ULL, 0x48d899acULL,
       0xf320db17df769a7aULL},
      {0xabcdef, 24, 0x392b61ad33247b22ULL, 0xafdfa54fULL,
       0xe74d76dbd2381176ULL},
      {0x280, 10, 0xd5edf62017bdfbbdULL, 0x518aabb0ULL, 0x979b8c307efa17e4ULL},
      {0x3f, 6, 0x96c2ace442cddeb3ULL, 0x95205488ULL, 0x4bc050d1e88d44c5ULL},
  };
  const KeyHasher sha(64, KeyHasher::Algo::kSha1);
  const KeyHasher sha32(32, KeyHasher::Algo::kSha1, 7);
  const KeyHasher mix(64, KeyHasher::Algo::kMix64);
  for (const Pin& p : pins) {
    const Key k(p.value, p.width);
    EXPECT_EQ(sha.hash_key(k).value, p.sha1_64) << k.to_string();
    EXPECT_EQ(sha32.hash_key(k).value, p.sha1_32_s7) << k.to_string();
    EXPECT_EQ(mix.hash_key(k).value, p.mix64_64) << k.to_string();
  }
  EXPECT_EQ(sha.hash_token(3).value, 0xc6dc5ef17ee62185ULL);
}

TEST(RingMath, OpenInterval) {
  const std::uint64_t mask = 0xFF;
  EXPECT_TRUE(ring_in_open(5, 2, 10, mask));
  EXPECT_FALSE(ring_in_open(2, 2, 10, mask));
  EXPECT_FALSE(ring_in_open(10, 2, 10, mask));
  // Wrapping interval (250, 5).
  EXPECT_TRUE(ring_in_open(252, 250, 5, mask));
  EXPECT_TRUE(ring_in_open(3, 250, 5, mask));
  EXPECT_FALSE(ring_in_open(100, 250, 5, mask));
  // Full circle (a == b): everything except the endpoint.
  EXPECT_TRUE(ring_in_open(1, 7, 7, mask));
  EXPECT_FALSE(ring_in_open(7, 7, 7, mask));
}

TEST(RingMath, HalfOpenInterval) {
  const std::uint64_t mask = 0xFF;
  EXPECT_TRUE(ring_in_half_open(10, 2, 10, mask));
  EXPECT_FALSE(ring_in_half_open(2, 2, 10, mask));
  EXPECT_TRUE(ring_in_half_open(5, 250, 5, mask));
}

TEST(RingMath, Distance) {
  const std::uint64_t mask = 0xFF;
  EXPECT_EQ(ring_distance(10, 20, mask), 10u);
  EXPECT_EQ(ring_distance(250, 5, mask), 11u);
  EXPECT_EQ(ring_distance(7, 7, mask), 0u);
}

}  // namespace
}  // namespace clash::dht
