#include "common/sha1.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace clash {
namespace {

// FIPS 180-1 reference vectors.
TEST(Sha1, EmptyString) {
  EXPECT_EQ(Sha1::hex(Sha1::hash("")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(Sha1::hex(Sha1::hash("abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(Sha1::hex(Sha1::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 s;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) s.update(chunk);
  EXPECT_EQ(Sha1::hex(s.finish()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  Sha1 s;
  s.update("hello ");
  s.update("world");
  EXPECT_EQ(Sha1::hex(s.finish()), Sha1::hex(Sha1::hash("hello world")));
}

TEST(Sha1, ResetAllowsReuse) {
  Sha1 s;
  s.update("garbage");
  (void)s.finish();
  s.reset();
  s.update("abc");
  EXPECT_EQ(Sha1::hex(s.finish()),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, Hash64IsPrefixOfDigest) {
  const auto d = Sha1::hash("abc");
  std::uint64_t expect = 0;
  for (int i = 0; i < 8; ++i) expect = (expect << 8) | d[std::size_t(i)];
  const std::uint8_t bytes[] = {'a', 'b', 'c'};
  EXPECT_EQ(Sha1::hash64(std::span<const std::uint8_t>(bytes, 3)), expect);
}

TEST(Sha1, Hash64DiffersAcrossInputs) {
  EXPECT_NE(Sha1::hash64(std::uint64_t{1}), Sha1::hash64(std::uint64_t{2}));
}

// hash64(uint64_t) compresses one hand-padded block; the generic
// update/finish path over the value's 8 big-endian bytes is its
// reference.
TEST(Sha1, Hash64OfWordMatchesGenericPath) {
  const auto generic = [](std::uint64_t v) {
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = std::uint8_t(v >> (56 - 8 * i));
    return Sha1::hash64(std::span<const std::uint8_t>(bytes, 8));
  };
  EXPECT_EQ(Sha1::hash64(std::uint64_t{0}), generic(0));
  EXPECT_EQ(Sha1::hash64(std::uint64_t{0}), 0x05fe405753166f12ULL);
  EXPECT_EQ(Sha1::hash64(~std::uint64_t{0}), generic(~std::uint64_t{0}));
  Rng rng(22);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t v = rng.next();
    ASSERT_EQ(Sha1::hash64(v), generic(v)) << std::hex << v;
  }
}

TEST(Sha1, BoundaryLengths) {
  // Exercise the padding edge cases around the 64-byte block boundary.
  for (const std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u}) {
    const std::string msg(len, 'x');
    Sha1 a;
    a.update(msg);
    Sha1 b;
    for (const char c : msg) b.update(std::string_view(&c, 1));
    EXPECT_EQ(Sha1::hex(a.finish()), Sha1::hex(b.finish())) << len;
  }
}

// The dispatched compression (the SHA extensions where the CPU has
// them) against the portable reference, which runs on every host.
constexpr std::uint32_t kInit[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                                    0x10325476u, 0xC3D2E1F0u};

/// SHA-1 of `msg` padded by hand and folded with compress_portable.
Sha1::Digest portable_digest(const std::vector<std::uint8_t>& msg) {
  std::vector<std::uint8_t> padded = msg;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = std::uint64_t(msg.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    padded.push_back(std::uint8_t(bits >> (56 - 8 * i)));
  }
  std::uint32_t h[5];
  std::memcpy(h, kInit, sizeof h);
  for (std::size_t off = 0; off < padded.size(); off += 64) {
    std::uint32_t w[16];
    for (int i = 0; i < 16; ++i) {
      const std::uint8_t* p = padded.data() + off + 4 * std::size_t(i);
      w[i] = (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
             (std::uint32_t(p[2]) << 8) | std::uint32_t(p[3]);
    }
    Sha1::compress_portable(h, w);
  }
  Sha1::Digest d;
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 4; ++j) {
      d[std::size_t(4 * i + j)] = std::uint8_t(h[i] >> (24 - 8 * j));
    }
  }
  return d;
}

TEST(Sha1, PortableCompressionMatchesFipsVector) {
  const std::string abc = "abc";
  EXPECT_EQ(Sha1::hex(portable_digest({abc.begin(), abc.end()})),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, DispatchedHash64MatchesPortable) {
  std::printf("[ sha1     ] compression path: %s\n", Sha1::compress_path());
  RecordProperty("sha1_compress_path", Sha1::compress_path());
  Rng rng(28);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t v = rng.next();
    std::uint32_t block[16] = {};
    block[0] = std::uint32_t(v >> 32);
    block[1] = std::uint32_t(v);
    block[2] = 0x80000000u;
    block[15] = 64;
    std::uint32_t h[5];
    std::memcpy(h, kInit, sizeof h);
    Sha1::compress_portable(h, block);
    ASSERT_EQ(Sha1::hash64(v), (std::uint64_t(h[0]) << 32) | h[1])
        << std::hex << v;
  }
}

TEST(Sha1, DispatchedHashMatchesPortableOnMultiBlockMessages) {
  // Every length from empty to five blocks, three random messages each.
  Rng rng(2801);
  for (std::size_t len = 0; len <= 300; ++len) {
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<std::uint8_t> msg(len);
      for (auto& b : msg) b = std::uint8_t(rng.next());
      ASSERT_EQ(Sha1::hex(Sha1::hash(msg)), Sha1::hex(portable_digest(msg)))
          << "length " << len;
    }
  }
}

}  // namespace
}  // namespace clash
