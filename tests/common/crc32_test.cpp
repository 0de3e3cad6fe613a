#include "common/crc32.hpp"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace clash {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

TEST(Crc32, KnownVectors) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
  EXPECT_EQ(crc32(bytes_of("a")), 0xE8B7BE43u);
}

TEST(Crc32, SeedChainsSplitBuffers) {
  const auto whole = bytes_of("hello, durable world");
  const auto full = crc32(whole);
  const std::span<const std::uint8_t> span(whole);
  const auto chained = crc32(span.subspan(7), crc32(span.first(7)));
  EXPECT_EQ(chained, full);

  Crc32 acc;
  acc.update(span.first(3));
  acc.update(span.subspan(3, 9));
  acc.update(span.subspan(12));
  EXPECT_EQ(acc.value(), full);
}

/// The definition, byte by byte with no table (each byte folded in one
/// bit at a time): what every table-driven variant must reproduce
/// exactly, or WAL records, snapshot files and content fences written
/// before it would no longer verify.
std::uint32_t crc32_reference(std::span<const std::uint8_t> data,
                              std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (const std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return ~c;
}

TEST(Crc32, SliceBy8MatchesBytewiseReference) {
  Rng rng(2004);
  std::vector<std::uint8_t> buf(64 + 8);
  for (int round = 0; round < 8; ++round) {
    for (auto& b : buf) b = std::uint8_t(rng.next());
    const std::span<const std::uint8_t> all(buf);
    // Every length 0-64 at every alignment 0-7: the 8-byte body, the
    // tail, and their seam.
    for (std::size_t off = 0; off < 8; ++off) {
      for (std::size_t len = 0; len <= 64; ++len) {
        const auto piece = all.subspan(off, len);
        ASSERT_EQ(crc32(piece), crc32_reference(piece))
            << "offset " << off << " length " << len;
        // Chained: any seed, and a split anywhere, continue the stream.
        const auto seed = std::uint32_t(rng.next());
        ASSERT_EQ(crc32(piece, seed), crc32_reference(piece, seed));
        const std::size_t cut = rng.below(len + 1);
        ASSERT_EQ(crc32(piece.subspan(cut), crc32(piece.first(cut))),
                  crc32_reference(piece));
      }
    }
  }
  std::vector<std::uint8_t> big(4099);
  for (auto& b : big) b = std::uint8_t(rng.next());
  EXPECT_EQ(crc32(big), crc32_reference(big));
}

TEST(Crc32, DetectsSingleBitFlip) {
  auto data = bytes_of("the record payload");
  const auto clean = crc32(data);
  data[5] ^= 0x10;
  EXPECT_NE(crc32(data), clean);
}

}  // namespace
}  // namespace clash
