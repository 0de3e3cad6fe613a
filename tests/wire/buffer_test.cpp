#include "wire/buffer.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace clash::wire {
namespace {

TEST(Buffer, RoundTripsScalars) {
  Writer w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f64(3.14159);
  w.boolean(true);
  w.str("hello");

  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(Buffer, ReaderLatchesOutOfBounds) {
  Writer w;
  w.u16(7);
  Reader r(w.data());
  (void)r.u32();  // needs 4 bytes, only 2 present
  EXPECT_FALSE(r.ok());
  // All subsequent reads stay failed and return zero.
  EXPECT_EQ(r.u8(), 0);
  EXPECT_FALSE(r.ok());
}

TEST(Buffer, StringBoundsChecked) {
  Writer w;
  w.u32(1000);  // claims 1000 bytes, none follow
  Reader r(w.data());
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Buffer, ExplicitFail) {
  Writer w;
  w.u8(1);
  Reader r(w.data());
  r.fail();
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.exhausted());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Buffer, NegativeAndSpecialDoubles) {
  Writer w;
  w.f64(-0.0);
  w.f64(1e300);
  w.f64(-1e-300);
  Reader r(w.data());
  EXPECT_DOUBLE_EQ(r.f64(), -0.0);
  EXPECT_DOUBLE_EQ(r.f64(), 1e300);
  EXPECT_DOUBLE_EQ(r.f64(), -1e-300);
}

TEST(Buffer, EmptyString) {
  Writer w;
  w.str("");
  Reader r(w.data());
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(Buffer, ScalarBytesArePinnedLittleEndian) {
  // The wire format: fixed-width little-endian integers, doubles as
  // their IEEE-754 bit pattern, on any host.
  Writer w;
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-2.5);  // 0xC004000000000000
  const std::vector<std::uint8_t> want = {
      0x34, 0x12,                                      // u16
      0xEF, 0xBE, 0xAD, 0xDE,                          // u32
      0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,  // u64
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0xC0,  // f64
  };
  EXPECT_EQ(w.data(), want);
  EXPECT_EQ(load_u32_le(want.data() + 2), 0xDEADBEEFu);
  std::uint8_t slot[4];
  store_u32_le(slot, 0xDEADBEEF);
  EXPECT_TRUE(std::equal(slot, slot + 4, want.begin() + 2));
}

TEST(Buffer, TruncatedReaderLatchesAtEveryWidth) {
  // A scalar one or more bytes short fails as a whole: zero, never the
  // bytes that were there, and every later read fails too.
  const std::vector<std::uint8_t> ones(8, 0xFF);
  for (std::size_t width : {1u, 2u, 4u, 8u}) {
    for (std::size_t have = 0; have < width; ++have) {
      SCOPED_TRACE(testing::Message() << "width " << width << " have " << have);
      Reader r(std::span<const std::uint8_t>(ones.data(), have));
      std::uint64_t got = 1;
      switch (width) {
        case 1: got = r.u8(); break;
        case 2: got = r.u16(); break;
        case 4: got = r.u32(); break;
        default: got = r.u64(); break;
      }
      EXPECT_EQ(got, 0u);
      EXPECT_FALSE(r.ok());
      EXPECT_EQ(r.remaining(), 0u);
      EXPECT_EQ(r.u8(), 0u);
      EXPECT_EQ(r.f64(), 0.0);
      EXPECT_FALSE(r.ok());
      EXPECT_FALSE(r.exhausted());
    }
  }
}

}  // namespace
}  // namespace clash::wire
