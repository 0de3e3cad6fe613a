// BufferPool recycling, the little-endian framing helpers, and the
// pooled Writer fast path (begin_frame/finish_frame single-encode).
#include "wire/buffer_pool.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "wire/buffer.hpp"
#include "wire/codec.hpp"

namespace clash::wire {
namespace {

TEST(LittleEndian, StoreLoadRoundTrip) {
  std::uint8_t buf[4];
  for (const std::uint32_t v :
       {0u, 1u, 0x12345678u, 0xFFFFFFFFu, 0x80000000u}) {
    store_u32_le(buf, v);
    EXPECT_EQ(load_u32_le(buf), v);
  }
  store_u32_le(buf, 0x0A0B0C0D);
  // Explicit byte order: least-significant byte first.
  EXPECT_EQ(buf[0], 0x0D);
  EXPECT_EQ(buf[1], 0x0C);
  EXPECT_EQ(buf[2], 0x0B);
  EXPECT_EQ(buf[3], 0x0A);
}

TEST(BufferPool, RecyclesCapacity) {
  BufferPool pool;
  auto buf = pool.acquire();
  EXPECT_TRUE(buf.empty());
  buf.resize(1000);
  const auto* data = buf.data();
  pool.release(std::move(buf));
  EXPECT_EQ(pool.pooled(), 1u);

  auto again = pool.acquire();
  EXPECT_TRUE(again.empty());
  EXPECT_GE(again.capacity(), 1000u);
  EXPECT_EQ(again.data(), data);  // same allocation came back
  EXPECT_EQ(pool.reuses(), 1u);
}

TEST(BufferPool, DoesNotRetainOversizedOrEmptyBuffers) {
  BufferPool pool;
  pool.release(std::vector<std::uint8_t>{});  // no capacity: dropped
  EXPECT_EQ(pool.pooled(), 0u);
  std::vector<std::uint8_t> huge;
  huge.reserve(8u << 20);  // above the retention cap: dropped
  pool.release(std::move(huge));
  EXPECT_EQ(pool.pooled(), 0u);
}

TEST(PooledWriter, SteadyStateEncodingReusesOneBuffer) {
  auto& pool = BufferPool::local();
  // Warm up: one encode/release cycle seeds the pool.
  {
    Writer w;
    w.u64(1);
    pool.release(w.take());
  }
  const auto reuses_before = pool.reuses();
  for (int i = 0; i < 10; ++i) {
    Writer w;
    w.u64(std::uint64_t(i));
    w.str("steady state");
    pool.release(w.take());
  }
  EXPECT_GE(pool.reuses(), reuses_before + 10);
}

TEST(FramePath, BeginFinishMatchesLegacyEncoding) {
  const Envelope env{FrameKind::kRequest, 1234, ServerId{77}};

  auto w = begin_frame(env);
  w.str("identical payload");
  const auto frame = finish_frame(std::move(w));

  // Byte-for-byte the frame every version of the transport has sent:
  // LE length prefix, the envelope header, then the payload.
  const std::vector<std::uint8_t> want = {
      0x27, 0x00, 0x00, 0x00,                          // length 39
      0x01,                                            // version
      0x01,                                            // kRequest
      0xD2, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // request id 1234
      0x4D, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // sender 77
      0x11, 0x00, 0x00, 0x00,                          // string length 17
      'i', 'd', 'e', 'n', 't', 'i', 'c', 'a', 'l', ' ',
      'p', 'a', 'y', 'l', 'o', 'a', 'd',
  };
  EXPECT_EQ(frame, want);

  const auto decoded = decode_frame(
      std::span<const std::uint8_t>(frame).subspan(4));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().envelope.kind, FrameKind::kRequest);
  EXPECT_EQ(decoded.value().envelope.request_id, 1234u);
  EXPECT_EQ(decoded.value().envelope.sender.value, 77u);
}

TEST(FramePath, PatchU32OverwritesInPlace) {
  Writer w;
  w.u32(0);
  w.str("body");
  w.patch_u32(0, std::uint32_t(w.size() - 4));
  EXPECT_EQ(load_u32_le(w.data().data()), w.size() - 4);
}

}  // namespace
}  // namespace clash::wire
