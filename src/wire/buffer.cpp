#include "wire/buffer.hpp"

#include <cassert>

#include "wire/buffer_pool.hpp"

namespace clash::wire {

Writer::Writer() : buf_(BufferPool::local().acquire()) {}

Writer::~Writer() { BufferPool::local().release(std::move(buf_)); }

void Writer::bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void Writer::str(std::string_view s) {
  u32(std::uint32_t(s.size()));
  bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

void Writer::patch_u32(std::size_t offset, std::uint32_t v) {
  assert(offset + 4 <= buf_.size());
  store_u32_le(buf_.data() + offset, v);
}

std::string Reader::str() {
  const auto len = u32();
  if (!take(len)) return {};
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return out;
}

}  // namespace clash::wire
