// Endian-safe binary read/write primitives for the wire protocol.
// Integers are little-endian fixed width; doubles are IEEE-754 bit
// patterns. The Reader is bounds-checked and latches an error state
// instead of throwing, so malformed peer input can never crash a node.
// Every codec field goes through these scalars, so they are inline and
// move a whole word per call: one bounds check and one copy, with a
// byte swap only on a big-endian host.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bits.hpp"

namespace clash::wire {

// Raw little-endian stores/loads shared by the codec and the TCP
// framing layer (the u32 length prefix), so framing bytes match the
// codec on any host endianness.
inline void store_u32_le(std::uint8_t* p, std::uint32_t v) {
  bits::store_le(p, v);
}

[[nodiscard]] inline std::uint32_t load_u32_le(const std::uint8_t* p) {
  return bits::load_le<std::uint32_t>(p);
}

/// Append-only encoder over a pooled backing buffer. The default
/// constructor recycles an allocation from the thread's BufferPool and
/// the destructor returns it, so encoding a message allocates nothing
/// in steady state; take() transfers the buffer out (the transport
/// releases it after the flush).
class Writer {
 public:
  Writer();
  ~Writer();

  Writer(Writer&&) noexcept = default;
  Writer& operator=(Writer&&) noexcept = default;
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void reserve(std::size_t n) { buf_.reserve(n); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void bytes(std::span<const std::uint8_t> data);
  /// Length-prefixed (u32) string.
  void str(std::string_view s);

  /// Overwrite 4 already-written bytes at `offset` (little-endian) —
  /// fills in length slots reserved before the value was known.
  void patch_u32(std::size_t offset, std::uint32_t v);

  /// Drop the bytes written so far, keeping the allocation.
  void clear() { buf_.clear(); }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <class T>
  void put(T v) {
    std::uint8_t bytes[sizeof v];
    bits::store_le(bytes, v);
    buf_.insert(buf_.end(), bytes, bytes + sizeof v);
  }

  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(u64()); }
  /// 0 or 1; any other byte fails the read, so a boolean has one
  /// encoding.
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) fail();
    return v == 1;
  }
  /// Length-prefixed (u32) string; empty on error.
  std::string str();
  /// The next `n` bytes, viewed in place; empty on error.
  std::span<const std::uint8_t> bytes(std::size_t n) {
    if (!take(n)) return {};
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// True while all reads so far were in bounds.
  [[nodiscard]] bool ok() const { return ok_; }
  /// Latch the error state (semantic validation failed upstream).
  /// The cursor jumps to the end, so every later read fails its
  /// bounds check without testing the flag.
  void fail() {
    ok_ = false;
    pos_ = data_.size();
  }
  /// True when the payload was consumed exactly.
  [[nodiscard]] bool exhausted() const { return ok_ && pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  /// The bytes not yet read.
  [[nodiscard]] std::span<const std::uint8_t> unread() const {
    return data_.subspan(pos_);
  }

 private:
  /// True when `n` more bytes are in bounds; latches failure otherwise.
  [[nodiscard]] bool take(std::size_t n) {
    if (data_.size() - pos_ >= n) return true;
    fail();
    return false;
  }

  template <class T>
  T get() {
    if (!take(sizeof(T))) return 0;
    const T v = bits::load_le<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace clash::wire
