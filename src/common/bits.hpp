// Bit-manipulation helpers used by the key machinery and Chord, and the
// little-endian loads/stores shared by the wire codec and CRC32.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace clash::bits {

/// Mask with the low `n` bits set. `n` must be <= 64.
[[nodiscard]] constexpr std::uint64_t low_mask(unsigned n) {
  assert(n <= 64);
  return n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
}

/// Extract bits [hi, lo] (inclusive, 0 = LSB) of `v`.
[[nodiscard]] constexpr std::uint64_t field(std::uint64_t v, unsigned hi,
                                            unsigned lo) {
  assert(hi >= lo && hi < 64);
  return (v >> lo) & low_mask(hi - lo + 1);
}

/// Number of bits needed to represent `v` (0 -> 0).
[[nodiscard]] constexpr unsigned width(std::uint64_t v) {
  return static_cast<unsigned>(std::bit_width(v));
}

/// Ceil(log2(v)) for v >= 1.
[[nodiscard]] constexpr unsigned ceil_log2(std::uint64_t v) {
  assert(v >= 1);
  return v == 1 ? 0 : static_cast<unsigned>(std::bit_width(v - 1));
}

/// Reverse the low `n` bits of `v` (bit 0 swaps with bit n-1).
[[nodiscard]] constexpr std::uint64_t reverse(std::uint64_t v, unsigned n) {
  std::uint64_t r = 0;
  for (unsigned i = 0; i < n; ++i) {
    r = (r << 1) | ((v >> i) & 1U);
  }
  return r;
}

/// Interleave the low `n` bits of `a` and `b` (a's bits take even
/// positions counting from the MSB pair). Used by the quad-tree encoder:
/// result has 2n bits, MSB-first pairs (a_{n-1}, b_{n-1}), ...
[[nodiscard]] constexpr std::uint64_t interleave(std::uint64_t a,
                                                 std::uint64_t b, unsigned n) {
  assert(n <= 32);
  std::uint64_t r = 0;
  for (unsigned i = n; i-- > 0;) {
    r = (r << 2) | (((a >> i) & 1U) << 1) | ((b >> i) & 1U);
  }
  return r;
}

/// `v` in little-endian byte order (the identity on little-endian
/// hosts; the loop compiles to one bswap elsewhere).
template <class T>
[[nodiscard]] constexpr T to_little_endian(T v) {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    return v;
  } else {
    T out = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out = T(out << 8) | T(v & 0xFF);
      v = T(v >> 8);
    }
    return out;
  }
}

/// Store `v` at `p` as sizeof(T) little-endian bytes (any alignment).
template <class T>
inline void store_le(std::uint8_t* p, T v) {
  const T le = to_little_endian(v);
  std::memcpy(p, &le, sizeof le);
}

/// Load sizeof(T) little-endian bytes from `p` (any alignment).
template <class T>
[[nodiscard]] inline T load_le(const std::uint8_t* p) {
  T le;
  std::memcpy(&le, p, sizeof le);
  return to_little_endian(le);  // a byte swap is its own inverse
}

}  // namespace clash::bits
