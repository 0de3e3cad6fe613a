#include "common/sha1.hpp"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define CLASH_SHA1_X86 1
#endif

namespace clash {
namespace {

constexpr std::uint32_t rotl32(std::uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

constexpr std::uint32_t kInitialHash[5] = {0x67452301u, 0xEFCDAB89u,
                                           0x98BADCFEu, 0x10325476u,
                                           0xC3D2E1F0u};

// The four round functions, in the cheapest form that keeps their
// values: Ch is (b & c) | (~b & d), Maj is (b & c) | (b & d) | (c & d).
struct Ch {
  std::uint32_t operator()(std::uint32_t b, std::uint32_t c,
                           std::uint32_t d) const {
    return d ^ (b & (c ^ d));
  }
};
struct Parity {
  std::uint32_t operator()(std::uint32_t b, std::uint32_t c,
                           std::uint32_t d) const {
    return b ^ c ^ d;
  }
};
struct Maj {
  std::uint32_t operator()(std::uint32_t b, std::uint32_t c,
                           std::uint32_t d) const {
    return (b & c) | (d & (b | c));
  }
};

/// Message word i of the schedule, kept in a 16-word ring: words 0-15
/// are the block itself, and each later word overwrites the one 16
/// places back, the last word that needed it.
inline std::uint32_t schedule(std::uint32_t w[16], int i) {
  if (i < 16) return w[i];
  const std::uint32_t x =
      w[(i + 13) & 15] ^ w[(i + 8) & 15] ^ w[(i + 2) & 15] ^ w[i & 15];
  w[i & 15] = rotl32(x, 1);
  return w[i & 15];
}

/// One round. The caller rotates the arguments by one place per round
/// instead of shifting the five working words along.
template <class F>
inline void step(std::uint32_t a, std::uint32_t& b, std::uint32_t c,
                 std::uint32_t d, std::uint32_t& e, std::uint32_t k,
                 std::uint32_t wi) {
  e += rotl32(a, 5) + F{}(b, c, d) + k + wi;
  b = rotl32(b, 30);
}

/// Rounds [first, first + 20), which share one round function.
template <class F>
inline void twenty_rounds(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d, std::uint32_t& e,
                          std::uint32_t w[16], int first, std::uint32_t k) {
  for (int i = first; i < first + 20; i += 5) {
    step<F>(a, b, c, d, e, k, schedule(w, i));
    step<F>(e, a, b, c, d, k, schedule(w, i + 1));
    step<F>(d, e, a, b, c, k, schedule(w, i + 2));
    step<F>(c, d, e, a, b, k, schedule(w, i + 3));
    step<F>(b, c, d, e, a, k, schedule(w, i + 4));
  }
}

using CompressFn = void (*)(std::uint32_t*, const std::uint32_t*);

#ifdef CLASH_SHA1_X86

// Compiled for the SHA extensions one function at a time, so the rest
// of the binary runs on any x86 CPU.
#define CLASH_SHA_TARGET __attribute__((target("sha,sse4.1")))

/// sha1rnds4 takes its round function as an immediate: 0-3 for rounds
/// 0-19, 20-39, 40-59 and 60-79.
CLASH_SHA_TARGET inline __m128i rounds4(__m128i abcd, __m128i e, int group) {
  switch (group / 5) {
    case 0:
      return _mm_sha1rnds4_epu32(abcd, e, 0);
    case 1:
      return _mm_sha1rnds4_epu32(abcd, e, 1);
    case 2:
      return _mm_sha1rnds4_epu32(abcd, e, 2);
    default:
      return _mm_sha1rnds4_epu32(abcd, e, 3);
  }
}

/// The compression on the x86 SHA extensions: 20 groups of four rounds.
/// Registers hold words most-significant lane first (A, or the group's
/// first message word, in lane 3). Group g's message words sit in
/// m[g % 4]; the three schedule steps refill a register for group
/// g + 4 across groups g + 1 to g + 3.
CLASH_SHA_TARGET void compress_sha_ext(std::uint32_t h[5],
                                       const std::uint32_t block[16]) {
  const __m128i abcd_in = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(h)), 0x1B);
  const __m128i e_in = _mm_set_epi32(int(h[4]), 0, 0, 0);
  __m128i m[4];
  for (std::size_t i = 0; i < 4; ++i) {
    m[i] = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 4 * i)),
        0x1B);
  }
  __m128i abcd = abcd_in;
  __m128i prev = abcd_in;
#pragma GCC unroll 20
  for (int g = 0; g < 20; ++g) {
    // E for this group: the input E, or A from four rounds back rotated
    // by 30; plus the group's message words.
    const __m128i e = g == 0 ? _mm_add_epi32(e_in, m[0])
                             : _mm_sha1nexte_epu32(prev, m[g % 4]);
    prev = abcd;
    abcd = rounds4(abcd, e, g);
    if (g >= 1 && g <= 16) {
      m[(g - 1) % 4] = _mm_sha1msg1_epu32(m[(g - 1) % 4], m[g % 4]);
    }
    if (g >= 2 && g <= 17) {
      m[(g - 2) % 4] = _mm_xor_si128(m[(g - 2) % 4], m[g % 4]);
    }
    if (g >= 3 && g <= 18) {
      m[(g - 3) % 4] = _mm_sha1msg2_epu32(m[(g - 3) % 4], m[g % 4]);
    }
  }
  const __m128i e_out = _mm_sha1nexte_epu32(prev, e_in);
  abcd = _mm_shuffle_epi32(_mm_add_epi32(abcd, abcd_in), 0x1B);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h), abcd);
  h[4] = std::uint32_t(_mm_extract_epi32(e_out, 3));
}

bool cpu_has_sha_ext() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return sse41 && sha;
}

CompressFn pick_compress() {
  return cpu_has_sha_ext() ? compress_sha_ext : Sha1::compress_portable;
}

#else

CompressFn pick_compress() { return Sha1::compress_portable; }

#endif

/// The compression this process runs, chosen from cpuid on first use.
CompressFn selected_compress() {
  static const CompressFn fn = pick_compress();
  return fn;
}

}  // namespace

Sha1::Sha1() { reset(); }

void Sha1::reset() {
  std::memcpy(h_, kInitialHash, sizeof h_);
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha1::process_block(const std::uint8_t* block) {
  std::uint32_t w[16];
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t(block[i * 4]) << 24) |
           (std::uint32_t(block[i * 4 + 1]) << 16) |
           (std::uint32_t(block[i * 4 + 2]) << 8) |
           std::uint32_t(block[i * 4 + 3]);
  }
  compress(h_, w);
}

void Sha1::compress(std::uint32_t h[5], const std::uint32_t block[16]) {
  selected_compress()(h, block);
}

void Sha1::compress_portable(std::uint32_t h[5],
                             const std::uint32_t block[16]) {
  std::uint32_t w[16];
  std::memcpy(w, block, sizeof w);
  std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
  twenty_rounds<Ch>(a, b, c, d, e, w, 0, 0x5A827999u);
  twenty_rounds<Parity>(a, b, c, d, e, w, 20, 0x6ED9EBA1u);
  twenty_rounds<Maj>(a, b, c, d, e, w, 40, 0x8F1BBCDCu);
  twenty_rounds<Parity>(a, b, c, d, e, w, 60, 0xCA62C1D6u);
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
}

const char* Sha1::compress_path() {
  return selected_compress() == compress_portable ? "portable"
                                                  : "x86 SHA extensions";
}

void Sha1::update(std::span<const std::uint8_t> data) {
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == 64) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

void Sha1::update(std::string_view data) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Sha1::Digest Sha1::finish() {
  const std::uint64_t bit_len = total_bytes_ * 8;
  const std::uint8_t pad_start = 0x80;
  update(std::span<const std::uint8_t>(&pad_start, 1));
  const std::uint8_t zero = 0x00;
  while (buffered_ != 56) {
    update(std::span<const std::uint8_t>(&zero, 1));
  }
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = std::uint8_t(bit_len >> (56 - 8 * i));
  }
  update(std::span<const std::uint8_t>(len_bytes, 8));

  Digest d;
  for (int i = 0; i < 5; ++i) {
    d[i * 4] = std::uint8_t(h_[i] >> 24);
    d[i * 4 + 1] = std::uint8_t(h_[i] >> 16);
    d[i * 4 + 2] = std::uint8_t(h_[i] >> 8);
    d[i * 4 + 3] = std::uint8_t(h_[i]);
  }
  return d;
}

Sha1::Digest Sha1::hash(std::span<const std::uint8_t> data) {
  Sha1 s;
  s.update(data);
  return s.finish();
}

Sha1::Digest Sha1::hash(std::string_view data) {
  Sha1 s;
  s.update(data);
  return s.finish();
}

std::uint64_t Sha1::hash64(std::span<const std::uint8_t> data) {
  const Digest d = hash(data);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | d[std::size_t(i)];
  return v;
}

std::uint64_t Sha1::hash64(std::uint64_t value) {
  // An 8-byte message fits one padded block: the value big-endian,
  // the 0x80 terminator, zeros, and the message length (64 bits).
  std::uint32_t block[16] = {};
  block[0] = std::uint32_t(value >> 32);
  block[1] = std::uint32_t(value);
  block[2] = 0x80000000u;
  block[15] = 64;
  std::uint32_t h[5];
  std::memcpy(h, kInitialHash, sizeof h);
  compress(h, block);
  return (std::uint64_t(h[0]) << 32) | h[1];
}

std::string Sha1::hex(const Digest& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(kDigestSize * 2);
  for (const auto b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

}  // namespace clash
