#include "common/sha1.hpp"

#include <cstring>

namespace clash {
namespace {

constexpr std::uint32_t rotl32(std::uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

constexpr std::uint32_t kInitialHash[5] = {0x67452301u, 0xEFCDAB89u,
                                           0x98BADCFEu, 0x10325476u,
                                           0xC3D2E1F0u};

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
  std::uint32_t w[80];
  for (int i = 0; i < 16; ++i) w[i] = block[i];
  for (int i = 16; i < 80; ++i) {
    w[i] = rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }

  std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
  // One loop per round function: no per-round branch on i.
  const auto round = [&](std::uint32_t f, std::uint32_t k, std::uint32_t wi) {
    const std::uint32_t tmp = rotl32(a, 5) + f + e + k + wi;
    e = d;
    d = c;
    c = rotl32(b, 30);
    b = a;
    a = tmp;
  };
  for (int i = 0; i < 20; ++i) round((b & c) | (~b & d), 0x5A827999u, w[i]);
  for (int i = 20; i < 40; ++i) round(b ^ c ^ d, 0x6ED9EBA1u, w[i]);
  for (int i = 40; i < 60; ++i) {
    round((b & c) | (b & d) | (c & d), 0x8F1BBCDCu, w[i]);
  }
  for (int i = 60; i < 80; ++i) round(b ^ c ^ d, 0xCA62C1D6u, w[i]);
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
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
