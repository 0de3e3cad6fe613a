// Self-contained SHA-1 (FIPS 180-1), used as the DHT's base hash f().
// Chord historically hashes identifiers with SHA-1. Not for security use.
//
// The compression function has two implementations with identical
// output. On an x86 CPU whose cpuid reports the SHA extensions (leaf 7
// EBX bit 29) and SSE4.1 (leaf 1 ECX bit 19), it runs on sha1rnds4 /
// sha1nexte / sha1msg1 / sha1msg2; that code is compiled for those
// instructions function by function, so the binary still runs on CPUs
// without them. Everywhere else (and on other architectures, which
// compile only this path) it runs the portable compress_portable. The
// CPU alone decides, once per process; nothing configures it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace clash {

class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha1();

  void update(std::span<const std::uint8_t> data);
  void update(std::string_view data);

  /// Finalises and returns the digest. The object must not be reused
  /// afterwards without calling reset().
  Digest finish();

  void reset();

  /// One-shot convenience.
  static Digest hash(std::span<const std::uint8_t> data);
  static Digest hash(std::string_view data);

  /// First 8 bytes of the digest as a big-endian uint64 — the form the
  /// DHT layer consumes before truncating to its hash-space width.
  static std::uint64_t hash64(std::span<const std::uint8_t> data);
  /// hash64 of the value's 8 big-endian bytes, compressed as the one
  /// padded block they fill (the DHT hashes every key this way).
  static std::uint64_t hash64(std::uint64_t value);

  static std::string hex(const Digest& d);

  /// The portable SHA-1 compression function: fold one block of 16
  /// big-endian words into the chaining value `h`. The reference the
  /// tests hold the dispatched path to.
  static void compress_portable(std::uint32_t h[5],
                                const std::uint32_t block[16]);
  /// Which compression this process runs: "x86 SHA extensions" or
  /// "portable".
  static const char* compress_path();

 private:
  void process_block(const std::uint8_t* block);
  /// The compression this CPU runs (see the header comment).
  static void compress(std::uint32_t h[5], const std::uint32_t block[16]);

  std::uint32_t h_[5];
  std::uint64_t total_bytes_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
};

}  // namespace clash
