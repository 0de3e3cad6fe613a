// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320): the integrity
// check framing every durable-storage record and snapshot file. Lives
// in common/ so the wire layer and any future on-disk format share one
// implementation. Table-driven slice-by-8: eight table lookups fold
// eight bytes per step (portable C++, no SSE or CLMUL dependency), and
// every value equals the classic byte-at-a-time loop's, so WAL records,
// snapshot files and message content fences are unchanged.
#pragma once

#include <cstdint>
#include <span>

namespace clash {

/// CRC32 of `data` continuing from `seed` (pass the previous return
/// value to checksum discontiguous buffers as one stream).
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data,
                                  std::uint32_t seed = 0);

/// Incremental accumulator for record framing: feed the pieces, read
/// value() once at the end.
class Crc32 {
 public:
  void update(std::span<const std::uint8_t> data) {
    crc_ = crc32(data, crc_);
  }
  [[nodiscard]] std::uint32_t value() const { return crc_; }

 private:
  std::uint32_t crc_ = 0;
};

}  // namespace clash
