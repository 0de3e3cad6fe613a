// storage::Wal: the per-node write-ahead log. Every mutation a server
// applies to a group it owns becomes one framed record:
//
//   [u32 payload_len][u32 crc32(payload)][payload]
//
// appended to the current segment file ("wal/<index>.seg"). Records
// are staged in memory and reach the segment together at write() (the
// store calls it once per dispatch tick), in one write per segment. The
// record layout is the WalRecord field list in wal.cpp, built from the
// wire codec's lists for group, head and log op (wire/fields.hpp). Segments
// roll over at a configurable size so truncation can reclaim disk in
// whole files: a closed segment is deletable once every group that
// wrote into it has a snapshot at or past its last record there (the
// snapshot floor). Recovery scans the segments in index order,
// rejecting CRC-corrupt records and stopping cleanly at a torn tail —
// the WAL invariant is "a prefix of what was appended", never garbage.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "keys/key_group.hpp"
#include "repl/log.hpp"
#include "repl/op.hpp"
#include "storage/backend.hpp"
#include "wire/buffer.hpp"

namespace clash::storage {

/// What one WAL record describes.
enum class RecordKind : std::uint8_t {
  /// One LogOp applied to `group` at `head` (head.seq is the op's seq).
  kOp = 1,
  /// `group` stopped being owned here at epoch `head.epoch` (split away,
  /// reclaimed, handed off): recovery forgets its accumulated state.
  kDrop = 2,
};

struct WalRecord {
  RecordKind kind = RecordKind::kOp;
  KeyGroup group;
  repl::LogHead head;
  repl::LogOp op;  // kOp only
};

/// Encode one record (framing included) ready to append.
[[nodiscard]] std::vector<std::uint8_t> encode_wal_record(const WalRecord& r);

/// Why a segment scan stopped.
enum class ScanEnd : std::uint8_t {
  kClean = 0,     // consumed exactly
  kTornTail = 1,  // trailing partial record (len/crc frame or payload cut)
  kCorrupt = 2,   // CRC mismatch or undecodable payload
};

struct ScanResult {
  ScanEnd end = ScanEnd::kClean;
  std::uint64_t records = 0;      // records delivered to the callback
  std::uint64_t valid_bytes = 0;  // prefix covered by delivered records
};

/// Scan one segment image, invoking `fn` per valid record in order.
/// Stops (without throwing) at the first torn or corrupt frame: a WAL
/// is trustworthy only up to its first damage.
ScanResult scan_wal_segment(std::span<const std::uint8_t> data,
                            const std::function<void(const WalRecord&)>& fn);

class Wal {
 public:
  struct Config {
    std::string dir = "wal";
    /// Roll to a new segment once the current one reaches this size.
    std::uint64_t segment_bytes = 1u << 20;
  };

  /// What one append or write did; the owning NodeStore counts it.
  struct AppendResult {
    /// Framed bytes of the record staged (0 when it was not).
    std::uint64_t bytes = 0;
    /// Writes handed to a segment (the staged records go in one).
    unsigned writes = 0;
    /// A new segment was opened.
    bool rolled = false;
    /// Failed appends/fsyncs/segment opens (dying disk). The writer
    /// keeps going — replication still protects the state — but the
    /// durability guarantee is void while these occur.
    unsigned io_errors = 0;
    explicit operator bool() const { return io_errors == 0; }
  };

  enum class SyncResult : std::uint8_t {
    kIdle,    // no segment open: nothing to sync
    kSynced,
    kFailed,  // an I/O error
  };

  /// `next_index` is the first segment index to write (recovery passes
  /// one past the highest existing segment so a possibly-torn tail
  /// file is never appended to).
  Wal(Backend& backend, Config cfg, std::uint64_t next_index);

  /// Register a pre-crash segment (recovered tails) as closed, so
  /// truncation can reclaim it once snapshots cover it. Call in index
  /// order, before the first append.
  void adopt_closed_segment(std::uint64_t index,
                            std::map<KeyGroup, repl::LogHead> tails) {
    closed_.push_back(ClosedSegment{index, std::move(tails)});
  }

  /// Append one op record; the result is false on backend I/O failure.
  AppendResult append_op(const KeyGroup& group, repl::LogHead head,
                         const repl::LogOp& op);
  /// Append a drop record for `group` at `epoch`.
  AppendResult append_drop(const KeyGroup& group, std::uint64_t epoch);

  /// Hand the staged records to the segment in one write. Appending
  /// only stages a record: it reaches the segment here, or when the
  /// append after a full segment rolls it (one write per segment when
  /// the staged records fill one).
  AppendResult write();

  /// fsync the current segment (kIdle when nothing is open). Staged
  /// records are not covered: write() them first.
  SyncResult sync();

  /// Delete every closed segment whose records are all covered:
  /// `covered(group, tail)` must return true when the durable snapshot
  /// state supersedes `group`'s last record at `tail` in that segment.
  /// Deletion is prefix-only (oldest first) so the surviving WAL stays
  /// contiguous. Returns segments deleted.
  std::size_t truncate_covered(
      const std::function<bool(const KeyGroup&, repl::LogHead)>& covered);

  [[nodiscard]] std::uint64_t open_segment_index() const { return index_; }

  [[nodiscard]] static std::string segment_path(const std::string& dir,
                                                std::uint64_t index);

 private:
  AppendResult append_record(const WalRecord& rec);
  void write_staged(AppendResult& out);
  /// Close the open segment (staged records written and fsynced first)
  /// and open the next one.
  void roll_segment(AppendResult& out);

  struct ClosedSegment {
    std::uint64_t index = 0;
    /// Last head each group wrote in this segment (drop records appear
    /// as {epoch, max} so only a later-epoch snapshot covers them).
    std::map<KeyGroup, repl::LogHead> tails;
  };

  Backend& backend_;
  Config cfg_;
  std::uint64_t index_;
  std::unique_ptr<AppendFile> segment_;
  /// Framed records not yet handed to the open segment.
  wire::Writer staged_;
  std::map<KeyGroup, repl::LogHead> open_tails_;
  std::deque<ClosedSegment> closed_;
};

}  // namespace clash::storage
