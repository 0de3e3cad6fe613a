#include "storage/wal.hpp"

#include <cstdio>
#include <limits>

#include "common/crc32.hpp"
#include "common/logging.hpp"
#include "wire/buffer.hpp"
#include "wire/fields.hpp"

namespace clash::storage {

namespace {

constexpr std::size_t kFrameHeader = 8;  // u32 len + u32 crc

/// [kind u8][group][head] and, for an op record, [log op].
template <class IO>
void fields(IO& io, wire::Is<WalRecord> auto& rec) {
  io.enumeration(rec.kind, RecordKind::kOp, RecordKind::kDrop);
  fields(io, rec.group);
  fields(io, rec.head);
  if (rec.kind == RecordKind::kOp) fields(io, rec.op);
}

/// Append `r` to `w`, framed.
void frame_record(wire::Writer& w, const WalRecord& r) {
  const std::size_t start = w.size();
  w.u32(0);  // payload length and CRC, patched below
  w.u32(0);
  wire::Encoder io{w};
  fields(io, r);
  const auto payload = std::span(w.data()).subspan(start + kFrameHeader);
  w.patch_u32(start, std::uint32_t(payload.size()));
  w.patch_u32(start + 4, crc32(payload));
}

}  // namespace

std::vector<std::uint8_t> encode_wal_record(const WalRecord& r) {
  wire::Writer w;
  frame_record(w, r);
  return w.take();
}

ScanResult scan_wal_segment(
    std::span<const std::uint8_t> data,
    const std::function<void(const WalRecord&)>& fn) {
  ScanResult result;
  std::size_t pos = 0;
  while (pos < data.size()) {
    if (data.size() - pos < kFrameHeader) {
      result.end = ScanEnd::kTornTail;
      return result;
    }
    const std::uint32_t len = wire::load_u32_le(data.data() + pos);
    const std::uint32_t want_crc = wire::load_u32_le(data.data() + pos + 4);
    if (data.size() - pos - kFrameHeader < len) {
      result.end = ScanEnd::kTornTail;
      return result;
    }
    const auto payload = data.subspan(pos + kFrameHeader, len);
    if (crc32(payload) != want_crc) {
      result.end = ScanEnd::kCorrupt;
      return result;
    }
    WalRecord rec;
    wire::Reader r(payload);
    wire::Decoder io{r};
    fields(io, rec);
    if (!r.exhausted()) {
      result.end = ScanEnd::kCorrupt;
      return result;
    }
    fn(rec);
    pos += kFrameHeader + len;
    ++result.records;
    result.valid_bytes = pos;
  }
  return result;
}

std::string Wal::segment_path(const std::string& dir, std::uint64_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "%08llu.seg",
                (unsigned long long)index);
  return dir + "/" + name;
}

Wal::Wal(Backend& backend, Config cfg, std::uint64_t next_index)
    : backend_(backend), cfg_(std::move(cfg)), index_(next_index) {}

Wal::AppendResult Wal::append_op(const KeyGroup& group, repl::LogHead head,
                                 const repl::LogOp& op) {
  WalRecord rec;
  rec.kind = RecordKind::kOp;
  rec.group = group;
  rec.head = head;
  rec.op = op;
  return append_record(rec);
}

Wal::AppendResult Wal::append_drop(const KeyGroup& group,
                                   std::uint64_t epoch) {
  WalRecord rec;
  rec.kind = RecordKind::kDrop;
  rec.group = group;
  // A drop supersedes every seq of its epoch: only a snapshot from a
  // strictly newer epoch (a re-activation) covers it.
  rec.head = repl::LogHead{epoch,
                           std::numeric_limits<std::uint64_t>::max()};
  return append_record(rec);
}

Wal::AppendResult Wal::append_record(const WalRecord& rec) {
  AppendResult out;
  // A full segment rolls before the next record, not after the one that
  // filled it, so staging a record never writes it.
  if (segment_ == nullptr ||
      segment_->size() + staged_.size() >= cfg_.segment_bytes) {
    roll_segment(out);
    if (segment_ == nullptr) return out;
  }
  const std::size_t before = staged_.size();
  frame_record(staged_, rec);
  out.bytes = staged_.size() - before;
  auto [it, inserted] = open_tails_.try_emplace(rec.group, rec.head);
  if (!inserted && it->second < rec.head) it->second = rec.head;
  return out;
}

Wal::AppendResult Wal::write() {
  AppendResult out;
  write_staged(out);
  return out;
}

void Wal::write_staged(AppendResult& out) {
  if (staged_.size() == 0 || segment_ == nullptr) return;
  ++out.writes;
  if (!segment_->append(staged_.data())) {
    out.io_errors++;
    CLASH_ERROR << "wal append failed on segment " << index_
                << " (durability void until the disk recovers)";
  }
  staged_.clear();
}

void Wal::roll_segment(AppendResult& out) {
  if (segment_ != nullptr) {
    // A segment must be durable before the writer moves past it, or a
    // crash could lose a middle segment while keeping a later one.
    write_staged(out);
    if (!segment_->sync()) {
      out.io_errors++;
      CLASH_ERROR << "wal fsync failed closing segment " << index_;
    }
    closed_.push_back(ClosedSegment{index_, std::move(open_tails_)});
    open_tails_.clear();
    ++index_;
  }
  segment_ = backend_.open_append(segment_path(cfg_.dir, index_));
  if (segment_ == nullptr) {
    out.io_errors++;
    return;
  }
  out.rolled = true;
}

Wal::SyncResult Wal::sync() {
  if (segment_ == nullptr) return SyncResult::kIdle;
  if (!segment_->sync()) {
    CLASH_ERROR << "wal fsync failed on segment " << index_
                << " (fsync policy guarantee void)";
    return SyncResult::kFailed;
  }
  return SyncResult::kSynced;
}

std::size_t Wal::truncate_covered(
    const std::function<bool(const KeyGroup&, repl::LogHead)>& covered) {
  std::size_t deleted = 0;
  while (!closed_.empty()) {
    const ClosedSegment& seg = closed_.front();
    bool all_covered = true;
    for (const auto& [group, tail] : seg.tails) {
      if (!covered(group, tail)) {
        all_covered = false;
        break;
      }
    }
    if (!all_covered) break;
    backend_.remove_file(segment_path(cfg_.dir, seg.index));
    closed_.pop_front();
    ++deleted;
  }
  return deleted;
}

}  // namespace clash::storage
