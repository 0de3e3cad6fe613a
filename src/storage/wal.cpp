#include "storage/wal.hpp"

#include <cstdio>
#include <limits>

#include "common/crc32.hpp"
#include "common/logging.hpp"
#include "wire/buffer.hpp"
#include "wire/codec.hpp"

namespace clash::storage {

namespace {

constexpr std::size_t kFrameHeader = 8;  // u32 len + u32 crc

void encode_payload(wire::Writer& w, const WalRecord& r) {
  w.u8(std::uint8_t(r.kind));
  wire::encode_group(w, r.group);
  w.u64(r.head.epoch);
  w.u64(r.head.seq);
  if (r.kind == RecordKind::kOp) wire::encode_log_op(w, r.op);
}

bool decode_payload(std::span<const std::uint8_t> payload, WalRecord& out) {
  wire::Reader r(payload);
  const auto kind = r.u8();
  if (kind != std::uint8_t(RecordKind::kOp) &&
      kind != std::uint8_t(RecordKind::kDrop)) {
    return false;
  }
  out.kind = RecordKind(kind);
  out.group = wire::decode_group(r);
  out.head.epoch = r.u64();
  out.head.seq = r.u64();
  if (out.kind == RecordKind::kOp) out.op = wire::decode_log_op(r);
  return r.exhausted();
}

}  // namespace

std::vector<std::uint8_t> encode_wal_record(const WalRecord& r) {
  wire::Writer payload;
  encode_payload(payload, r);
  wire::Writer framed;
  framed.reserve(kFrameHeader + payload.size());
  framed.u32(std::uint32_t(payload.size()));
  framed.u32(crc32(payload.data()));
  framed.bytes(payload.data());
  return framed.take();
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
    if (!decode_payload(payload, rec)) {
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
  if (segment_ == nullptr) {
    roll_segment(out);
    if (segment_ == nullptr) return out;
  }
  const auto frame = encode_wal_record(rec);
  if (!segment_->append(frame)) {
    out.io_errors++;
    CLASH_ERROR << "wal append failed on segment " << index_
                << " (durability void until the disk recovers)";
    return out;
  }
  out.bytes = frame.size();
  auto [it, inserted] = open_tails_.try_emplace(rec.group, rec.head);
  if (!inserted && it->second < rec.head) it->second = rec.head;
  if (segment_->size() >= cfg_.segment_bytes) roll_segment(out);
  return out;
}

void Wal::roll_segment(AppendResult& out) {
  if (segment_ != nullptr) {
    // A segment must be durable before the writer moves past it, or a
    // crash could lose a middle segment while keeping a later one.
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
