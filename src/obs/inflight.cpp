#include "obs/inflight.hpp"

#include <cstring>

namespace clash::obs {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (std::uint8_t(c) >= 0x20) {
      out.push_back(c);
    }
  }
}

}  // namespace

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kReplAppend: return "repl_append";
    case OpKind::kSnapshotOut: return "snapshot_out";
    case OpKind::kSnapshotIn: return "snapshot_in";
    case OpKind::kRecoveryPull: return "recovery_pull";
    case OpKind::kConnect: return "connect";
  }
  return "unknown";
}

InflightTable::InflightTable() = default;

std::uint64_t InflightTable::begin(OpKind kind, std::uint32_t node,
                                   std::string_view group,
                                   std::uint64_t peer, std::int64_t now_us,
                                   std::uint64_t target) {
  for (std::size_t i = 0; i < kCapacity; ++i) {
    Slot& s = slots_[i];
    std::uint64_t expected = 0;
    if (!s.token.compare_exchange_strong(expected, kClaimed,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
      continue;
    }
    s.meta.store((std::uint64_t(node) << 8) | std::uint64_t(kind),
                 std::memory_order_relaxed);
    s.peer.store(peer, std::memory_order_relaxed);
    s.start_us.store(now_us, std::memory_order_relaxed);
    s.last_progress_us.store(now_us, std::memory_order_relaxed);
    s.progress.store(0, std::memory_order_relaxed);
    s.target.store(target, std::memory_order_relaxed);
    char label[kLabelBytes] = {};
    const std::size_t n = group.size() < kLabelBytes - 1
                              ? group.size()
                              : kLabelBytes - 1;
    std::memcpy(label, group.data(), n);
    for (std::size_t w = 0; w < kLabelBytes / 8; ++w) {
      std::uint64_t word;
      std::memcpy(&word, label + w * 8, 8);
      s.label[w].store(word, std::memory_order_relaxed);
    }
    // Token counter never wraps into the index byte range in any
    // realistic run (2^56 begins); slot index rides in the low byte.
    const std::uint64_t token =
        (next_token_.fetch_add(1, std::memory_order_relaxed) << 8) |
        std::uint64_t(i);
    s.token.store(token, std::memory_order_release);
    return token;
  }
  overflow_.fetch_add(1, std::memory_order_relaxed);
  return 0;
}

void InflightTable::progress(std::uint64_t token, std::int64_t now_us,
                             std::uint64_t delta) {
  if (token == 0) return;
  Slot& s = slots_[slot_of(token)];
  if (s.token.load(std::memory_order_acquire) != token) return;
  s.progress.fetch_add(delta, std::memory_order_relaxed);
  s.last_progress_us.store(now_us, std::memory_order_relaxed);
}

void InflightTable::end(std::uint64_t token) {
  if (token == 0) return;
  Slot& s = slots_[slot_of(token)];
  std::uint64_t expected = token;
  s.token.compare_exchange_strong(expected, 0, std::memory_order_acq_rel,
                                  std::memory_order_relaxed);
}

std::size_t InflightTable::active() const {
  std::size_t n = 0;
  for (const Slot& s : slots_) {
    const std::uint64_t t = s.token.load(std::memory_order_relaxed);
    if (t != 0 && t != kClaimed) ++n;
  }
  return n;
}

bool InflightTable::read_slot(const Slot& s, Op* out) const {
  const std::uint64_t token = s.token.load(std::memory_order_acquire);
  if (token == 0 || token == kClaimed) return false;
  Op op;
  op.token = token;
  const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
  op.kind = OpKind(meta & 0xff);
  op.node = std::uint32_t(meta >> 8);
  op.peer = s.peer.load(std::memory_order_relaxed);
  op.start_us = s.start_us.load(std::memory_order_relaxed);
  op.last_progress_us = s.last_progress_us.load(std::memory_order_relaxed);
  op.progress = s.progress.load(std::memory_order_relaxed);
  op.target = s.target.load(std::memory_order_relaxed);
  char label[kLabelBytes];
  for (std::size_t w = 0; w < kLabelBytes / 8; ++w) {
    const std::uint64_t word = s.label[w].load(std::memory_order_relaxed);
    std::memcpy(label + w * 8, &word, 8);
  }
  label[kLabelBytes - 1] = '\0';
  op.group.assign(label);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (s.token.load(std::memory_order_relaxed) != token) return false;
  *out = std::move(op);
  return true;
}

std::vector<InflightTable::Op> InflightTable::snapshot() const {
  std::vector<Op> out;
  for (const Slot& s : slots_) {
    Op op;
    if (read_slot(s, &op)) out.push_back(std::move(op));
  }
  return out;
}

std::vector<InflightTable::Op> InflightTable::stalled(
    std::int64_t now_us, std::int64_t threshold_us) const {
  std::vector<Op> out;
  for (const Slot& s : slots_) {
    Op op;
    if (read_slot(s, &op) && now_us - op.last_progress_us >= threshold_us) {
      out.push_back(std::move(op));
    }
  }
  return out;
}

std::string InflightTable::to_json(std::int64_t now_us) const {
  const auto ops = snapshot();
  std::string out;
  out.reserve(64 + ops.size() * 160);
  out += "{\"schema\":\"clash-inflight-v1\",\"now_us\":";
  out += std::to_string(now_us);
  out += ",\"active\":";
  out += std::to_string(ops.size());
  out += ",\"overflow\":";
  out += std::to_string(overflow());
  out += ",\"ops\":[";
  bool first = true;
  for (const auto& op : ops) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"kind\":\"";
    out += op_kind_name(op.kind);
    out += "\",\"node\":";
    out += std::to_string(op.node);
    out += ",\"group\":\"";
    append_escaped(out, op.group);
    out += "\",\"peer\":";
    out += std::to_string(op.peer);
    out += ",\"start_us\":";
    out += std::to_string(op.start_us);
    out += ",\"last_progress_us\":";
    out += std::to_string(op.last_progress_us);
    out += ",\"age_us\":";
    out += std::to_string(now_us - op.start_us);
    out += ",\"since_progress_us\":";
    out += std::to_string(now_us - op.last_progress_us);
    out += ",\"progress\":";
    out += std::to_string(op.progress);
    out += ",\"target\":";
    out += std::to_string(op.target);
    out.push_back('}');
  }
  out += "]}";
  return out;
}

void InflightTable::clear() {
  for (Slot& s : slots_) s.token.store(0, std::memory_order_relaxed);
  overflow_.store(0, std::memory_order_relaxed);
}

}  // namespace clash::obs
