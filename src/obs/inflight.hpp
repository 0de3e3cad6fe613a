// InflightTable: every long-lived pending operation (a ReplAppend
// batch awaiting acks, a snapshot transfer in either direction, a
// recovery pull, an async connect) with its start time and
// last-progress time, so a postmortem can name exactly what was stuck
// when the process died.
//
// Lock-free and readable from any thread, including a crash-signal
// handler: slots are claimed by CAS on an atomic token, every field is
// a relaxed atomic word, and tokens embed the slot index so
// progress/end are O(1).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace clash::obs {

/// Long-lived async operation classes tracked in the InflightTable.
enum class OpKind : std::uint8_t {
  kReplAppend = 0,  // un-acked append batch(es) toward a group's peers
  kSnapshotOut,     // outbound snapshot transfer (offer + chunk stream)
  kSnapshotIn,      // inbound snapshot assembly
  kRecoveryPull,    // grace-window recovery session for a group
  kConnect,         // async TCP connect toward a peer
};

[[nodiscard]] const char* op_kind_name(OpKind kind);

class InflightTable {
 public:
  static constexpr std::size_t kCapacity = 256;
  /// Group labels longer than this are truncated (quadtree labels at
  /// sane depths fit comfortably).
  static constexpr std::size_t kLabelBytes = 32;

  /// Read-side view of one live operation.
  struct Op {
    std::uint64_t token = 0;
    OpKind kind = OpKind::kReplAppend;
    std::uint32_t node = 0;
    std::uint64_t peer = 0;
    std::string group;
    std::int64_t start_us = 0;
    std::int64_t last_progress_us = 0;
    std::uint64_t progress = 0;  // kind-specific units (chunks, acks…)
    std::uint64_t target = 0;    // expected total, 0 when unknown
  };

  InflightTable();

  /// Register a new in-flight operation; returns its token (never 0).
  /// Returns 0 when the table is full (the op simply goes untracked —
  /// counted in overflow()). Safe from any thread.
  std::uint64_t begin(OpKind kind, std::uint32_t node,
                      std::string_view group, std::uint64_t peer,
                      std::int64_t now_us, std::uint64_t target = 0);

  /// Bump progress (acked one batch, received one chunk…). Tokens from
  /// a failed begin() (0) are ignored, as are stale tokens.
  void progress(std::uint64_t token, std::int64_t now_us,
                std::uint64_t delta = 1);

  /// The operation finished (successfully or not) — free its slot.
  void end(std::uint64_t token);

  [[nodiscard]] std::size_t active() const;
  /// begin() calls refused because the table was full.
  [[nodiscard]] std::uint64_t overflow() const {
    return overflow_.load(std::memory_order_relaxed);
  }

  /// Consistent-enough snapshot of live ops (token re-validated around
  /// the field copy; ops ending mid-copy are dropped).
  [[nodiscard]] std::vector<Op> snapshot() const;

  /// Live ops whose last progress is older than `threshold_us`.
  [[nodiscard]] std::vector<Op> stalled(std::int64_t now_us,
                                        std::int64_t threshold_us) const;

  /// Self-describing JSON: {"schema":"clash-inflight-v1",...}.
  [[nodiscard]] std::string to_json(std::int64_t now_us) const;

  /// Reset for test reuse. NOT safe concurrently with begin/end.
  void clear();

 private:
  struct Slot {
    std::atomic<std::uint64_t> token{0};  // 0 free, kClaimed transient
    std::atomic<std::uint64_t> meta{0};   // node << 8 | kind
    std::atomic<std::uint64_t> peer{0};
    std::atomic<std::int64_t> start_us{0};
    std::atomic<std::int64_t> last_progress_us{0};
    std::atomic<std::uint64_t> progress{0};
    std::atomic<std::uint64_t> target{0};
    // Group label, 8 chars per word, NUL-padded.
    std::atomic<std::uint64_t> label[kLabelBytes / 8]{};
  };

  static constexpr std::uint64_t kClaimed = ~std::uint64_t{0};

  /// Tokens embed the slot index in the low byte: (counter<<8)|slot.
  static std::size_t slot_of(std::uint64_t token) {
    return std::size_t(token & (kCapacity - 1));
  }

  bool read_slot(const Slot& s, Op* out) const;

  Slot slots_[kCapacity];
  std::atomic<std::uint64_t> next_token_{1};
  std::atomic<std::uint64_t> overflow_{0};
};

}  // namespace clash::obs
