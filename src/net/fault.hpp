// FaultInjector: deterministic link faults for the TCP transport. A
// Connection with an injector attached consults it for every outbound
// frame and drops, delays, duplicates, reorders, slows, or corrupts it
// before the frame reaches the socket queue — the wire-level twin of
// sim::LinkMatrix, built on the same shared FaultSpec vocabulary
// (common/fault_spec.hpp), so the identical partition / lossy-link /
// fail-slow / corruption scenarios run against real sockets in tests.
//
// Determinism comes from two directions: a seeded Rng for
// probabilistic faults, and an explicit drop_next(n) script hook that
// eats exactly the next n frames regardless of probability (the way
// tests force "this specific SnapshotChunk never arrives").
#pragma once

#include <chrono>
#include <cstdint>
#include <span>

#include "common/fault_spec.hpp"
#include "common/rng.hpp"

namespace clash::net {

class FaultInjector {
 public:
  /// The shared link-fault profile plus the injector's Rng seed.
  /// Durations are microseconds (FaultSpec convention); use delay() /
  /// reorder_window() below for chrono-typed access.
  struct Config : FaultSpec {
    std::uint64_t seed = 0x5eedf417ULL;

    [[nodiscard]] std::chrono::microseconds delay() const {
      return std::chrono::microseconds(delay_usec);
    }
    [[nodiscard]] std::chrono::microseconds reorder_window() const {
      return std::chrono::microseconds(reorder_window_usec);
    }
  };

  struct Verdict {
    bool drop = false;
    std::chrono::microseconds delay{0};
    bool duplicate = false;
    /// Deliver after `delay` OUTSIDE the FIFO (overtakable).
    bool reorder = false;
    /// Flip a byte inside the frame payload before sending.
    bool corrupt = false;
  };

  FaultInjector() : FaultInjector(Config{}) {}
  explicit FaultInjector(Config cfg) : cfg_(cfg), rng_(cfg.seed) {}

  /// Swap the fault profile mid-run (heal == default Config). Keeps
  /// the Rng stream so replays stay deterministic across reconfigures.
  void configure(Config cfg) { cfg_ = cfg; }
  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Script hook: unconditionally drop exactly the next `n` frames.
  void drop_next(unsigned n) { forced_drops_ += n; }

  /// Script hook: pass the next `n` frames untouched, then drop every
  /// frame after them — the way tests freeze a transfer mid-stream
  /// ("deliver the offer and two chunks, then the link goes dark").
  /// drop_next still takes precedence for frames it has claimed.
  void drop_after(unsigned n) {
    pass_quota_ = n;
    drop_rest_ = true;
  }

  /// Decide one frame's fate (consumes randomness on lossy links). The
  /// Connection applying the verdict counts the faults it applied.
  Verdict judge() {
    if (forced_drops_ > 0) {
      --forced_drops_;
      return Verdict{true, {}, false, false, false};
    }
    if (drop_rest_) {
      if (pass_quota_ == 0) return Verdict{true, {}, false, false, false};
      --pass_quota_;
      return Verdict{};
    }
    const auto fv = judge_fault(cfg_, rng_);
    if (!fv.deliver) return Verdict{true, {}, false, false, false};
    return Verdict{false, std::chrono::microseconds(fv.delay_usec),
                   fv.duplicate, fv.reorder, fv.corrupt};
  }

  /// Corrupt-mode mutation: flip one random byte inside `payload`
  /// (the caller scopes the span with wire::fenced_span).
  void corrupt_byte(std::span<std::uint8_t> payload) {
    if (payload.empty()) return;
    const auto pos = std::size_t(rng_.below(payload.size()));
    payload[pos] ^= std::uint8_t(1 + rng_.below(255));
  }

 private:
  Config cfg_;
  unsigned forced_drops_ = 0;
  unsigned pass_quota_ = 0;
  bool drop_rest_ = false;
  Rng rng_;
};

}  // namespace clash::net
