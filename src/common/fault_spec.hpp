// FaultSpec: the one fault vocabulary shared by both fault layers —
// sim::LinkMatrix (discrete-event transport) and net::FaultInjector
// (TCP Connection send path). Each layer keeps its own stats, scripts,
// and scheduling, but the per-message *decision* (drop / delay / dup /
// reorder / slow / corrupt) is judged here, so a new fault mode lands
// once and is immediately available to both the simulator and the
// socket transport.
//
// Durations are raw microseconds: the sim wraps them in SimDuration,
// the net layer in std::chrono::microseconds.
#pragma once

#include <cstdint>

#include "common/rng.hpp"

namespace clash {

/// Behaviour of one directed link. `cut` dominates; probabilities are
/// evaluated independently per message.
struct FaultSpec {
  /// Probability a message is silently dropped (lossy WAN link).
  double drop_prob = 0.0;
  /// Extra latency added to every surviving message, on top of
  /// whatever base latency the transport already models.
  std::int64_t delay_usec = 0;
  /// Hard cut: nothing flows until reconfigured.
  bool cut = false;
  /// Probability the message is delivered twice (retransmitting
  /// middleboxes / at-least-once relays); the duplicate rides the same
  /// delay as the original.
  double dup_prob = 0.0;
  /// Probability the message picks up a uniform random extra delay in
  /// (0, reorder_window_usec], letting later sends overtake it.
  double reorder_prob = 0.0;
  std::int64_t reorder_window_usec = 2000;  // 2ms default jitter span
  /// Fail-slow link: multiplies the total latency (the transport's
  /// base plus the configured delay). 1 = healthy; 10-100x models a
  /// node that still answers, just far too late — the failure mode
  /// SWIM suspicion must catch without a crash ever happening.
  double slow_factor = 1.0;
  /// Probability a delivered Gossip/ReplAppend/SnapshotChunk payload
  /// has bytes flipped in flight while staying decoded-valid; decoding
  /// marks it crc_ok = false and the receiver's fences must reject it.
  double corrupt_prob = 0.0;

  [[nodiscard]] bool benign() const {
    return !cut && drop_prob <= 0.0 && delay_usec <= 0 && dup_prob <= 0.0 &&
           reorder_prob <= 0.0 && slow_factor <= 1.0 && corrupt_prob <= 0.0;
  }
};

/// Outcome for one message on one directed link.
struct FaultVerdict {
  bool deliver = true;
  /// Total extra latency: base + configured delay (+ reorder jitter),
  /// stretched by slow_factor.
  std::int64_t delay_usec = 0;
  bool duplicate = false;
  /// Deliver after the delay OUTSIDE the FIFO (overtakable).
  bool reorder = false;
  /// Flip byte(s) inside the payload before delivery.
  bool corrupt = false;
};

/// Decide one message's fate (consumes randomness for probabilistic
/// faults). `base_usec` is the latency the transport would charge on a
/// clean link; it is folded in here so slow_factor stretches the whole
/// path, not just the injected delay.
inline FaultVerdict judge_fault(const FaultSpec& f, Rng& rng,
                                std::int64_t base_usec = 0) {
  FaultVerdict v;
  if (f.cut || (f.drop_prob > 0.0 && rng.bernoulli(f.drop_prob))) {
    v.deliver = false;
    return v;
  }
  v.delay_usec = base_usec + f.delay_usec;
  if (f.dup_prob > 0.0 && rng.bernoulli(f.dup_prob)) v.duplicate = true;
  if (f.reorder_prob > 0.0 && f.reorder_window_usec > 0 &&
      rng.bernoulli(f.reorder_prob)) {
    // Uniform jitter in (0, window]: under an event queue this lets
    // anything sent inside the window overtake the jittered message.
    v.reorder = true;
    v.delay_usec +=
        1 + std::int64_t(rng.below(std::uint64_t(f.reorder_window_usec)));
  }
  if (f.slow_factor > 1.0) {
    v.delay_usec = std::int64_t(double(v.delay_usec) * f.slow_factor);
  }
  if (f.corrupt_prob > 0.0 && rng.bernoulli(f.corrupt_prob)) {
    v.corrupt = true;
  }
  return v;
}

}  // namespace clash
