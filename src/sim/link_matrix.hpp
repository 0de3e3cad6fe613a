// LinkMatrix: per-ordered-pair link faults for the simulated transports
// (the link-level drop matrix the ROADMAP asks for). Every server ->
// server message consults the matrix before delivery and can be
//
//   - dropped probabilistically (lossy WAN links),
//   - delayed by a fixed extra latency (slow links),
//   - duplicated (retransmitting middleboxes / at-least-once relays),
//   - reordered by a random jitter inside the reorder window (multi-
//     path routing: the jittered copy waits on the cluster's event
//     queue and lands late),
//   - slowed by a latency multiplier (fail-slow links: everything
//     arrives, just 10-100x late),
//   - corrupted (bytes flipped inside the payload in flight), or
//   - cut outright (hard partition — one direction at a time, so
//     asymmetric partitions are first-class).
//
// The fault vocabulary itself is common/fault_spec.hpp, shared with
// net::FaultInjector so both layers speak identical fault configs.
// Faults are keyed on the *ordered* (from, to) pair and mutable
// mid-run; ChurnSim layers split/heal/flap schedules on top. All
// randomness flows through one seeded Rng so fault runs replay
// exactly.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/fault_spec.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "common/types.hpp"

namespace clash::sim {

class LinkMatrix {
 public:
  /// One directed link's fault profile (shared with the TCP layer).
  using Fault = FaultSpec;

  /// Outcome for one message on one directed link. `delay` already
  /// includes the base latency passed to judge() and the slow-factor
  /// stretch.
  struct Verdict {
    bool deliver = true;
    SimDuration delay{0};
    bool duplicate = false;
    bool corrupt = false;
  };

  /// Drops are not counted here: each caller counts the ones it acts
  /// on, once, into MessageStats::link_drops.
  struct Stats {
    std::uint64_t delayed = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
    std::uint64_t corrupted = 0; // messages flagged for byte flips
  };

  explicit LinkMatrix(std::uint64_t seed = 0x11ae5eedULL) : rng_(seed) {}

  // --- Per-directed-link faults --------------------------------------
  void set_fault(ServerId from, ServerId to, Fault f);
  void set_drop(ServerId from, ServerId to, double prob);
  void set_delay(ServerId from, ServerId to, SimDuration d);
  void set_duplication(ServerId from, ServerId to, double prob);
  void set_reordering(ServerId from, ServerId to, double prob,
                      SimDuration window);
  /// Fail-slow link: every message (base latency included) takes
  /// `factor` times as long. 1 restores full speed.
  void set_slow(ServerId from, ServerId to, double factor);
  /// Corrupt each delivered message with probability `prob`.
  void set_corruption(ServerId from, ServerId to, double prob);
  /// Hard one-way cut: nothing flows from -> to until healed.
  void cut(ServerId from, ServerId to);
  void heal(ServerId from, ServerId to);

  /// Baseline fault applied to every pair without an explicit entry
  /// (uniform lossy-cluster scenarios).
  void set_default_fault(Fault f) { default_ = f; }

  // --- Set-level helpers (partition scenarios) -----------------------
  /// Cut both directions between every a in `a` and b in `b`.
  void partition(const std::vector<ServerId>& a,
                 const std::vector<ServerId>& b);
  /// Cut only the `from` -> `to` direction (asymmetric partition: the
  /// `from` side's messages vanish, the reverse path stays up).
  void one_way_partition(const std::vector<ServerId>& from,
                         const std::vector<ServerId>& to);
  /// Remove every explicit link fault (the default fault persists).
  void heal_all();
  /// heal_all + clear the default fault.
  void clear();

  /// Deterministic per-message script for one directed link: each
  /// message sent on it consumes one entry (true = drop); once the
  /// script drains, the configured fault resumes. The precision tool
  /// for "this specific frame never arrives" regression tests —
  /// mirrors net::FaultInjector::drop_next.
  void script(ServerId from, ServerId to, const std::vector<bool>& drops);

  /// Decide one message's fate (consumes randomness for lossy links).
  /// `base` is the transport's own clean-link latency for this
  /// message, folded in so slow links stretch the whole path.
  [[nodiscard]] Verdict judge(ServerId from, ServerId to,
                              SimDuration base = SimDuration{0});

  /// Fast path: true when no fault (explicit or default) is configured,
  /// so dispatch can skip the lookup entirely.
  [[nodiscard]] bool quiet() const {
    return faults_.empty() && scripts_.empty() && default_.benign();
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t faulted_links() const { return faults_.size(); }
  [[nodiscard]] Fault fault_of(ServerId from, ServerId to) const;

 private:
  static std::uint64_t key(ServerId from, ServerId to) {
    return (std::uint64_t(from.value) << 32) ^ std::uint64_t(to.value);
  }

  std::unordered_map<std::uint64_t, Fault> faults_;
  std::unordered_map<std::uint64_t, std::deque<bool>> scripts_;
  Fault default_{};
  Rng rng_;
  Stats stats_;
};

}  // namespace clash::sim
