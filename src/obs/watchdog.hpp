// StallWatchdog: the liveness half of the postmortem plane. A node's
// event loop can wedge (a handler spinning, a blocking call that
// slipped past the lint) and an in-flight operation can silently stop
// progressing (peer wedged, pacing bug) — neither shows up in metrics
// until someone scrapes, and neither crashes, so the crash handler
// never fires. The watchdog polls from its own thread:
//   * tick stalls — the loop published a tick start and hasn't
//     finished it within the budget;
//   * op stalls — an InflightTable entry with no progress past the
//     threshold.
// Verdicts bump clash_stall_* counters, land in the hub's event ring, and
// (rate-limited) trigger a postmortem dump, so a wedged-but-alive node
// ships the same black box a crashed one does.
//
// poll_once(now_us) is the whole detection pass, exposed for
// deterministic tests; start() merely runs it on a cadence.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "common/mutex.hpp"
#include "obs/hub.hpp"

namespace clash::obs {

class StallWatchdog {
 public:
  struct Config {
    bool enabled = true;
    /// Poll cadence of the watchdog thread.
    std::int64_t poll_interval_us = 100'000;
    /// A tick older than this and still unfinished is a stall.
    std::int64_t tick_budget_us = 1'000'000;
    /// An in-flight op with no progress for this long is a stall.
    std::int64_t op_stall_us = 5'000'000;
    /// Minimum spacing between stall-triggered dumps.
    std::int64_t dump_interval_us = 10'000'000;
  };

  /// Tick probe: returns {tick seq, start time in the watchdog's
  /// clock} while the loop is inside a tick, nullopt when idle.
  using TickProbe =
      std::function<std::optional<std::pair<std::uint64_t, std::int64_t>>()>;

  StallWatchdog(Config cfg, Hub& hub, std::uint32_t node);
  ~StallWatchdog();

  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  /// All setters must precede start().
  void set_tick_probe(TickProbe probe) { tick_probe_ = std::move(probe); }
  /// `now_us` supplies the clock poll verdicts are judged against
  /// (must match the clock InflightTable entries were stamped with).
  void set_clock(std::function<std::int64_t()> now_us) {
    now_us_ = std::move(now_us);
  }
  /// Called (rate-limited) when a new stall is detected.
  void set_dump_hook(std::function<void(const char* reason)> hook) {
    dump_hook_ = std::move(hook);
  }

  void start();
  void stop();

  /// One detection pass at `now_us`; returns the number of NEW stall
  /// verdicts (a stall already reported does not re-count).
  std::size_t poll_once(std::int64_t now_us);

  [[nodiscard]] std::uint64_t stall_ticks() const {
    return stall_ticks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t stall_ops() const {
    return stall_ops_.load(std::memory_order_relaxed);
  }

 private:
  void thread_main();
  void maybe_dump(std::int64_t now_us, const char* reason);

  Config cfg_;
  Hub& hub_;
  std::uint32_t node_;
  TickProbe tick_probe_;
  std::function<std::int64_t()> now_us_;
  std::function<void(const char*)> dump_hook_;

  Counter stall_ticks_c_;
  Counter stall_ops_c_;

  // Dedup state, touched only by poll_once's caller (the watchdog
  // thread, or a test driving poll_once directly).
  std::uint64_t last_stalled_tick_ = 0;
  std::set<std::uint64_t> stalled_tokens_;
  std::int64_t last_dump_us_ = 0;
  bool dumped_once_ = false;

  std::atomic<std::uint64_t> stall_ticks_{0};
  std::atomic<std::uint64_t> stall_ops_{0};
  std::atomic<bool> running_{false};
  // The watchdog thread waits on stop_cv_ between polls; stop() flips
  // running_ under stop_mu_ and notifies.
  common::Mutex stop_mu_;
  std::condition_variable stop_cv_;
  std::thread thread_;
};

}  // namespace clash::obs
