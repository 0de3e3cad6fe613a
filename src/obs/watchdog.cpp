#include "obs/watchdog.hpp"

#include <chrono>

namespace clash::obs {

StallWatchdog::StallWatchdog(Config cfg, Hub& hub, std::uint32_t node)
    : cfg_(cfg),
      hub_(hub),
      node_(node),
      stall_ticks_c_(hub.registry.counter("clash_stall_ticks_total")),
      stall_ops_c_(hub.registry.counter("clash_stall_ops_total")) {}

StallWatchdog::~StallWatchdog() { stop(); }

void StallWatchdog::start() {
  if (!cfg_.enabled || running_.load(std::memory_order_relaxed)) return;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { thread_main(); });
}

void StallWatchdog::stop() {
  running_.store(false, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void StallWatchdog::thread_main() {
  // Sleep in small slices so stop() never waits a full poll interval.
  const auto slice = std::chrono::milliseconds(10);
  std::int64_t slept_us = 0;
  while (running_.load(std::memory_order_acquire)) {
    // Dedicated watchdog thread, never an event-loop path.
    std::this_thread::sleep_for(slice);  // lint:allow-blocking(own thread)
    slept_us += 10'000;
    if (slept_us < cfg_.poll_interval_us) continue;
    slept_us = 0;
    if (now_us_) poll_once(now_us_());
  }
}

std::size_t StallWatchdog::poll_once(std::int64_t now_us) {
  std::size_t fresh = 0;

  if (tick_probe_) {
    if (const auto tick = tick_probe_()) {
      const auto [seq, started_us] = *tick;
      const std::int64_t age = now_us - started_us;
      if (age >= cfg_.tick_budget_us && seq != last_stalled_tick_) {
        last_stalled_tick_ = seq;
        ++fresh;
        stall_ticks_.fetch_add(1, std::memory_order_relaxed);
        stall_ticks_c_.inc();
        hub_.tracer.record(SpanKind::kStallTick, node_, SimTime(started_us),
                           SimDuration(age), seq);
      }
    }
  }

  const auto stalled = hub_.inflight.stalled(now_us, cfg_.op_stall_us);
  std::set<std::uint64_t> live;
  for (const auto& op : stalled) {
    live.insert(op.token);
    if (stalled_tokens_.contains(op.token)) continue;
    ++fresh;
    stall_ops_.fetch_add(1, std::memory_order_relaxed);
    stall_ops_c_.inc();
    hub_.tracer.record(SpanKind::kStallOp, node_,
                       SimTime(op.last_progress_us),
                       SimDuration(now_us - op.last_progress_us), op.token);
  }
  // Forget tokens that ended or resumed so a relapse re-reports.
  stalled_tokens_ = std::move(live);

  if (fresh > 0) maybe_dump(now_us, "stall_watchdog");
  return fresh;
}

void StallWatchdog::maybe_dump(std::int64_t now_us, const char* reason) {
  if (!dump_hook_) return;
  if (dumped_once_ && now_us - last_dump_us_ < cfg_.dump_interval_us) return;
  dumped_once_ = true;
  last_dump_us_ = now_us;
  dump_hook_(reason);
}

}  // namespace clash::obs
