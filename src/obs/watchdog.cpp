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
  {
    // Under the wait's mutex, so the flip cannot fall between the
    // watchdog's predicate check and its wait.
    common::MutexLock lock(stop_mu_);
    running_.store(false, std::memory_order_release);
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void StallWatchdog::thread_main() {
  // Wait out each poll interval on the condition variable, which stop()
  // notifies, so stopping never waits an interval.
  const auto interval = std::chrono::microseconds(cfg_.poll_interval_us);
  const auto stopped = [this] {
    return !running_.load(std::memory_order_acquire);
  };
  std::unique_lock lock(stop_mu_.native());
  // Dedicated watchdog thread, never an event-loop path.
  while (!stop_cv_.wait_for(  // lint:allow-blocking(own thread)
      lock, interval, stopped)) {
    lock.unlock();
    if (now_us_) poll_once(now_us_());
    lock.lock();
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
