// StallWatchdog: tick-budget and op-progress stall detection, driven
// deterministically through poll_once with a scripted probe and a fake
// clock — the watchdog thread itself is only exercised for clean and
// prompt start/stop and for polling on its cadence.
#include "obs/watchdog.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/hub.hpp"

namespace clash::obs {
namespace {

std::size_t count_kind(const TraceRecorder& tr, SpanKind kind) {
  std::size_t n = 0;
  for (const auto& s : tr.spans()) {
    if (s.kind == kind) ++n;
  }
  return n;
}

TEST(StallWatchdog, QuietWhenNothingStalls) {
  Hub hub;
  StallWatchdog::Config cfg;
  StallWatchdog wd(cfg, hub, /*node=*/1);
  // No probe, no in-flight ops: nothing to report.
  EXPECT_EQ(wd.poll_once(1'000'000), 0u);
  // A tick inside its budget is healthy.
  wd.set_tick_probe([] {
    return std::optional<std::pair<std::uint64_t, std::int64_t>>(
        {std::uint64_t{3}, std::int64_t{900'000}});
  });
  EXPECT_EQ(wd.poll_once(1'000'000), 0u);
  EXPECT_EQ(wd.stall_ticks(), 0u);
  EXPECT_EQ(wd.stall_ops(), 0u);
}

TEST(StallWatchdog, TickStallReportsOncePerTick) {
  Hub hub;
  StallWatchdog::Config cfg;
  cfg.tick_budget_us = 1'000'000;
  StallWatchdog wd(cfg, hub, 1);
  std::uint64_t seq = 7;
  wd.set_tick_probe([&seq] {
    return std::optional<std::pair<std::uint64_t, std::int64_t>>(
        {seq, std::int64_t{0}});
  });
  // Over budget: one fresh verdict, counted and on the event ring.
  EXPECT_EQ(wd.poll_once(1'500'000), 1u);
  EXPECT_EQ(wd.stall_ticks(), 1u);
  EXPECT_EQ(count_kind(hub.tracer, SpanKind::kStallTick), 1u);
  // Same wedged tick on the next poll: already reported, no re-count.
  EXPECT_EQ(wd.poll_once(2'500'000), 0u);
  EXPECT_EQ(wd.stall_ticks(), 1u);
  // A NEW tick that also wedges is a fresh verdict.
  seq = 8;
  EXPECT_EQ(wd.poll_once(4'000'000), 1u);
  EXPECT_EQ(wd.stall_ticks(), 2u);
  EXPECT_EQ(count_kind(hub.tracer, SpanKind::kStallTick), 2u);
}

TEST(StallWatchdog, OpStallDedupsAndRelapses) {
  Hub hub;
  StallWatchdog::Config cfg;
  cfg.op_stall_us = 5'000'000;
  StallWatchdog wd(cfg, hub, 2);
  const std::uint64_t tok =
      hub.inflight.begin(OpKind::kSnapshotIn, 2, "01", 9, /*now_us=*/0);
  ASSERT_NE(tok, 0u);

  // Not yet past the threshold.
  EXPECT_EQ(wd.poll_once(4'000'000), 0u);
  // Past it: one verdict, then deduped while it stays stalled.
  EXPECT_EQ(wd.poll_once(6'000'000), 1u);
  EXPECT_EQ(wd.poll_once(7'000'000), 0u);
  EXPECT_EQ(wd.stall_ops(), 1u);
  EXPECT_EQ(count_kind(hub.tracer, SpanKind::kStallOp), 1u);

  // Progress rescues the op; a later relapse re-reports.
  hub.inflight.progress(tok, 8'000'000);
  EXPECT_EQ(wd.poll_once(9'000'000), 0u);
  EXPECT_EQ(wd.poll_once(14'000'000), 1u);
  EXPECT_EQ(wd.stall_ops(), 2u);

  // An ended op stops mattering entirely.
  hub.inflight.end(tok);
  EXPECT_EQ(wd.poll_once(30'000'000), 0u);
}

TEST(StallWatchdog, BumpsTheStallCounters) {
  Hub hub;
  StallWatchdog::Config cfg;
  cfg.op_stall_us = 1'000;
  StallWatchdog wd(cfg, hub, 1);
  (void)hub.inflight.begin(OpKind::kReplAppend, 1, "g", 3, 0);
  ASSERT_EQ(wd.poll_once(10'000), 1u);
  EXPECT_EQ(hub.registry.counter("clash_stall_ops_total").value(), 1u);
  EXPECT_EQ(hub.registry.counter("clash_stall_ticks_total").value(), 0u);
}

TEST(StallWatchdog, DumpHookIsRateLimited) {
  Hub hub;
  StallWatchdog::Config cfg;
  cfg.op_stall_us = 1'000;
  cfg.dump_interval_us = 10'000'000;
  StallWatchdog wd(cfg, hub, 1);
  std::vector<std::string> dumps;
  wd.set_dump_hook([&dumps](const char* reason) {
    dumps.emplace_back(reason);
  });
  const std::uint64_t a = hub.inflight.begin(OpKind::kConnect, 1, "", 5, 0);
  ASSERT_EQ(wd.poll_once(5'000), 1u);
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_EQ(dumps[0], "stall_watchdog");

  // A second fresh stall inside the dump interval: counted, not dumped.
  hub.inflight.end(a);
  (void)hub.inflight.begin(OpKind::kConnect, 1, "", 6, 6'000);
  ASSERT_EQ(wd.poll_once(20'000), 1u);
  EXPECT_EQ(dumps.size(), 1u);

  // Past the interval the next fresh stall dumps again.
  (void)hub.inflight.begin(OpKind::kSnapshotOut, 1, "g", 7, 11'000'000);
  ASSERT_EQ(wd.poll_once(30'000'000), 1u);
  EXPECT_EQ(dumps.size(), 2u);
}

TEST(StallWatchdog, StartStopIsCleanAndIdempotent) {
  Hub hub;
  StallWatchdog::Config cfg;
  cfg.poll_interval_us = 10'000;
  StallWatchdog wd(cfg, hub, 1);
  wd.set_clock([] { return std::int64_t{0}; });
  wd.start();
  wd.start();  // second start is a no-op
  wd.stop();
  wd.stop();  // second stop too
  // Disabled config never spawns the thread.
  StallWatchdog::Config off;
  off.enabled = false;
  StallWatchdog wd2(off, hub, 1);
  wd2.start();
  wd2.stop();
}

TEST(StallWatchdog, StopDoesNotWaitOutThePollInterval) {
  Hub hub;
  StallWatchdog::Config cfg;
  cfg.poll_interval_us = 10'000'000;
  StallWatchdog wd(cfg, hub, 1);
  wd.set_clock([] { return std::int64_t{0}; });
  wd.start();
  // Let the thread reach its wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  wd.stop();
  const auto took = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(took, std::chrono::milliseconds(50));
}

TEST(StallWatchdog, ThreadPollsOnItsInterval) {
  Hub hub;
  StallWatchdog::Config cfg;
  cfg.poll_interval_us = 5'000;
  std::atomic<int> polls{0};
  StallWatchdog wd(cfg, hub, 1);
  wd.set_clock([&polls] {
    polls.fetch_add(1, std::memory_order_relaxed);
    return std::int64_t{0};
  });
  wd.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (polls.load(std::memory_order_relaxed) < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  wd.stop();
  EXPECT_GE(polls.load(std::memory_order_relaxed), 3);
}

}  // namespace
}  // namespace clash::obs
