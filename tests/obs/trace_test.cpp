// obs::TraceRecorder: the hub's one event ring. The traffic gate, the
// bounded ring with oldest-first overwrite, the seqlock contract (a
// reader never misreports a torn slot), and both exports: Chrome
// trace_event JSON and clash-flightrec-v1.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace clash::obs {
namespace {

TEST(TraceRecorder, DisabledByDefaultRecordsNothing) {
  TraceRecorder tr;
  EXPECT_FALSE(tr.enabled());
  tr.record(SpanKind::kCommit, 1, SimTime{100}, SimDuration{10});
  EXPECT_TRUE(tr.spans().empty());
  EXPECT_EQ(tr.dropped(), 0u);
}

TEST(TraceRecorder, RecordsSpansWhenEnabled) {
  TraceRecorder tr;
  tr.set_enabled(true);
  tr.record(SpanKind::kFailover, 7, SimTime{1000}, SimDuration{250}, 42);
  const auto spans = tr.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kind, SpanKind::kFailover);
  EXPECT_EQ(spans[0].pid, 7u);
  EXPECT_EQ(spans[0].start_us, 1000);
  EXPECT_EQ(spans[0].dur_us, 250);
  EXPECT_EQ(spans[0].arg, 42u);
}

TEST(TraceRecorder, RoundTripsEveryField) {
  TraceRecorder tr(16);
  tr.record(SpanKind::kEpochBump, /*pid=*/7, SimTime{1234}, SimDuration{5},
            /*arg=*/0xdeadbeef, /*arg2=*/42, /*trace_id=*/99);
  const auto spans = tr.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kind, SpanKind::kEpochBump);
  EXPECT_EQ(spans[0].pid, 7u);
  EXPECT_EQ(spans[0].start_us, 1234);
  EXPECT_EQ(spans[0].dur_us, 5);
  EXPECT_EQ(spans[0].arg, 0xdeadbeefu);
  EXPECT_EQ(spans[0].arg2, 42u);
  EXPECT_EQ(spans[0].trace_id, 99u);
  EXPECT_EQ(tr.total(), 1u);
  EXPECT_EQ(tr.size(), 1u);
  EXPECT_EQ(tr.dropped(), 0u);
}

TEST(TraceRecorder, CapacityIsExactWithTheTraceWindowAsDefault) {
  EXPECT_EQ(TraceRecorder(5).capacity(), 5u);
  EXPECT_EQ(TraceRecorder(0).capacity(), 1u);
  EXPECT_GE(TraceRecorder().capacity(), 16384u);
}

TEST(TraceRecorder, LifecycleEdgesIgnoreTheTrafficGate) {
  TraceRecorder tr(8);
  EXPECT_FALSE(tr.enabled());
  for (auto k : {SpanKind::kIngest, SpanKind::kReplApply, SpanKind::kCommit,
                 SpanKind::kQueryMatch}) {
    tr.record(k, 0, SimTime{1}, SimDuration{0});
  }
  EXPECT_EQ(tr.total(), 0u);
  tr.record(SpanKind::kWalFsync, 0, SimTime{2}, SimDuration{3});
  tr.record(SpanKind::kFailover, 0, SimTime{4}, SimDuration{5});
  EXPECT_EQ(tr.total(), 2u);
  tr.set_enabled(true);
  tr.record(SpanKind::kIngest, 0, SimTime{6}, SimDuration{0});
  EXPECT_EQ(tr.total(), 3u);
}

TEST(TraceRecorder, NegativeDurationsClampToZero) {
  TraceRecorder tr;
  tr.set_enabled(true);
  tr.record(SpanKind::kCommit, 0, SimTime{5}, SimDuration{-3});
  ASSERT_EQ(tr.spans().size(), 1u);
  EXPECT_EQ(tr.spans()[0].dur_us, 0);
}

TEST(TraceRecorder, RingOverwritesOldestAndCountsDrops) {
  TraceRecorder tr(4);
  tr.set_enabled(true);
  for (int i = 0; i < 6; ++i) {
    tr.record(SpanKind::kWalFsync, 0, SimTime{i}, SimDuration{1});
  }
  const auto spans = tr.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(tr.dropped(), 2u);
  // Spans 0 and 1 were overwritten; 2..5 survive.
  std::int64_t min_start = spans[0].start_us;
  std::int64_t max_start = spans[0].start_us;
  for (const auto& s : spans) {
    min_start = std::min(min_start, s.start_us);
    max_start = std::max(max_start, s.start_us);
  }
  EXPECT_EQ(min_start, 2);
  EXPECT_EQ(max_start, 5);
}

TEST(TraceRecorder, ClearEmptiesTheRing) {
  TraceRecorder tr(2);
  tr.set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    tr.record(SpanKind::kLoopTick, 0, SimTime{i}, SimDuration{1});
  }
  tr.clear();
  EXPECT_TRUE(tr.spans().empty());
  EXPECT_EQ(tr.dropped(), 0u);
  tr.record(SpanKind::kLoopTick, 0, SimTime{9}, SimDuration{1});
  EXPECT_EQ(tr.spans().size(), 1u);
}

TEST(TraceRecorder, WrapKeepsTheNewestWindowOldestFirst) {
  TraceRecorder tr(8);
  for (int i = 0; i < 21; ++i) {
    tr.record(SpanKind::kGroupActivated, 1, SimTime{i}, SimDuration{0},
              std::uint64_t(i));
  }
  EXPECT_EQ(tr.total(), 21u);
  EXPECT_EQ(tr.dropped(), 21u - 8u);
  const auto spans = tr.spans();
  ASSERT_EQ(spans.size(), 8u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].start_us, std::int64_t(13 + i));  // 13..20, in order
  }
}

TEST(TraceRecorder, ChromeJsonHasCompleteEvents) {
  TraceRecorder tr;
  tr.set_enabled(true);
  tr.record(SpanKind::kCommit, 3, SimTime{100}, SimDuration{50}, 7);
  tr.record(SpanKind::kSnapshotTransfer, 4, SimTime{200}, SimDuration{25});
  const std::string json = tr.to_chrome_json();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One complete ("X") event per span, named per kind.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"repl_commit\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"snapshot_transfer\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ts\":100"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":50"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
}

TEST(TraceRecorder, WrapManyTimesKeepsExactlyTheNewestSpans) {
  constexpr std::size_t kCap = 8;
  constexpr int kTotal = 8 * 10 + 3;  // wrap ten times, land mid-ring
  TraceRecorder tr(kCap);
  tr.set_enabled(true);
  for (int i = 0; i < kTotal; ++i) {
    tr.record(SpanKind::kIngest, 1, SimTime{i}, SimDuration{1},
              std::uint64_t(i));
  }
  const auto spans = tr.spans();
  ASSERT_EQ(spans.size(), kCap);
  EXPECT_EQ(tr.dropped(), std::uint64_t(kTotal) - kCap);
  // Exactly the newest kCap starts survive, each exactly once.
  std::vector<std::int64_t> starts;
  for (const auto& s : spans) starts.push_back(s.start_us);
  std::sort(starts.begin(), starts.end());
  for (std::size_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(starts[i], std::int64_t(kTotal - kCap + i));
  }
}

TEST(TraceRecorder, ChromeJsonAfterWrapExportsOnlySurvivors) {
  TraceRecorder tr(3);
  tr.set_enabled(true);
  for (int i = 0; i < 7; ++i) {
    tr.record(SpanKind::kCommit, 2, SimTime{1000 + i}, SimDuration{5});
  }
  const std::string json = tr.to_chrome_json();
  // Overwritten spans (ts 1000..1003) must not leak into the export;
  // the three survivors (1004..1006) must all be present.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(json.find("\"ts\":" + std::to_string(1000 + i)),
              std::string::npos);
  }
  for (int i = 4; i < 7; ++i) {
    EXPECT_NE(json.find("\"ts\":" + std::to_string(1000 + i)),
              std::string::npos);
  }
  // Structurally: one "X" event per surviving span, balanced braces.
  std::size_t events = 0;
  for (std::size_t pos = json.find("\"ph\":\"X\"");
       pos != std::string::npos;
       pos = json.find("\"ph\":\"X\"", pos + 1)) {
    ++events;
  }
  EXPECT_EQ(events, 3u);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(TraceRecorder, FlightrecJsonIsSelfDescribing) {
  TraceRecorder tr(8);
  tr.record(SpanKind::kSnapshotAborted, 3, SimTime{99}, SimDuration{4}, 11,
            22, 33);
  const std::string json = tr.to_json();
  EXPECT_NE(json.find("\"schema\":\"clash-flightrec-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"snapshot_aborted\""), std::string::npos);
  EXPECT_NE(json.find("\"t_us\":99"), std::string::npos);
  EXPECT_NE(json.find("\"dur_us\":4"), std::string::npos);
  EXPECT_NE(json.find("\"node\":3"), std::string::npos);
  EXPECT_NE(json.find("\"a\":11"), std::string::npos);
  EXPECT_NE(json.find("\"b\":22"), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":\"33\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(TraceRecorder, ConcurrentWritersNeverTearAReader) {
  // 4 writers hammer a tiny ring (constant wraparound) while a reader
  // snapshots; odd writers record traffic spans, even ones lifecycle
  // edges. The seqlock contract: every span a reader returns is one a
  // writer actually wrote. Each writer encodes a checksum relation
  // across every payload word, which a torn read would break.
  TraceRecorder tr(16);
  tr.set_enabled(true);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (std::uint64_t pid = 1; pid <= 4; ++pid) {
    writers.emplace_back([&tr, &stop, pid] {
      const SpanKind kind =
          pid % 2 == 1 ? SpanKind::kIngest : SpanKind::kWalFsync;
      std::uint64_t a = pid;
      while (!stop.load(std::memory_order_relaxed)) {
        tr.record(kind, pid, SimTime(std::int64_t(a)),
                  SimDuration(std::int64_t(a + pid)), a, a * 3 + pid,
                  a ^ pid);
        ++a;
      }
    });
  }
  // Don't start reading until the writers are demonstrably wrapping
  // the ring, so the 500 snapshot passes overlap live rewrites rather
  // than racing thread startup.
  while (tr.total() < 64) std::this_thread::yield();
  for (int i = 0; i < 500; ++i) {
    for (const auto& s : tr.spans()) {
      ASSERT_GE(s.pid, 1u);
      ASSERT_LE(s.pid, 4u);
      ASSERT_EQ(s.kind,
                s.pid % 2 == 1 ? SpanKind::kIngest : SpanKind::kWalFsync);
      ASSERT_EQ(s.start_us, std::int64_t(s.arg)) << "torn slot";
      ASSERT_EQ(s.dur_us, std::int64_t(s.arg + s.pid)) << "torn slot";
      ASSERT_EQ(s.arg2, s.arg * 3 + s.pid) << "torn slot";
      ASSERT_EQ(s.trace_id, s.arg ^ s.pid) << "torn slot";
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
  EXPECT_GT(tr.total(), 16u);
  EXPECT_LE(tr.spans().size(), tr.capacity());
}

TEST(TraceRecorder, ConcurrentRecordDuringExportStaysConsistent) {
  constexpr std::size_t kCap = 64;
  TraceRecorder tr(kCap);
  tr.set_enabled(true);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::int64_t t = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      tr.record(SpanKind::kLoopTick, 9, SimTime{t++}, SimDuration{1});
    }
  });
  // Export repeatedly while the writer wraps the ring under us. Every
  // export must see a coherent ring: never more than capacity spans,
  // and every span intact (the kind/pid we wrote, non-negative dur).
  for (int i = 0; i < 200; ++i) {
    const std::string json = tr.to_chrome_json();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    const auto spans = tr.spans();
    EXPECT_LE(spans.size(), kCap);
    for (const auto& s : spans) {
      EXPECT_EQ(s.kind, SpanKind::kLoopTick);
      EXPECT_EQ(s.pid, 9u);
      EXPECT_GE(s.dur_us, 0);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_LE(tr.spans().size(), kCap);
}

TEST(TraceRecorder, SpanNamesCoverEveryKind) {
  for (int i = 0; i <= int(SpanKind::kInvariantFail); ++i) {
    const auto k = SpanKind(i);
    EXPECT_NE(std::string(span_name(k)), "") << "SpanKind " << i;
    EXPECT_NE(std::string(span_category(k)), "") << "SpanKind " << i;
  }
}

TEST(TraceRecorder, KindNamesCoverEveryEnumerator) {
  std::set<std::string> names;
  for (int i = 0; i <= int(SpanKind::kInvariantFail); ++i) {
    EXPECT_STRNE(span_name(SpanKind(i)), "unknown") << "SpanKind " << i;
    names.insert(span_name(SpanKind(i)));
  }
  // One name per kind: consumers key on the name.
  EXPECT_EQ(names.size(), std::size_t(SpanKind::kInvariantFail) + 1);
}

}  // namespace
}  // namespace clash::obs
