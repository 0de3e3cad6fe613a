// InflightTable: the CAS-claimed in-flight operation table behind the
// postmortem plane. It promises lock-free readers that never misreport
// a torn slot; the concurrency test holds it to that.
#include "obs/inflight.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace clash::obs {
namespace {

TEST(InflightTable, BeginSnapshotRoundTrip) {
  InflightTable tab;
  const std::uint64_t tok =
      tab.begin(OpKind::kSnapshotIn, /*node=*/5, "0123", /*peer=*/9,
                /*now_us=*/1000, /*target=*/4);
  ASSERT_NE(tok, 0u);
  EXPECT_EQ(tab.active(), 1u);
  const auto ops = tab.snapshot();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].token, tok);
  EXPECT_EQ(ops[0].kind, OpKind::kSnapshotIn);
  EXPECT_EQ(ops[0].node, 5u);
  EXPECT_EQ(ops[0].group, "0123");
  EXPECT_EQ(ops[0].peer, 9u);
  EXPECT_EQ(ops[0].start_us, 1000);
  EXPECT_EQ(ops[0].last_progress_us, 1000);
  EXPECT_EQ(ops[0].progress, 0u);
  EXPECT_EQ(ops[0].target, 4u);
}

TEST(InflightTable, ProgressBumpsCountAndTimestamp) {
  InflightTable tab;
  const std::uint64_t tok =
      tab.begin(OpKind::kReplAppend, 1, "g", 2, 100);
  tab.progress(tok, 250);
  tab.progress(tok, 400, /*delta=*/3);
  const auto ops = tab.snapshot();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].progress, 4u);
  EXPECT_EQ(ops[0].last_progress_us, 400);
  EXPECT_EQ(ops[0].start_us, 100);  // start never moves
}

TEST(InflightTable, EndFreesTheSlotAndStaleTokensAreIgnored) {
  InflightTable tab;
  const std::uint64_t tok = tab.begin(OpKind::kConnect, 1, "", 7, 10);
  tab.end(tok);
  EXPECT_EQ(tab.active(), 0u);
  EXPECT_TRUE(tab.snapshot().empty());
  // The slot is reused by the next begin(); the dead token must not
  // touch the new occupant (this is the re-entrant-send safety net).
  const std::uint64_t tok2 = tab.begin(OpKind::kSnapshotOut, 2, "x", 8, 20);
  tab.progress(tok, 999);  // stale
  tab.end(tok);            // stale
  tab.progress(0, 999);    // failed-begin token
  const auto ops = tab.snapshot();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].token, tok2);
  EXPECT_EQ(ops[0].progress, 0u);
  EXPECT_EQ(ops[0].last_progress_us, 20);
}

TEST(InflightTable, OverflowRefusesGracefully) {
  InflightTable tab;
  std::vector<std::uint64_t> toks;
  for (std::size_t i = 0; i < InflightTable::kCapacity; ++i) {
    const std::uint64_t t = tab.begin(OpKind::kReplAppend, 1, "g", 0, 0);
    ASSERT_NE(t, 0u);
    toks.push_back(t);
  }
  EXPECT_EQ(tab.active(), InflightTable::kCapacity);
  EXPECT_EQ(tab.begin(OpKind::kReplAppend, 1, "g", 0, 0), 0u);
  EXPECT_EQ(tab.overflow(), 1u);
  // Freeing one slot makes begin() succeed again.
  tab.end(toks[17]);
  EXPECT_NE(tab.begin(OpKind::kConnect, 1, "g", 0, 0), 0u);
}

TEST(InflightTable, StalledFiltersByLastProgress) {
  InflightTable tab;
  const std::uint64_t fresh =
      tab.begin(OpKind::kSnapshotOut, 1, "a", 2, 1000);
  const std::uint64_t stale =
      tab.begin(OpKind::kSnapshotIn, 1, "b", 3, 1000);
  tab.progress(fresh, 9000);
  const auto stalled = tab.stalled(/*now_us=*/10000, /*threshold_us=*/5000);
  ASSERT_EQ(stalled.size(), 1u);
  EXPECT_EQ(stalled[0].token, stale);
  EXPECT_EQ(stalled[0].group, "b");
  // Progress on the stale op rescues it.
  tab.progress(stale, 9999);
  EXPECT_TRUE(tab.stalled(10000, 5000).empty());
}

TEST(InflightTable, LongGroupLabelsTruncateSafely) {
  InflightTable tab;
  const std::string longlabel(100, '1');
  const std::uint64_t tok =
      tab.begin(OpKind::kRecoveryPull, 1, longlabel, 0, 0);
  ASSERT_NE(tok, 0u);
  const auto ops = tab.snapshot();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].group,
            longlabel.substr(0, InflightTable::kLabelBytes - 1));
}

TEST(InflightTable, JsonNamesTheOperation) {
  InflightTable tab;
  const std::uint64_t tok =
      tab.begin(OpKind::kSnapshotIn, 4, "0132", 11, 500, 8);
  tab.progress(tok, 750, 3);
  const std::string json = tab.to_json(/*now_us=*/1000);
  EXPECT_NE(json.find("\"schema\":\"clash-inflight-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"snapshot_in\""), std::string::npos);
  EXPECT_NE(json.find("\"group\":\"0132\""), std::string::npos);
  EXPECT_NE(json.find("\"peer\":11"), std::string::npos);
  EXPECT_NE(json.find("\"last_progress_us\":750"), std::string::npos);
  EXPECT_NE(json.find("\"since_progress_us\":250"), std::string::npos);
  EXPECT_NE(json.find("\"progress\":3"), std::string::npos);
  EXPECT_NE(json.find("\"target\":8"), std::string::npos);
}

TEST(InflightTable, ConcurrentBeginEndSnapshotStaysCoherent) {
  InflightTable tab;
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (std::uint32_t n = 1; n <= 4; ++n) {
    workers.emplace_back([&tab, &stop, n] {
      std::int64_t t = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t tok =
            tab.begin(OpKind::kReplAppend, n, "grp", n * 100, t);
        if (tok != 0) {
          tab.progress(tok, t + 1);
          tab.end(tok);
        }
        ++t;
      }
    });
  }
  for (int i = 0; i < 500; ++i) {
    for (const auto& op : tab.snapshot()) {
      // Any op the reader surfaces must be internally consistent:
      // the fields a concurrent begin() wrote, never a mix of two
      // occupants of the slot.
      ASSERT_GE(op.node, 1u);
      ASSERT_LE(op.node, 4u);
      ASSERT_EQ(op.peer, op.node * 100) << "torn inflight slot";
      ASSERT_EQ(op.group, "grp");
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : workers) t.join();
  EXPECT_EQ(tab.active(), 0u);
}

}  // namespace
}  // namespace clash::obs
