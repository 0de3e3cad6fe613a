// GroupLog unit coverage: head ordering, append/suffix/compact/reset,
// op application to group state, and RecoveryCoordinator bookkeeping.
#include <gtest/gtest.h>

#include "repl/log.hpp"
#include "repl/recovery.hpp"

namespace clash::repl {
namespace {

TEST(LogHead, LexicographicOrder) {
  EXPECT_LT((LogHead{1, 5}), (LogHead{1, 6}));
  EXPECT_LT((LogHead{1, 99}), (LogHead{2, 0}));
  EXPECT_EQ((LogHead{3, 4}), (LogHead{3, 4}));
  EXPECT_LE((LogHead{3, 4}), (LogHead{3, 4}));
  EXPECT_FALSE((LogHead{2, 0}) < (LogHead{1, 99}));
  EXPECT_EQ((LogHead{2, 7}).to_string(), "(2,7)");
}

TEST(GroupLog, AppendAdvancesHeadMonotonically) {
  GroupLog log(3, 10);
  EXPECT_EQ(log.head(), (LogHead{3, 10}));
  EXPECT_EQ(log.append(LogOp::del_stream(ClientId{1})), (LogHead{3, 11}));
  EXPECT_EQ(log.append(LogOp::del_stream(ClientId{2})), (LogHead{3, 12}));
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.floor_seq(), 10u);
}

TEST(GroupLog, SuffixFromReturnsExactlyTheMissingOps) {
  GroupLog log(1, 0);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    log.append(LogOp::del_stream(ClientId{i}));
  }
  std::vector<LogOp> out;
  ASSERT_TRUE(log.suffix_from(2, out));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].source, ClientId{3});
  EXPECT_EQ(out[2].source, ClientId{5});

  out.clear();
  ASSERT_TRUE(log.suffix_from(5, out));  // fully caught up
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(log.suffix_from(99, out));  // ahead of us: nothing to give
  EXPECT_TRUE(out.empty());
}

TEST(GroupLog, CompactionMovesTheFloor) {
  GroupLog log(1, 0);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    log.append(LogOp::del_stream(ClientId{i}));
  }
  log.compact();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.floor_seq(), 4u);
  EXPECT_EQ(log.head(), (LogHead{1, 4}));

  std::vector<LogOp> out;
  EXPECT_FALSE(log.suffix_from(2, out));  // predates the floor: snapshot
  EXPECT_TRUE(log.suffix_from(4, out));
  log.append(LogOp::del_stream(ClientId{5}));
  out.clear();
  ASSERT_TRUE(log.suffix_from(4, out));
  EXPECT_EQ(out.size(), 1u);
}

TEST(GroupLog, ResetReanchorsAtSnapshotBoundary) {
  GroupLog log(1, 0);
  log.append(LogOp::del_stream(ClientId{1}));
  log.reset(4, 100);
  EXPECT_EQ(log.epoch(), 4u);
  EXPECT_EQ(log.head(), (LogHead{4, 100}));
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.append(LogOp::del_stream(ClientId{2})), (LogHead{4, 101}));
}

TEST(GroupLog, ApplyReplaysOpsOntoGroupState) {
  GroupState st;
  GroupLog::apply(LogOp::put_stream({ClientId{1}, Key(0x12, 8), 2.0}), st);
  GroupLog::apply(LogOp::put_stream({ClientId{2}, Key(0x13, 8), 3.0}), st);
  EXPECT_EQ(st.streams.size(), 2u);
  EXPECT_DOUBLE_EQ(st.stream_rate, 5.0);

  // Upsert replaces the previous rate.
  GroupLog::apply(LogOp::put_stream({ClientId{1}, Key(0x12, 8), 4.0}), st);
  EXPECT_EQ(st.streams.size(), 2u);
  EXPECT_DOUBLE_EQ(st.stream_rate, 7.0);

  GroupLog::apply(LogOp::del_stream(ClientId{2}), st);
  EXPECT_EQ(st.streams.size(), 1u);
  EXPECT_DOUBLE_EQ(st.stream_rate, 4.0);
  GroupLog::apply(LogOp::del_stream(ClientId{99}), st);  // unknown: no-op
  EXPECT_DOUBLE_EQ(st.stream_rate, 4.0);

  GroupLog::apply(LogOp::put_query(QueryInfo{QueryId{7}, Key(0x12, 8)}), st);
  EXPECT_EQ(st.queries.size(), 1u);
  // A put of a known id replaces the query, scope and predicates too.
  GroupLog::apply(LogOp::put_query(QueryInfo(QueryId{7}, Key(0x12, 8), 2,
                                             {{0, cq::Predicate::Op::kEq, 1}})),
                  st);
  ASSERT_EQ(st.queries.size(), 1u);
  EXPECT_EQ(st.queries.find(QueryId{7})->second.scope_depth, 2u);
  EXPECT_EQ(st.queries.match(cq::Record{Key(0x3F, 8), {1}}), 1u);
  GroupLog::apply(LogOp::del_query(QueryId{7}), st);
  EXPECT_TRUE(st.queries.empty());
  EXPECT_EQ(st.streams.size(), 1u);
}

TEST(RecoveryCoordinator, TracksRepairAndStaleness) {
  obs::InflightTable inflight;
  RecoveryCoordinator rc(inflight, 3);
  const KeyGroup g = KeyGroup::of(Key(0x40, 8), 2);

  // Healed promotion: started behind, repaired to the advertised head.
  ASSERT_TRUE(rc.begin(g, LogHead{1, 5}, SimTime{100}));
  EXPECT_FALSE(rc.begin(g, LogHead{1, 5}, SimTime{200}));  // already open
  rc.note_entries_repaired(g, 3, SimTime{150});
  EXPECT_EQ(rc.finish(g, LogHead{1, 8}, LogHead{1, 8}), SimTime{100});
  EXPECT_EQ(rc.stats().sessions, 1u);
  EXPECT_EQ(rc.stats().entries_repaired, 3u);
  EXPECT_EQ(rc.stats().stale_promotions_averted, 1u);
  EXPECT_EQ(rc.stats().stale_promotions, 0u);
  EXPECT_FALSE(rc.active(g));

  // Stale promotion: nobody could repair us to the advertised head.
  ASSERT_TRUE(rc.begin(g, LogHead{1, 5}, SimTime{300}));
  rc.finish(g, LogHead{1, 5}, LogHead{1, 9});
  EXPECT_EQ(rc.stats().stale_promotions, 1u);

  // Snapshot pull.
  ASSERT_TRUE(rc.begin(g, LogHead{}, SimTime{400}));
  rc.note_snapshot_pulled(g, SimTime{450});
  rc.finish(g, LogHead{2, 40}, LogHead{2, 40});
  EXPECT_EQ(rc.stats().snapshots_pulled, 1u);
  EXPECT_EQ(rc.stats().stale_promotions_averted, 2u);

  // No session, no promotion to time and no repair to count.
  EXPECT_EQ(rc.finish(g, LogHead{2, 40}, LogHead{2, 40}), std::nullopt);
  rc.note_entries_repaired(g, 2, SimTime{500});
  EXPECT_EQ(rc.stats().entries_repaired, 3u);
}

TEST(RecoveryCoordinator, EachSessionIsOneInflightPull) {
  obs::InflightTable inflight;
  RecoveryCoordinator rc(inflight, 3);
  const KeyGroup g = KeyGroup::of(Key(0x40, 8), 2);

  ASSERT_TRUE(rc.begin(g, LogHead{1, 5}, SimTime{100}));
  auto ops = inflight.snapshot();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].kind, obs::OpKind::kRecoveryPull);
  EXPECT_EQ(ops[0].node, 3u);
  EXPECT_EQ(ops[0].start_us, 100);
  rc.note_entries_repaired(g, 4, SimTime{120});
  EXPECT_EQ(inflight.snapshot().at(0).progress, 4u);

  // Cancelling closes the op along with the session; the next session
  // of the group starts its own clock.
  rc.cancel(g);
  EXPECT_EQ(inflight.active(), 0u);
  ASSERT_TRUE(rc.begin(g, LogHead{1, 5}, SimTime{700}));
  EXPECT_EQ(inflight.active(), 1u);
  EXPECT_EQ(rc.finish(g, LogHead{1, 5}, LogHead{1, 5}), SimTime{700});
  EXPECT_EQ(inflight.active(), 0u);
}

}  // namespace
}  // namespace clash::repl
