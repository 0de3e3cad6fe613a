// A handoff that lands on a group its receiver still owns: split views
// (a false death verdict, a partition) leave the group active on both
// sides, and the heir hands its copy back once the views re-merge. The
// transfer is fenced by epoch instead of aborting the process.
#include <gtest/gtest.h>

#include "clash/server.hpp"
#include "tests/clash/test_util.hpp"

namespace clash {
namespace {

StreamInfo stream(std::uint64_t source, const char* key, double rate) {
  return StreamInfo{ClientId{source}, testing::key(key), rate};
}

TEST(SplitView, HandoffOntoAGroupStillOwnedMergesByEpoch) {
  testing::MockServerEnv env;
  ClashConfig cfg;
  cfg.key_width = 8;
  cfg.initial_depth = 2;
  cfg.replication_factor = 1;  // owned groups keep an epoch-numbered log
  ClashServer x(ServerId{0}, cfg, env, dht::KeyHasher(32));
  const KeyGroup g = testing::group("01*", 8);
  ServerTableEntry entry;
  entry.group = g;
  entry.root = true;
  entry.active = true;
  x.install_entry(entry);
  for (const StreamInfo& s :
       {stream(1, "01000000", 1.0), stream(2, "01000001", 1.0)}) {
    AcceptObject put;
    put.key = s.key;
    put.kind = ObjectKind::kData;
    put.source = s.source;
    put.stream_rate = s.rate;
    ASSERT_TRUE(std::holds_alternative<AcceptObjectOk>(
        x.handle_accept_object(put)));
  }
  const std::uint64_t local = x.log_head(g)->epoch;

  // The heir promoted the group one epoch up while x kept it; its copy
  // has its own write (source 3) and a newer rate for source 2.
  AcceptKeyGroup back;
  back.group = g;
  back.parent = ServerId{1};
  back.root = true;
  back.epoch = local + 1;
  back.streams = {stream(2, "01000001", 5.0), stream(3, "01000010", 2.0)};
  ASSERT_NO_THROW(x.deliver(ServerId{1}, back));

  EXPECT_EQ(x.table().active_count(), 1u);
  const GroupState* st = x.group_state(g);
  ASSERT_NE(st, nullptr);
  ASSERT_EQ(st->streams.size(), 3u);  // both sides' writes survive
  EXPECT_DOUBLE_EQ(st->streams.at(ClientId{2}).rate, 5.0);  // higher wins
  EXPECT_DOUBLE_EQ(st->stream_rate, 1.0 + 5.0 + 2.0);
  const std::uint64_t merged = x.log_head(g)->epoch;
  EXPECT_GT(merged, back.epoch);  // a new line above both copies

  // A lower-epoch copy loses every object both copies hold.
  AcceptKeyGroup stale = back;
  stale.epoch = local;
  stale.streams = {stream(2, "01000001", 9.0)};
  ASSERT_NO_THROW(x.deliver(ServerId{1}, stale));
  EXPECT_EQ(x.table().active_count(), 1u);
  EXPECT_DOUBLE_EQ(x.group_state(g)->streams.at(ClientId{2}).rate, 5.0);
  EXPECT_GT(x.log_head(g)->epoch, merged);
}

}  // namespace
}  // namespace clash
