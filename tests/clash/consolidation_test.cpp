// Bottom-up consolidation (Section 4): cold leaf siblings merge back
// into the parent entry; roots are a floor; busy children refuse.
#include <gtest/gtest.h>

#include "clash/server.hpp"
#include "tests/clash/test_util.hpp"

namespace clash {
namespace {

using testing::MockServerEnv;
using testing::group;
using testing::key;

ClashConfig cfg7() {
  ClashConfig cfg;
  cfg.key_width = 7;
  cfg.initial_depth = 2;
  cfg.capacity = 100;  // underload below 54; merges must fit under 45
  return cfg;
}

dht::KeyHasher hasher() { return dht::KeyHasher(32); }

AcceptObject data_obj(const Key& k, ClientId src, double rate) {
  AcceptObject obj;
  obj.key = k;
  obj.kind = ObjectKind::kData;
  obj.source = src;
  obj.stream_rate = rate;
  return obj;
}

/// Parent (s0) that split 011* and handed 0111* to s1.
struct SplitPair {
  MockServerEnv env0, env1;
  ClashServer s0, s1;

  SplitPair()
      : s0(ServerId{0}, cfg7(), env0, hasher()),
        s1(ServerId{1}, cfg7(), env1, hasher()) {
    env0.lookup_fn = [](dht::HashKey) {
      return dht::LookupResult{ServerId{1}, 1};
    };
    s0.install_entry({group("011*", 7), true, ServerId{}, ServerId{}, true});
  }

  void do_split(double left_rate, double right_rate) {
    (void)s0.handle_accept_object(data_obj(key("0110000"), ClientId{10},
                                           left_rate));
    (void)s0.handle_accept_object(data_obj(key("0111000"), ClientId{11},
                                           right_rate));
    EXPECT_TRUE(s0.force_split(group("011*", 7)));
    const auto* m = env0.last_as<AcceptKeyGroup>();
    ASSERT_NE(m, nullptr);
    s1.deliver(ServerId{0}, *m);
    env0.sent.clear();
    env1.sent.clear();
  }

  /// One protocol round: child load-checks (sends report), parent
  /// load-checks (may send reclaim), then messages are ferried.
  void pump_round() {
    s1.run_load_check();
    deliver_all(env1, s0, ServerId{1});
    s0.run_load_check();
    deliver_all(env0, s1, ServerId{0});
    deliver_all(env1, s0, ServerId{1});
  }

  static void deliver_all(MockServerEnv& env, ClashServer& to,
                          ServerId from) {
    auto pending = std::move(env.sent);
    env.sent.clear();
    for (const auto& [dest, msg] : pending) {
      ASSERT_EQ(dest, to.id());
      to.deliver(from, msg);
    }
  }
};

TEST(Consolidation, ColdSiblingsMergeBack) {
  SplitPair pair;
  pair.do_split(10, 10);  // both halves cold (total 20 << 45)

  pair.pump_round();

  // The parent reclaimed 0111*: entry active again, child erased.
  const auto* parent = pair.s0.table().find(group("011*", 7));
  ASSERT_NE(parent, nullptr);
  EXPECT_TRUE(parent->active);
  EXPECT_FALSE(parent->right_child.valid());
  EXPECT_EQ(pair.s0.table().find(group("0110*", 7)), nullptr);
  EXPECT_EQ(pair.s1.table().find(group("0111*", 7)), nullptr);
  EXPECT_EQ(pair.s0.stats().merges, 1u);

  // State (both streams) lives at the parent again.
  EXPECT_EQ(pair.s0.total_streams(), 2u);
  EXPECT_EQ(pair.s1.total_streams(), 0u);
  EXPECT_EQ(pair.s0.table().check_invariants(), std::nullopt);
  EXPECT_EQ(pair.s1.table().check_invariants(), std::nullopt);
}

TEST(Consolidation, HotCombinedLoadBlocksMerge) {
  SplitPair pair;
  pair.do_split(30, 30);  // combined 60 > merge target 45

  pair.pump_round();

  EXPECT_EQ(pair.s0.stats().merges, 0u);
  EXPECT_FALSE(pair.s0.table().find(group("011*", 7))->active);
  EXPECT_NE(pair.s1.table().find(group("0111*", 7)), nullptr);
}

TEST(Consolidation, BusyChildRefuses) {
  SplitPair pair;
  pair.do_split(10, 10);

  // Child splits its group further before the parent's reclaim lands.
  pair.env1.lookup_fn = [](dht::HashKey) {
    return dht::LookupResult{ServerId{2}, 1};
  };
  ASSERT_TRUE(pair.s1.force_split(group("0111*", 7)));
  pair.env1.sent.clear();

  // Parent still believes the child is a cold leaf (stale report from
  // an earlier round): drive a reclaim directly.
  ReclaimKeyGroup reclaim{group("0111*", 7)};
  pair.s1.deliver(ServerId{0}, reclaim);
  ASSERT_EQ(pair.env1.sent.size(), 1u);
  EXPECT_NE(std::get_if<ReclaimRefused>(&pair.env1.sent[0].second), nullptr);
  EXPECT_EQ(pair.s1.stats().merge_refusals, 1u);

  // Parent handles the refusal gracefully.
  pair.s0.deliver(ServerId{1}, ReclaimRefused{group("0111*", 7)});
  EXPECT_EQ(pair.s0.stats().merges, 0u);
  EXPECT_EQ(pair.s0.table().check_invariants(), std::nullopt);
}

TEST(Consolidation, RootEntriesAreAFloor) {
  MockServerEnv env;
  ClashServer s(ServerId{0}, cfg7(), env, hasher());
  // Two local sibling roots under a local inactive parent: without the
  // root flag this would merge immediately (all cold, all local).
  s.install_entry({group("01*", 7), false, ServerId{}, ServerId{0}, false});
  s.install_entry({group("010*", 7), false, ServerId{0}, ServerId{}, true});
  s.install_entry({group("011*", 7), false, ServerId{0}, ServerId{}, true});
  ASSERT_TRUE(s.mark_group_root(group("010*", 7)));
  ASSERT_TRUE(s.mark_group_root(group("011*", 7)));

  s.run_load_check();  // zero load => underloaded
  EXPECT_EQ(s.stats().merges, 0u);
  EXPECT_TRUE(s.table().find(group("010*", 7))->active);
  EXPECT_TRUE(s.table().find(group("011*", 7))->active);
}

TEST(Consolidation, LocalSiblingsMergeWithoutMessages) {
  MockServerEnv env;
  ClashServer s(ServerId{0}, cfg7(), env, hasher());
  s.install_entry({group("01*", 7), false, ServerId{}, ServerId{0}, false});
  s.install_entry({group("010*", 7), false, ServerId{0}, ServerId{}, true});
  s.install_entry({group("011*", 7), false, ServerId{0}, ServerId{}, true});
  (void)s.handle_accept_object(data_obj(key("0100000"), ClientId{1}, 5));
  (void)s.handle_accept_object(data_obj(key("0110000"), ClientId{2}, 5));

  s.run_load_check();
  EXPECT_EQ(s.stats().merges, 1u);
  EXPECT_TRUE(s.table().find(group("01*", 7))->active);
  EXPECT_EQ(s.table().find(group("010*", 7)), nullptr);
  EXPECT_EQ(s.table().find(group("011*", 7)), nullptr);
  EXPECT_EQ(s.total_streams(), 2u);
  EXPECT_TRUE(env.sent.empty());  // purely local
  EXPECT_EQ(s.table().check_invariants(), std::nullopt);
}

TEST(Consolidation, MergeKeepsStreamRateTheSumOfItsStreams) {
  // A TCP client may re-register a source under a key in the sibling
  // group without withdrawing it first, so both halves hold it. The
  // merged parent keeps one copy (the right half's), and its rate must
  // count that copy once.
  MockServerEnv env;
  ClashServer s(ServerId{0}, cfg7(), env, hasher());
  s.install_entry({group("01*", 7), false, ServerId{}, ServerId{0}, false});
  s.install_entry({group("010*", 7), false, ServerId{0}, ServerId{}, true});
  s.install_entry({group("011*", 7), false, ServerId{0}, ServerId{}, true});
  (void)s.handle_accept_object(data_obj(key("0100000"), ClientId{1}, 5));
  (void)s.handle_accept_object(data_obj(key("0100001"), ClientId{2}, 3));
  (void)s.handle_accept_object(data_obj(key("0110000"), ClientId{1}, 7));

  s.run_load_check();
  ASSERT_EQ(s.stats().merges, 1u);
  const GroupState* parent = s.group_state(group("01*", 7));
  ASSERT_NE(parent, nullptr);
  ASSERT_EQ(parent->streams.size(), 2u);
  double sum = 0;
  for (const auto& [_, st] : parent->streams) sum += st.rate;
  EXPECT_DOUBLE_EQ(parent->stream_rate, sum);
  EXPECT_DOUBLE_EQ(parent->streams.find(ClientId{1})->second.rate, 7);
}

TEST(Consolidation, MergeKeepsOneCopyOfAWideQuery) {
  // The split handed each half a copy of a query whose scope covers
  // the whole parent; the reclaim brings them back together as one.
  SplitPair pair;
  AcceptObject q;
  q.key = key("0110000");
  q.kind = ObjectKind::kQuery;
  q.query_id = QueryId{5};
  q.scope_depth = 2;
  (void)pair.s0.handle_accept_object(q);
  pair.do_split(10, 10);
  ASSERT_EQ(pair.s0.total_queries(), 1u);
  ASSERT_EQ(pair.s1.total_queries(), 1u);
  EXPECT_EQ(pair.s1.match(cq::Record{key("0111111"), {}}), 1u);

  pair.pump_round();
  ASSERT_EQ(pair.s0.stats().merges, 1u);
  EXPECT_EQ(pair.s0.total_queries(), 1u);
  EXPECT_EQ(pair.s1.total_queries(), 0u);
  EXPECT_EQ(pair.s0.match(cq::Record{key("0111111"), {}}), 1u);
  EXPECT_EQ(pair.s0.match(cq::Record{key("0110000"), {}}), 1u);
}

TEST(Consolidation, DisabledByConfig) {
  auto cfg = cfg7();
  cfg.enable_consolidation = false;
  MockServerEnv env;
  ClashServer s(ServerId{0}, cfg, env, hasher());
  s.install_entry({group("01*", 7), false, ServerId{}, ServerId{0}, false});
  s.install_entry({group("010*", 7), false, ServerId{0}, ServerId{}, true});
  s.install_entry({group("011*", 7), false, ServerId{0}, ServerId{}, true});
  s.run_load_check();
  EXPECT_EQ(s.stats().merges, 0u);
}

TEST(Consolidation, MergedGroupCanMergeFurtherUp) {
  // After 011* is reclaimed at the parent owner, the parent's own
  // lineage (01* -> 011* remote at us? here all local) allows another
  // round of consolidation to roll up again.
  MockServerEnv env;
  ClashServer s(ServerId{0}, cfg7(), env, hasher());
  s.install_entry({group("0*", 7), false, ServerId{}, ServerId{0}, false});
  s.install_entry({group("00*", 7), false, ServerId{0}, ServerId{}, true});
  s.install_entry({group("01*", 7), false, ServerId{0}, ServerId{0}, false});
  s.install_entry({group("010*", 7), false, ServerId{0}, ServerId{}, true});
  s.install_entry({group("011*", 7), false, ServerId{0}, ServerId{}, true});

  s.run_load_check();  // merges 010*/011* -> 01*
  EXPECT_EQ(s.stats().merges, 1u);
  s.run_load_check();  // merges 00*/01* -> 0*
  EXPECT_EQ(s.stats().merges, 2u);
  EXPECT_TRUE(s.table().find(group("0*", 7))->active);
  EXPECT_EQ(s.table().size(), 1u);
  EXPECT_EQ(s.table().check_invariants(), std::nullopt);
}

}  // namespace
}  // namespace clash
