// Binary splitting (Sections 4-5): message-level unit tests with a
// scripted environment plus cluster-level checks.
#include <gtest/gtest.h>

#include "clash/server.hpp"
#include "tests/clash/test_util.hpp"

namespace clash {
namespace {

using testing::MockServerEnv;
using testing::group;
using testing::key;

ClashConfig small_config(unsigned width = 7) {
  ClashConfig cfg;
  cfg.key_width = width;
  cfg.initial_depth = 3;
  cfg.capacity = 100;
  return cfg;
}

dht::KeyHasher hasher() { return dht::KeyHasher(32); }

AcceptObject data_obj(const Key& k, ClientId src, double rate) {
  AcceptObject obj;
  obj.key = k;
  obj.kind = ObjectKind::kData;
  obj.source = src;
  obj.stream_rate = rate;
  obj.depth = 0;
  return obj;
}

TEST(Split, ShedsRightHalfToPeer) {
  MockServerEnv env;
  env.lookup_fn = [](dht::HashKey) { return dht::LookupResult{ServerId{7}, 2}; };
  ClashServer s(ServerId{0}, small_config(), env, hasher());
  s.install_entry({group("011*", 7), true, ServerId{}, ServerId{}, true});

  // Streams on both sides of the split point (bit 3).
  (void)s.handle_accept_object(data_obj(key("0110000"), ClientId{1}, 10));
  (void)s.handle_accept_object(data_obj(key("0110111"), ClientId{2}, 10));
  (void)s.handle_accept_object(data_obj(key("0111000"), ClientId{3}, 10));

  ASSERT_TRUE(s.force_split(group("011*", 7)));

  // Table: 011* inactive pointing at s7; 0110* active here.
  const auto* parent = s.table().find(group("011*", 7));
  ASSERT_NE(parent, nullptr);
  EXPECT_FALSE(parent->active);
  EXPECT_EQ(parent->right_child, ServerId{7});
  const auto* left = s.table().find(group("0110*", 7));
  ASSERT_NE(left, nullptr);
  EXPECT_TRUE(left->active);
  EXPECT_EQ(left->parent, ServerId{0});
  EXPECT_EQ(s.table().check_invariants(), std::nullopt);

  // The ACCEPT_KEYGROUP carries exactly the right-half state.
  ASSERT_EQ(env.sent.size(), 1u);
  EXPECT_EQ(env.sent[0].first, ServerId{7});
  const auto* msg = std::get_if<AcceptKeyGroup>(&env.sent[0].second);
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->group, group("0111*", 7));
  EXPECT_EQ(msg->parent, ServerId{0});
  ASSERT_EQ(msg->streams.size(), 1u);
  EXPECT_EQ(msg->streams[0].source, ClientId{3});

  // Local state kept the left half.
  const auto* left_state = s.group_state(group("0110*", 7));
  ASSERT_NE(left_state, nullptr);
  EXPECT_EQ(left_state->streams.size(), 2u);
  EXPECT_DOUBLE_EQ(left_state->stream_rate, 20.0);
  EXPECT_EQ(s.stats().splits, 1u);
  EXPECT_EQ(s.stats().self_remaps, 0u);
}

TEST(Split, SelfRemapIncreasesDepthAgain) {
  MockServerEnv env;
  int calls = 0;
  // First right-child lookup maps back to self; the retry finds a peer.
  env.lookup_fn = [&](dht::HashKey) {
    ++calls;
    return dht::LookupResult{calls == 1 ? ServerId{0} : ServerId{9}, 1};
  };
  ClashServer s(ServerId{0}, small_config(), env, hasher());
  s.install_entry({group("011*", 7), true, ServerId{}, ServerId{}, true});
  // Overload the group (capacity 100, threshold 90): the load-shedding
  // path retries the randomized choice on a self-map.
  (void)s.handle_accept_object(data_obj(key("0111100"), ClientId{1}, 80));
  (void)s.handle_accept_object(data_obj(key("0111000"), ClientId{2}, 40));

  s.run_load_check();
  ASSERT_EQ(s.stats().splits, 1u);

  // 011* -> {0110* local} + 0111* self-remapped ->
  //   {01110* local} + 01111* shed to s9.
  EXPECT_FALSE(s.table().find(group("011*", 7))->active);
  EXPECT_TRUE(s.table().find(group("0110*", 7))->active);
  const auto* mid = s.table().find(group("0111*", 7));
  ASSERT_NE(mid, nullptr);
  EXPECT_FALSE(mid->active);
  EXPECT_EQ(mid->right_child, ServerId{9});
  EXPECT_TRUE(s.table().find(group("01110*", 7))->active);
  EXPECT_EQ(s.table().check_invariants(), std::nullopt);
  EXPECT_EQ(s.stats().self_remaps, 1u);

  const auto* msg = env.last_as<AcceptKeyGroup>();
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->group, group("01111*", 7));
  ASSERT_EQ(msg->streams.size(), 1u);
  EXPECT_EQ(msg->streams[0].source, ClientId{1});
  // 0111000 (40 units) stayed local under 01110*.
  const auto* kept = s.group_state(group("01110*", 7));
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept->streams.size(), 1u);
  EXPECT_DOUBLE_EQ(s.server_load(), 40.0);
}

TEST(Split, MaxDepthGroupCannotSplit) {
  MockServerEnv env;
  ClashServer s(ServerId{0}, small_config(), env, hasher());
  s.install_entry({group("0110101", 7), true, ServerId{}, ServerId{}, true});
  EXPECT_FALSE(s.force_split(group("0110101", 7)));
  EXPECT_TRUE(env.sent.empty());
}

TEST(Split, InactiveGroupCannotSplit) {
  MockServerEnv env;
  ClashServer s(ServerId{0}, small_config(), env, hasher());
  s.install_entry({group("011*", 7), true, ServerId{}, ServerId{7}, false});
  EXPECT_FALSE(s.force_split(group("011*", 7)));
}

TEST(Split, QueriesMigrateWithRightHalf) {
  MockServerEnv env;
  env.lookup_fn = [](dht::HashKey) { return dht::LookupResult{ServerId{3}, 1}; };
  ClashServer s(ServerId{0}, small_config(), env, hasher());
  s.install_entry({group("01*", 7), true, ServerId{}, ServerId{}, true});

  AcceptObject q1;
  q1.key = key("0111111");
  q1.kind = ObjectKind::kQuery;
  q1.query_id = QueryId{100};
  (void)s.handle_accept_object(q1);
  AcceptObject q2 = q1;
  q2.key = key("0100000");
  q2.query_id = QueryId{200};
  (void)s.handle_accept_object(q2);

  ASSERT_TRUE(s.force_split(group("01*", 7)));
  const auto* msg = env.last_as<AcceptKeyGroup>();
  ASSERT_NE(msg, nullptr);
  ASSERT_EQ(msg->queries.size(), 1u);
  EXPECT_EQ(msg->queries[0].id, QueryId{100});
  EXPECT_EQ(s.stats().state_transfer_msgs, 1u);
  EXPECT_EQ(s.total_queries(), 1u);
}

TEST(Split, ReceiverMustAcceptAndAck) {
  MockServerEnv env;
  ClashServer s(ServerId{5}, small_config(), env, hasher());
  AcceptKeyGroup m;
  m.group = group("0111*", 7);
  m.parent = ServerId{0};
  m.streams.push_back({ClientId{9}, key("0111100"), 4.0});
  m.queries.push_back({QueryId{1}, key("0111000")});
  s.deliver(ServerId{0}, m);

  const auto* e = s.table().find(group("0111*", 7));
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->active);
  EXPECT_EQ(e->parent, ServerId{0});
  EXPECT_EQ(s.total_streams(), 1u);
  EXPECT_EQ(s.total_queries(), 1u);
  ASSERT_EQ(env.sent.size(), 1u);
  EXPECT_EQ(env.sent[0].first, ServerId{0});
  EXPECT_NE(std::get_if<AcceptKeyGroupAck>(&env.sent[0].second), nullptr);
}

TEST(Split, OverloadTriggersHottestGroupSplit) {
  MockServerEnv env;
  env.lookup_fn = [](dht::HashKey) { return dht::LookupResult{ServerId{2}, 1}; };
  ClashConfig cfg = small_config();
  cfg.capacity = 100;  // overload above 90
  ClashServer s(ServerId{0}, cfg, env, hasher());
  s.install_entry({group("00*", 7), true, ServerId{}, ServerId{}, true});
  s.install_entry({group("01*", 7), true, ServerId{}, ServerId{}, true});
  (void)s.handle_accept_object(data_obj(key("0000000"), ClientId{1}, 30));
  (void)s.handle_accept_object(data_obj(key("0100000"), ClientId{2}, 80));

  s.run_load_check();
  EXPECT_EQ(s.stats().splits, 1u);
  // The hottest group (01*) was the one split.
  EXPECT_FALSE(s.table().find(group("01*", 7))->active);
  EXPECT_TRUE(s.table().find(group("00*", 7))->active);
}

TEST(Split, NormalLoadDoesNothing) {
  MockServerEnv env;
  ClashServer s(ServerId{0}, small_config(), env, hasher());
  s.install_entry({group("01*", 7), true, ServerId{}, ServerId{}, true});
  (void)s.handle_accept_object(data_obj(key("0100000"), ClientId{1}, 70));
  s.run_load_check();
  EXPECT_EQ(s.stats().splits, 0u);
  EXPECT_TRUE(s.table().find(group("01*", 7))->active);
}

TEST(Split, RespectsMaxSplitsPerCheck) {
  MockServerEnv env;
  env.lookup_fn = [](dht::HashKey) { return dht::LookupResult{ServerId{2}, 1}; };
  ClashConfig cfg = small_config();
  cfg.max_splits_per_check = 3;
  ClashServer s(ServerId{0}, cfg, env, hasher());
  s.install_entry({group("0*", 7), true, ServerId{}, ServerId{}, true});
  // One extremely hot stream on a single key: splitting sheds half the
  // key space repeatedly but the hot key stays, so up to 3 splits run.
  (void)s.handle_accept_object(data_obj(key("0000000"), ClientId{1}, 500));
  s.run_load_check();
  EXPECT_EQ(s.stats().splits + s.stats().self_remaps, 3u);
}

// The Figure 1 walk-through: "011*" splits at s0 (right child to s12),
// s12 splits "0111*" (right to s5), then splits "01110*" again (right
// to s7). We script the DHT to reproduce the exact server assignments.
TEST(Split, Figure1Scenario) {
  MockServerEnv env0, env12;
  ClashServer s0(ServerId{0}, small_config(), env0, hasher());
  ClashServer s12(ServerId{12}, small_config(), env12, hasher());

  env0.lookup_fn = [](dht::HashKey) {
    return dht::LookupResult{ServerId{12}, 2};
  };
  s0.install_entry({group("011*", 7), true, ServerId{}, ServerId{}, true});
  ASSERT_TRUE(s0.force_split(group("011*", 7)));
  // s0 keeps 0110*, hands 0111* to s12.
  EXPECT_TRUE(s0.table().find(group("0110*", 7))->active);
  const auto* transfer = env0.last_as<AcceptKeyGroup>();
  ASSERT_NE(transfer, nullptr);
  s12.deliver(ServerId{0}, *transfer);

  // s12 splits 0111* with right child s5.
  env12.lookup_fn = [](dht::HashKey) {
    return dht::LookupResult{ServerId{5}, 2};
  };
  ASSERT_TRUE(s12.force_split(group("0111*", 7)));
  EXPECT_TRUE(s12.table().find(group("01110*", 7))->active);
  EXPECT_EQ(env12.last_as<AcceptKeyGroup>()->group, group("01111*", 7));

  // s12 splits 01110* with right child s7.
  env12.lookup_fn = [](dht::HashKey) {
    return dht::LookupResult{ServerId{7}, 2};
  };
  ASSERT_TRUE(s12.force_split(group("01110*", 7)));
  EXPECT_TRUE(s12.table().find(group("011100*", 7))->active);
  EXPECT_EQ(env12.last_as<AcceptKeyGroup>()->group, group("011101*", 7));

  // Final tables are consistent and reflect the Figure 1 leaves.
  EXPECT_EQ(s0.table().check_invariants(), std::nullopt);
  EXPECT_EQ(s12.table().check_invariants(), std::nullopt);
  EXPECT_EQ(s12.table().find(group("0111*", 7))->right_child, ServerId{5});
  EXPECT_EQ(s12.table().find(group("01110*", 7))->right_child, ServerId{7});
}

// Splitting a zero-load group is pointless; the picker skips it even
// under overload pressure from an unsplittable group.
TEST(Split, ZeroLoadGroupNotSplit) {
  MockServerEnv env;
  env.lookup_fn = [](dht::HashKey) { return dht::LookupResult{ServerId{2}, 1}; };
  ClashConfig cfg = small_config();
  ClashServer s(ServerId{0}, cfg, env, hasher());
  // The hot group is a single full-depth key (unsplittable); the cold
  // group has zero load.
  s.install_entry({group("0110101", 7), true, ServerId{}, ServerId{}, true});
  s.install_entry({group("1*", 7), true, ServerId{}, ServerId{}, true});
  (void)s.handle_accept_object(data_obj(key("0110101"), ClientId{1}, 500));
  s.run_load_check();
  EXPECT_EQ(s.stats().splits, 0u);
  EXPECT_TRUE(s.table().find(group("1*", 7))->active);
}

}  // namespace
}  // namespace clash
