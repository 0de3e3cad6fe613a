// Binary splitting (Sections 4-5): message-level unit tests with a
// scripted environment plus cluster-level checks.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

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

TEST(Split, WideQueryGoesToBothHalves) {
  MockServerEnv env;
  env.lookup_fn = [](dht::HashKey) { return dht::LookupResult{ServerId{3}, 1}; };
  ClashServer s(ServerId{0}, small_config(), env, hasher());
  s.install_entry({group("01*", 7), true, ServerId{}, ServerId{}, true});

  // Scope 0* is wider than the group 01* that manages its key.
  AcceptObject q;
  q.key = key("0100000");
  q.kind = ObjectKind::kQuery;
  q.query_id = QueryId{100};
  q.scope_depth = 1;
  q.predicates = {{0, cq::Predicate::Op::kEq, 4}};
  (void)s.handle_accept_object(q);

  ASSERT_TRUE(s.force_split(group("01*", 7)));
  const auto* msg = env.last_as<AcceptKeyGroup>();
  ASSERT_NE(msg, nullptr);
  ASSERT_EQ(msg->queries.size(), 1u);
  EXPECT_EQ(msg->queries[0].id, QueryId{100});
  EXPECT_EQ(msg->queries[0].scope(), group("0*", 7));
  EXPECT_EQ(msg->queries[0].predicates, q.predicates);
  EXPECT_EQ(s.total_queries(), 1u);  // 010* keeps its copy
  EXPECT_EQ(s.match(cq::Record{key("0100001"), {4}}), 1u);
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

// extract_subset partitions a group's objects: each moves exactly once
// and each side's stream_rate is the sum of its own streams. The ids are
// chosen so that a dozen objects share the last two home slots of the
// flat maps and their probe run wraps over the array end, where an
// erase-while-iterating loop would skip or revisit entries.
TEST(Split, ExtractSubsetAcrossTheSlotArrayEnd) {
  constexpr std::uint64_t kSlots = 64;  // 40 objects: capacity 64
  const auto home = [](auto id) {
    return FlatHash<decltype(id)>{}(id) >> (64 - 6);
  };
  const KeyGroup subset = group("1*", 7);
  std::vector<std::uint64_t> wrapped, rest;
  for (std::uint64_t id = 1; wrapped.size() < 12 || rest.size() < 28; ++id) {
    const std::uint64_t h = home(ClientId{id});
    if (h >= kSlots - 2 && wrapped.size() < 12) wrapped.push_back(id);
    if (h >= 8 && h < 40 && rest.size() < 28) rest.push_back(id);
  }
  GroupState st;
  double total_rate = 0;
  std::map<std::uint64_t, bool> in_subset;
  const auto add = [&](std::uint64_t id, std::uint64_t i) {
    // Alternate sides so the wrapped run mixes movers and stayers.
    const Key k((i % 2 == 0 ? 0x40 : 0x00) | (id & 0x3F), 7);
    const double rate = 0.1 * double(1 + id % 7);
    st.streams.try_emplace(ClientId{id}, StreamInfo{ClientId{id}, k, rate});
    st.stream_rate += rate;
    total_rate += rate;
    st.queries.insert(QueryInfo{QueryId{id}, k});
    in_subset[id] = subset.contains(k);
  };
  for (std::size_t i = 0; i < wrapped.size(); ++i) add(wrapped[i], i);
  for (std::size_t i = 0; i < rest.size(); ++i) add(rest[i], i);
  ASSERT_EQ(st.streams.capacity(), kSlots);

  const GroupState out = ClashServer::extract_subset(st, subset);
  EXPECT_EQ(st.streams.size() + out.streams.size(), in_subset.size());
  EXPECT_EQ(st.queries.size() + out.queries.size(), in_subset.size());
  for (const auto& [id, moves] : in_subset) {
    const GroupState& want = moves ? out : st;
    const GroupState& other = moves ? st : out;
    EXPECT_EQ(want.streams.count(ClientId{id}), 1u) << id;
    EXPECT_EQ(other.streams.count(ClientId{id}), 0u) << id;
    EXPECT_EQ(want.queries.count(QueryId{id}), 1u) << id;
    EXPECT_EQ(other.queries.count(QueryId{id}), 0u) << id;
  }
  for (const GroupState* side : {&std::as_const(st), &out}) {
    double sum = 0;
    for (const auto& [_, s] : side->streams) sum += s.rate;
    EXPECT_NEAR(side->stream_rate, sum, 1e-9);
  }
  EXPECT_NEAR(st.stream_rate + out.stream_rate, total_rate, 1e-9);
  EXPECT_FALSE(out.streams.empty());
  EXPECT_FALSE(st.streams.empty());
}

// A query lands on each side its scope intersects, under one id.
GroupState with_queries(
    std::vector<std::pair<std::uint64_t, const char*>> scopes) {
  GroupState st;
  for (const auto& [id, scope] : scopes) {
    const KeyGroup g = group(scope, 7);
    st.queries.insert(QueryInfo(QueryId{id}, g.virtual_key(), g.depth()));
  }
  return st;
}

std::set<std::uint64_t> query_ids(const GroupState& st) {
  std::set<std::uint64_t> ids;
  for (const auto& [id, _] : st.queries) ids.insert(id.value);
  return ids;
}

TEST(Split, ExtractSubsetSplitsQueriesByScope) {
  GroupState st = with_queries({
      {1, "0100000"},  // exact, left half
      {2, "0110000"},  // exact, right half
      {3, "011*"},     // the right half itself
      {4, "01*"},      // the whole group
      {5, "*"},        // wider than the group
      {6, "0101*"},    // inside the left half
  });

  const GroupState out = ClashServer::extract_subset(st, group("011*", 7));
  EXPECT_EQ(query_ids(st), (std::set<std::uint64_t>{1, 4, 5, 6}));
  EXPECT_EQ(query_ids(out), (std::set<std::uint64_t>{2, 3, 4, 5}));
}

TEST(Split, ExtractSubsetMovesQueriesInsideTheHalf) {
  GroupState st = with_queries({
      {1, "0110*"},
      {2, "01101*"},
      {3, "0111*"},
      {4, "0100000"},
  });

  const GroupState out = ClashServer::extract_subset(st, group("011*", 7));
  EXPECT_EQ(query_ids(out), (std::set<std::uint64_t>{1, 2, 3}));
}

TEST(Split, ExtractSubsetLeavesNoCopyOfAMovedQuery) {
  GroupState st = with_queries({{1, "0110*"}, {2, "010*"}});

  const GroupState out = ClashServer::extract_subset(st, group("011*", 7));
  ASSERT_EQ(out.queries.size(), 1u);
  ASSERT_EQ(st.queries.size(), 1u);
  EXPECT_EQ(st.queries.count(QueryId{1}), 0u);
  EXPECT_EQ(st.queries.count(QueryId{2}), 1u);
  EXPECT_EQ(st.queries.match(cq::Record{key("0110101"), {}}), 0u);
  EXPECT_EQ(out.queries.match(cq::Record{key("0110101"), {}}), 1u);
}

TEST(Split, MovedQueryMatchesOnTheReceiver) {
  MockServerEnv env_a, env_b;
  env_a.lookup_fn = [](dht::HashKey) {
    return dht::LookupResult{ServerId{3}, 1};
  };
  ClashServer a(ServerId{0}, small_config(), env_a, hasher());
  ClashServer b(ServerId{3}, small_config(), env_b, hasher());
  a.install_entry({group("01*", 7), true, ServerId{}, ServerId{}, true});

  AcceptObject q;
  q.key = key("0110000");
  q.kind = ObjectKind::kQuery;
  q.query_id = QueryId{1};
  q.scope_depth = 4;  // 0110*, inside the right half
  (void)a.handle_accept_object(q);
  const cq::Record r{key("0110111"), {}};
  ASSERT_EQ(a.match(r), 1u);

  ASSERT_TRUE(a.force_split(group("01*", 7)));
  const auto* msg = env_a.last_as<AcceptKeyGroup>();
  ASSERT_NE(msg, nullptr);
  b.deliver(ServerId{0}, *msg);

  EXPECT_EQ(a.total_queries(), 0u);
  EXPECT_EQ(b.total_queries(), 1u);
  EXPECT_EQ(a.match(r), 0u);
  EXPECT_EQ(b.match(r), 1u);
}

TEST(Split, RemovedQueryStopsMatching) {
  MockServerEnv env;
  ClashServer s(ServerId{0}, small_config(), env, hasher());
  s.install_entry({group("01*", 7), true, ServerId{}, ServerId{}, true});

  AcceptObject q;
  q.key = key("0100000");
  q.kind = ObjectKind::kQuery;
  q.query_id = QueryId{1};
  q.scope_depth = 2;
  (void)s.handle_accept_object(q);
  const cq::Record r{key("0111111"), {}};
  ASSERT_EQ(s.match(r), 1u);

  s.remove_query(QueryId{1}, q.key);
  EXPECT_EQ(s.total_queries(), 0u);
  EXPECT_EQ(s.match(r), 0u);
  s.remove_query(QueryId{1}, q.key);  // a second removal is a no-op
  EXPECT_EQ(s.total_queries(), 0u);
}

}  // namespace
}  // namespace clash
