#include "cq/query_index.hpp"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"

namespace clash::cq {
namespace {

QueryInfo query(std::uint64_t id, const char* scope,
                std::vector<Predicate> preds = {}) {
  const KeyGroup g = KeyGroup::parse(scope, 8).value();
  return QueryInfo(QueryId{id}, g.virtual_key(), g.depth(), std::move(preds));
}

Record record(std::uint64_t key, std::vector<std::int64_t> attrs = {}) {
  return Record{Key(key, 8), std::move(attrs)};
}

TEST(QueryIndex, MatchesByScopePrefix) {
  QueryIndex idx;
  idx.insert(query(1, "0110*"));
  idx.insert(query(2, "01*"));
  idx.insert(query(3, "1*"));

  EXPECT_EQ(idx.match(record(0b01101010)), 2u);  // 01* and 0110*
  EXPECT_EQ(idx.match(record(0b01011010)), 1u);  // 01* only
  EXPECT_EQ(idx.match(record(0b10000000)), 1u);  // 1* only
  EXPECT_EQ(idx.match(record(0b00000000)), 0u);
}

TEST(QueryIndex, MatchReportsEachHit) {
  QueryIndex idx;
  EXPECT_EQ(idx.match(record(0)), 0u);  // an empty index matches nothing
  idx.insert(query(1, "0110*"));
  idx.insert(query(2, "0*"));

  EXPECT_EQ(idx.match(record(0b01101111)), 2u);
  EXPECT_EQ(idx.match(record(0b00101111)), 1u);
  EXPECT_EQ(idx.match(record(0b11111111)), 0u);
}

TEST(QueryIndex, PredicatesFilterWithinScope) {
  QueryIndex idx;
  idx.insert(query(1, "0110*", {{0, Predicate::Op::kGt, 10}}));
  EXPECT_EQ(idx.match(record(0b01100000, {5})), 0u);
  EXPECT_EQ(idx.match(record(0b01100000, {11})), 1u);
}

TEST(QueryIndex, ConjunctivePredicatesNeedEveryAttribute) {
  QueryIndex idx;
  idx.insert(query(9, "0*",
                   {{0, Predicate::Op::kGt, 10}, {1, Predicate::Op::kEq, -3}}));
  EXPECT_EQ(idx.match(record(0b00000001, {11, -3})), 1u);
  EXPECT_EQ(idx.match(record(0b00000001, {11, 4})), 0u);
  EXPECT_EQ(idx.match(record(0b00000001, {10, -3})), 0u);
  EXPECT_EQ(idx.match(record(0b00000001, {11})), 0u);  // attr 1 absent
}

TEST(QueryIndex, EraseRemoves) {
  QueryIndex idx;
  idx.insert(query(1, "0110*"));
  EXPECT_TRUE(idx.erase(QueryId{1}));
  EXPECT_FALSE(idx.erase(QueryId{1}));
  EXPECT_EQ(idx.match(record(0b01101010)), 0u);
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_TRUE(idx.empty());
}

TEST(QueryIndex, DuplicateIdThrows) {
  QueryIndex idx;
  idx.insert(query(1, "0110*"));
  EXPECT_THROW(idx.insert(query(1, "1*")), std::invalid_argument);
  EXPECT_EQ(idx.size(), 1u);
  EXPECT_EQ(idx.match(record(0b11111111)), 0u);  // the first copy stays
}

TEST(QueryIndex, UpsertReplacesScopeAndPredicates) {
  QueryIndex idx;
  idx.insert(query(1, "0110*"));
  idx.insert(query(2, "0110*"));
  idx.upsert(query(1, "1*", {{0, Predicate::Op::kEq, 7}}));

  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx.find(QueryId{1})->second.scope(),
            KeyGroup::parse("1*", 8).value());
  EXPECT_EQ(idx.match(record(0b01100000)), 1u);  // query 2 only
  EXPECT_EQ(idx.match(record(0b10000000, {7})), 1u);
  EXPECT_EQ(idx.match(record(0b10000000, {6})), 0u);
  EXPECT_EQ(idx.count(QueryId{3}), 0u);
}

TEST(QueryIndex, FullDepthScope) {
  QueryIndex idx;
  idx.insert(query(1, "01101010"));
  EXPECT_EQ(idx.match(record(0b01101010)), 1u);
  EXPECT_EQ(idx.match(record(0b01101011)), 0u);
}

TEST(QueryIndex, RecordOfAnotherWidthMatchesNothing) {
  QueryIndex idx;
  idx.insert(query(1, "*"));
  EXPECT_EQ(idx.match(Record{Key(0, 4), {}}), 0u);
  EXPECT_EQ(idx.match(Record{Key(0, 16), {}}), 0u);
}

// Property: index results agree with brute-force evaluation over random
// query sets, upserts, erases and records.
TEST(QueryIndex, MatchesBruteForce) {
  Rng rng(4242);
  QueryIndex idx;
  std::map<std::uint64_t, QueryInfo> all;
  const auto random_query = [&rng](std::uint64_t id) {
    const unsigned depth = unsigned(rng.below(9));
    QueryInfo q(QueryId{id}, Key(rng.next() & 0xFF, 8), depth);
    if (rng.bernoulli(0.5)) {
      q.predicates.push_back(
          {0, Predicate::Op::kGe, std::int64_t(rng.below(10))});
    }
    return q;
  };
  for (std::uint64_t i = 0; i < 64; ++i) {
    const QueryInfo q = random_query(i);
    idx.insert(q);
    all.insert_or_assign(i, q);
  }
  for (std::uint64_t i = 0; i < 64; i += 3) {
    const QueryInfo q = random_query(i);
    idx.upsert(q);
    all.insert_or_assign(i, q);
  }
  for (std::uint64_t i = 1; i < 64; i += 5) {
    EXPECT_TRUE(idx.erase(QueryId{i}));
    all.erase(i);
  }
  ASSERT_EQ(idx.size(), all.size());
  for (int trial = 0; trial < 200; ++trial) {
    const Record r{Key(rng.next() & 0xFF, 8), {std::int64_t(rng.below(10))}};
    std::size_t expect = 0;
    for (const auto& [_, q] : all) expect += q.matches(r);
    EXPECT_EQ(idx.match(r), expect);
  }
}

}  // namespace
}  // namespace clash::cq
