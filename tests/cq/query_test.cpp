#include "cq/query.hpp"

#include <gtest/gtest.h>

#include "clash/objects.hpp"

namespace clash::cq {
namespace {

Record record(const char* key_bits, std::vector<std::int64_t> attrs = {}) {
  return Record{Key::parse(key_bits).value(), std::move(attrs)};
}

TEST(Predicate, AllOperators) {
  using Op = Predicate::Op;
  EXPECT_TRUE((Predicate{0, Op::kEq, 5}.eval(5)));
  EXPECT_FALSE((Predicate{0, Op::kEq, 5}.eval(6)));
  EXPECT_TRUE((Predicate{0, Op::kNe, 5}.eval(6)));
  EXPECT_TRUE((Predicate{0, Op::kLt, 5}.eval(4)));
  EXPECT_FALSE((Predicate{0, Op::kLt, 5}.eval(5)));
  EXPECT_TRUE((Predicate{0, Op::kLe, 5}.eval(5)));
  EXPECT_TRUE((Predicate{0, Op::kGt, 5}.eval(6)));
  EXPECT_TRUE((Predicate{0, Op::kGe, 5}.eval(5)));
  EXPECT_FALSE((Predicate{0, Op::kGe, 5}.eval(4)));
}

TEST(Predicate, ToString) {
  EXPECT_EQ((Predicate{2, Predicate::Op::kLe, 9}.to_string()), "a2 <= 9");
}

TEST(ContinuousQuery, ScopeFiltersKeys) {
  const QueryInfo q(QueryId{1}, Key::parse("0110011").value(), 4);
  EXPECT_EQ(q.scope(), KeyGroup::parse("0110*", 7).value());
  EXPECT_TRUE(q.matches(record("0110101")));
  EXPECT_FALSE(q.matches(record("0111101")));
  // The scope defaults to the key itself.
  const QueryInfo exact(QueryId{2}, Key::parse("0110011").value());
  EXPECT_EQ(exact.scope_depth, 7u);
  EXPECT_TRUE(exact.matches(record("0110011")));
  EXPECT_FALSE(exact.matches(record("0110010")));
}

TEST(ContinuousQuery, ConjunctivePredicates) {
  const QueryInfo q(QueryId{1}, Key(0, 7), 0,
                    {{0, Predicate::Op::kGe, 10}, {1, Predicate::Op::kLt, 5}});
  EXPECT_TRUE(q.matches(record("0000000", {10, 4})));
  EXPECT_FALSE(q.matches(record("0000000", {9, 4})));
  EXPECT_FALSE(q.matches(record("0000000", {10, 5})));
}

TEST(ContinuousQuery, MissingAttributeFailsPredicate) {
  const QueryInfo q(QueryId{1}, Key(0, 7), 0, {{3, Predicate::Op::kEq, 1}});
  EXPECT_FALSE(q.matches(record("0000000", {1})));  // attr 3 absent
}

TEST(Record, AttrAccess) {
  const auto r = record("0000000", {7, 8});
  EXPECT_EQ(r.attr(0), 7);
  EXPECT_EQ(r.attr(1), 8);
  EXPECT_EQ(r.attr(2), std::nullopt);
}

}  // namespace
}  // namespace clash::cq
