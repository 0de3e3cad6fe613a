// MembershipView: SWIM rumour precedence, refutation, dissemination
// budgets, and join/death event reporting.
#include "membership/view.hpp"

#include <gtest/gtest.h>

namespace clash::membership {
namespace {

MembershipView seeded_view(std::size_t n, ServerId self = ServerId{0}) {
  MembershipView view(self);
  for (std::size_t i = 0; i < n; ++i) view.add_seed(ServerId{i});
  return view;
}

TEST(MembershipView, SeedsStartAliveAndSilent) {
  auto view = seeded_view(4);
  EXPECT_EQ(view.state_of(ServerId{1}), MemberState::kAlive);
  EXPECT_EQ(view.incarnation_of(ServerId{1}), 0u);
  EXPECT_EQ(view.pending_rumours(), 0u);  // everyone already has the seeds
  EXPECT_EQ(view.probe_candidates().size(), 3u);  // excludes self
  EXPECT_EQ(view.living_members().size(), 4u);    // includes self
}

TEST(MembershipView, AliveNeedsStrictlyNewerIncarnation) {
  auto view = seeded_view(3);
  view.suspect(ServerId{1});
  ASSERT_EQ(view.state_of(ServerId{1}), MemberState::kSuspect);

  // Same incarnation cannot refute a suspicion.
  EXPECT_FALSE(view.apply({ServerId{1}, MemberState::kAlive, 0}));
  EXPECT_EQ(view.state_of(ServerId{1}), MemberState::kSuspect);

  // A bumped incarnation does.
  EXPECT_TRUE(view.apply({ServerId{1}, MemberState::kAlive, 1}));
  EXPECT_EQ(view.state_of(ServerId{1}), MemberState::kAlive);
  EXPECT_EQ(view.incarnation_of(ServerId{1}), 1u);
}

TEST(MembershipView, SuspectBeatsAliveAtSameIncarnation) {
  auto view = seeded_view(3);
  EXPECT_TRUE(view.apply({ServerId{1}, MemberState::kSuspect, 0}));
  EXPECT_EQ(view.state_of(ServerId{1}), MemberState::kSuspect);
  // But a stale suspicion cannot reinstate itself after a refutation.
  EXPECT_TRUE(view.apply({ServerId{1}, MemberState::kAlive, 1}));
  EXPECT_FALSE(view.apply({ServerId{1}, MemberState::kSuspect, 0}));
  EXPECT_EQ(view.state_of(ServerId{1}), MemberState::kAlive);
}

TEST(MembershipView, DeadIsIncarnationGated) {
  auto view = seeded_view(3);
  EXPECT_TRUE(view.apply({ServerId{1}, MemberState::kAlive, 7}));
  // A stale dead rumour (older incarnation) lost to the refutation at
  // incarnation 7 and must not re-kill the member.
  EXPECT_FALSE(view.apply({ServerId{1}, MemberState::kDead, 6}));
  EXPECT_EQ(view.state_of(ServerId{1}), MemberState::kAlive);

  // A current one does kill it.
  EXPECT_TRUE(view.apply({ServerId{1}, MemberState::kDead, 7}));
  EXPECT_EQ(view.state_of(ServerId{1}), MemberState::kDead);
  const auto died = view.take_died();
  ASSERT_EQ(died.size(), 1u);
  EXPECT_EQ(died[0], ServerId{1});

  // Only a strictly newer alive (a restart that learned of its own
  // death) resurrects.
  EXPECT_FALSE(view.apply({ServerId{1}, MemberState::kAlive, 7}));
  EXPECT_TRUE(view.apply({ServerId{1}, MemberState::kAlive, 8}));
  EXPECT_EQ(view.state_of(ServerId{1}), MemberState::kAlive);
  const auto joined = view.take_joined();
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0], ServerId{1});
}

TEST(MembershipView, SelfSuspicionIsRefutedWithBump) {
  auto view = seeded_view(3);
  EXPECT_TRUE(view.apply({ServerId{0}, MemberState::kSuspect, 0}));
  EXPECT_EQ(view.self_incarnation(), 1u);
  EXPECT_EQ(view.state_of(ServerId{0}), MemberState::kAlive);

  // The refutation is queued for dissemination.
  const auto updates = view.pick_updates(8);
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates[0].subject, ServerId{0});
  EXPECT_EQ(updates[0].state, MemberState::kAlive);
  EXPECT_EQ(updates[0].incarnation, 1u);
}

TEST(MembershipView, SelfDeathRumourIsRefutedToo) {
  auto view = seeded_view(3);
  EXPECT_TRUE(view.apply({ServerId{0}, MemberState::kDead, 4}));
  EXPECT_EQ(view.self_incarnation(), 5u);
  EXPECT_EQ(view.state_of(ServerId{0}), MemberState::kAlive);
}

TEST(MembershipView, UnknownAliveMemberJoins) {
  auto view = seeded_view(2);
  EXPECT_TRUE(view.apply({ServerId{9}, MemberState::kAlive, 0}));
  EXPECT_TRUE(view.knows(ServerId{9}));
  const auto joined = view.take_joined();
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0], ServerId{9});
  // A rumour about an unknown dead member is recorded but not a join.
  EXPECT_TRUE(view.apply({ServerId{11}, MemberState::kDead, 0}));
  EXPECT_TRUE(view.take_joined().empty());
  EXPECT_EQ(view.state_of(ServerId{11}), MemberState::kDead);
}

TEST(MembershipView, DisseminationBudgetExhausts) {
  auto view = seeded_view(8);
  view.suspect(ServerId{1});
  std::size_t transmissions = 0;
  while (!view.pick_updates(4).empty()) {
    ++transmissions;
    ASSERT_LT(transmissions, 100u) << "budget never exhausted";
  }
  // ceil(3 * log2(9)) = 10 transmissions for an 8-member view.
  EXPECT_GE(transmissions, 5u);
  EXPECT_LE(transmissions, 16u);
}

TEST(MembershipView, SupersedingRumourResetsBudgetAndState) {
  auto view = seeded_view(4);
  view.suspect(ServerId{1});
  (void)view.pick_updates(4);
  // Refutation replaces the queued suspicion outright.
  EXPECT_TRUE(view.apply({ServerId{1}, MemberState::kAlive, 1}));
  const auto updates = view.pick_updates(4);
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates[0].state, MemberState::kAlive);
  EXPECT_EQ(updates[0].incarnation, 1u);
}

TEST(MembershipView, PickUpdatesPrefersLeastTransmitted) {
  auto view = seeded_view(6);
  view.suspect(ServerId{1});
  (void)view.pick_updates(1);  // the suspicion has now been sent once
  view.suspect(ServerId{2});   // fresh rumour
  const auto updates = view.pick_updates(1);
  ASSERT_EQ(updates.size(), 1u);
  EXPECT_EQ(updates[0].subject, ServerId{2});
}

}  // namespace
}  // namespace clash::membership
