#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace clash::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.at(SimTime::from_seconds(3), [&] { order.push_back(3); });
  q.at(SimTime::from_seconds(1), [&] { order.push_back(1); });
  q.at(SimTime::from_seconds(2), [&] { order.push_back(2); });
  q.run_until(SimTime::from_seconds(10));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.processed(), 3u);
}

TEST(EventQueue, TieBreaksByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  const auto t = SimTime::from_seconds(1);
  for (int i = 0; i < 5; ++i) {
    q.at(t, [&order, i] { order.push_back(i); });
  }
  q.run_until(t);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, StopsAtBoundary) {
  EventQueue q;
  int ran = 0;
  q.at(SimTime::from_seconds(1), [&] { ++ran; });
  q.at(SimTime::from_seconds(5), [&] { ++ran; });
  q.run_until(SimTime::from_seconds(2));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(q.now(), SimTime::from_seconds(2));
  q.run_until(SimTime::from_seconds(5));  // inclusive boundary
  EXPECT_EQ(ran, 2);
}

TEST(EventQueue, HandlersCanScheduleMore) {
  EventQueue q;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) q.after(SimTime::from_seconds(1), tick);
  };
  q.at(SimTime::from_seconds(1), tick);
  q.run_until(SimTime::from_seconds(100));
  EXPECT_EQ(count, 5);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ReserveDoesNotDisturbOrdering) {
  EventQueue q;
  q.reserve(1024);
  std::vector<int> order;
  // Interleave ties and distinct times across a regrowth-free bulk
  // schedule; dispatch order must stay (time, insertion) sorted.
  for (int i = 0; i < 100; ++i) {
    q.at(SimTime(std::int64_t(i % 7)), [&order, i] { order.push_back(i); });
  }
  q.run_until(SimTime(7));
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    const auto ta = order[i - 1] % 7, tb = order[i] % 7;
    EXPECT_TRUE(ta < tb || (ta == tb && order[i - 1] < order[i]))
        << "out of order at " << i;
  }
  EXPECT_EQ(q.processed(), 100u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, MovesEventsOutDuringDispatch) {
  // A handler owning a uniquely-held resource must be destroyed after
  // its single dispatch — a copying dispatch would leave a second
  // owner alive in the heap until run_until returns.
  EventQueue q;
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  long uses_at_dispatch = -1;
  q.at(SimTime(1), [token = std::move(token), &watch, &uses_at_dispatch] {
    uses_at_dispatch = watch.use_count();
  });
  q.run_until(SimTime(1));
  EXPECT_EQ(uses_at_dispatch, 1);  // the moved-out event is the only owner
  EXPECT_TRUE(watch.expired());
}

TEST(EventQueue, NowAdvancesDuringRun) {
  EventQueue q;
  SimTime seen{0};
  q.at(SimTime::from_seconds(7), [&] { seen = q.now(); });
  q.run_until(SimTime::from_seconds(10));
  EXPECT_EQ(seen, SimTime::from_seconds(7));
}

TEST(EventQueue, LaneRunsAfterTheHandlerBeforeTheNextEvent) {
  EventQueue q;
  std::vector<std::string> order;
  const auto t = SimTime::from_seconds(1);
  q.at(t, [&] {
    q.post([&] {
      order.push_back("posted");
      q.post([&] { order.push_back("posted by posted"); });
    });
    order.push_back("handler");
  });
  q.at(t, [&] { order.push_back("next event, same instant"); });
  q.run_until(t);
  EXPECT_EQ(order, (std::vector<std::string>{"handler", "posted",
                                             "posted by posted",
                                             "next event, same instant"}));
  EXPECT_EQ(q.processed(), 4u);
}

TEST(EventQueue, WorkPostedOutsideADispatchWaitsForTheNext) {
  EventQueue q;
  std::vector<std::string> order;
  EXPECT_FALSE(q.dispatching());
  q.post([&] { order.push_back("posted"); });
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(q.pending(), 1u);
  q.dispatch([&] {
    EXPECT_TRUE(q.dispatching());
    order.push_back("dispatch");
  });
  EXPECT_EQ(order, (std::vector<std::string>{"dispatch", "posted"}));

  // A run_until runs leftover lane work before its first event.
  q.post([&] { order.push_back("posted again"); });
  q.at(SimTime(1), [&] { order.push_back("event"); });
  q.run_until(SimTime(1));
  EXPECT_EQ(order.back(), "event");
  EXPECT_EQ(order[order.size() - 2], "posted again");
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace clash::sim
