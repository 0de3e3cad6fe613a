// Discrete-event core: a time-ordered queue of closures, plus a FIFO
// lane for work due when the current handler returns (a node's end of
// tick). Ties break by insertion order, so runs are fully deterministic.
// Backed by an explicit binary heap over a vector so dispatch can move
// events out (a std::priority_queue only exposes a const top, forcing a
// std::function copy — and thus often a heap allocation — per event)
// and so capacity can be reserved up front.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "common/sim_time.hpp"

namespace clash::sim {

class EventQueue {
 public:
  using Handler = std::function<void()>;

  /// Pre-size the heap (bulk scheduling avoids regrowth moves).
  void reserve(std::size_t n) { events_.reserve(n); }

  void at(SimTime t, Handler fn) {
    events_.push_back(Event{t, next_seq_++, std::move(fn)});
    std::push_heap(events_.begin(), events_.end(), Later{});
  }

  void after(SimDuration d, Handler fn) { at(now_ + d, std::move(fn)); }

  /// Run `fn` after the current handler, before the next queued event
  /// (even one due this instant); posted outside a dispatch, it waits
  /// for the next one.
  void post(Handler fn) { lane_.push_back(std::move(fn)); }

  /// Run `fn` as one handler, then the lane to empty (what a lane item
  /// posts joins the tail): a node's loop tick.
  template <typename Fn>
  void dispatch(Fn&& fn) {
    ++depth_;
    std::forward<Fn>(fn)();
    while (!lane_.empty()) {
      Handler next = std::move(lane_.front());
      lane_.pop_front();
      ++processed_;
      next();
    }
    --depth_;
  }
  [[nodiscard]] bool dispatching() const { return depth_ > 0; }

  [[nodiscard]] SimTime now() const { return now_; }
  /// Events scheduled or posted but not yet run — the soak harness
  /// bounds this as its pending-work growth gate.
  [[nodiscard]] std::size_t pending() const {
    return events_.size() + lane_.size();
  }
  [[nodiscard]] bool empty() const { return pending() == 0; }
  /// Handlers run so far: queued events and lane work alike.
  [[nodiscard]] std::uint64_t processed() const { return processed_; }

  /// Run any work posted outside a dispatch, then each event with
  /// t <= end (inclusive) as a dispatch; leaves now() == end, or
  /// unchanged when `end` is past.
  void run_until(SimTime end) {
    dispatch([] {});
    while (!events_.empty() && events_.front().t <= end) {
      // Move out before dispatch: the handler may schedule new events
      // (the vector can then grow safely — `ev` owns the closure).
      std::pop_heap(events_.begin(), events_.end(), Later{});
      Event ev = std::move(events_.back());
      events_.pop_back();
      now_ = ev.t;
      ++processed_;
      dispatch(ev.fn);
    }
    now_ = std::max(now_, end);
  }

 private:
  struct Event {
    SimTime t;
    std::uint64_t seq;
    Handler fn;
  };

  /// True when `a` dispatches after `b` — std::push_heap's max-heap
  /// then keeps the earliest (t, seq) at the front.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.t == b.t ? a.seq > b.seq : b.t < a.t;
    }
  };

  std::vector<Event> events_;
  std::deque<Handler> lane_;
  unsigned depth_ = 0;  // dispatches running (they nest)
  SimTime now_{0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace clash::sim
