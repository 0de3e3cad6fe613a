#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

#include "common/logging.hpp"

namespace clash::net {

namespace {
// Runtime probe behind the loop's AffinityToken: guarded state may be
// touched by the thread inside run(), or by anyone while no run() is
// in progress (setup, teardown, post-exit inline fallback).
bool loop_probe(const void* ctx) {
  return static_cast<const EventLoop*>(ctx)->on_loop_or_idle();
}
}  // namespace

EventLoop::EventLoop() {
  affinity_.bind(&loop_probe, this, "EventLoop");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw std::runtime_error(std::string("epoll_create1: ") +
                             std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    throw std::runtime_error(std::string("eventfd: ") +
                             std::strerror(errno));
  }
  add_fd(wake_fd_, EPOLLIN, [this](std::uint32_t) {
    std::uint64_t drained = 0;
    while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
    }
  });
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::add_fd(int fd, std::uint32_t events, FdHandler handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw std::runtime_error(std::string("epoll_ctl(add): ") +
                             std::strerror(errno));
  }
  handlers_[fd] = std::move(handler);
}

void EventLoop::modify_fd(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    CLASH_WARN << "epoll_ctl(mod) failed for fd " << fd << ": "
               << std::strerror(errno);
  }
}

void EventLoop::remove_fd(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

std::uint64_t EventLoop::call_after(std::chrono::microseconds delay,
                                    Task task) {
  const std::uint64_t id = next_timer_id_++;
  timers_.push(Timer{Clock::now() + delay, id});
  timer_tasks_[id] = std::move(task);
  return id;
}

void EventLoop::cancel_timer(std::uint64_t id) { timer_tasks_.erase(id); }

bool EventLoop::post(Task task) {
  {
    const common::MutexLock lock(posted_mutex_);
    if (finished_) return false;
    posted_.push_back(std::move(task));
  }
  wake();
  return true;
}

void EventLoop::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::defer(Task task) { deferred_.push_back(std::move(task)); }

void EventLoop::run_deferred() {
  // A deferred task may defer again (a flush that queues a reply);
  // keep going until the round is quiescent.
  // The two vectors trade places each pass and keep their capacity.
  while (!deferred_.empty()) {
    deferred_running_.swap(deferred_);
    for (auto& t : deferred_running_) t();
    deferred_running_.clear();
  }
}

void EventLoop::drain_posted() {
  std::vector<Task> tasks;
  {
    const common::MutexLock lock(posted_mutex_);
    tasks.swap(posted_);
  }
  for (auto& t : tasks) t();
}

void EventLoop::fire_due_timers() {
  const auto now = Clock::now();
  while (!timers_.empty() && timers_.top().deadline <= now) {
    const auto id = timers_.top().id;
    timers_.pop();
    const auto it = timer_tasks_.find(id);
    if (it == timer_tasks_.end()) continue;  // cancelled
    Task task = std::move(it->second);
    timer_tasks_.erase(it);
    task();
  }
}

int EventLoop::next_timeout_ms() const {
  if (timers_.empty()) return 100;
  const auto now = Clock::now();
  if (timers_.top().deadline <= now) return 0;
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      timers_.top().deadline - now)
                      .count();
  return int(us / 1000 + 1);
}

void EventLoop::rearm() {
  const common::MutexLock lock(posted_mutex_);
  finished_ = false;
  exited_.store(false, std::memory_order_release);
}

void EventLoop::note_tick(Clock::time_point start) {
  const auto dur = std::chrono::duration_cast<std::chrono::microseconds>(
                       Clock::now() - start)
                       .count();
  tick_hist_->record(std::uint64_t(dur));
  // Post-hoc budget fence: the round DID finish, but late enough that
  // everything behind it (timers, acks, gossip) observably lagged.
  // The live wedged case (a round that never finishes) is caught from
  // outside by the StallWatchdog via current_tick().
  const bool overrun = tick_budget_us_ > 0 && dur >= tick_budget_us_;
  if (overrun) tick_overruns_c_.inc();
  // Below the budget only pathologically slow rounds of a traced run
  // earn a timeline entry; at normal cadence they would just churn the
  // ring.
  if (overrun || (dur >= 1000 && tracer_->enabled())) {
    const auto start_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            start.time_since_epoch())
            .count();
    tracer_->record(obs::SpanKind::kLoopTick, obs_pid_,
                    SimTime(start_us - epoch_us_), SimDuration(dur),
                    std::uint64_t(tick_budget_us_));
  }
}

void EventLoop::enter_loop() {
  // Publish the tid before running_: a racer that observes
  // running_ == true (acquire) must also see who the loop thread is,
  // or on_loop_or_idle() would misjudge it.
  loop_tid_.store(std::this_thread::get_id(), std::memory_order_release);
  running_.store(true, std::memory_order_release);
}

void EventLoop::exit_loop() {
  running_.store(false, std::memory_order_release);
}

void EventLoop::run() {
  rearm();
  enter_loop();
  epoll_event events[64];
  auto tick_start = Clock::now();
  while (!stop_requested_.load(std::memory_order_acquire)) {
    drain_posted();
    fire_due_timers();
    run_deferred();
    // The round is over once the loop is about to sleep again; the
    // wait itself is idle time, not tick time.
    if (tracer_ != nullptr) note_tick(tick_start);
    // Retire the tick probe for the idle wait: a probe during
    // epoll_wait must read "not stuck", however long the wait is.
    tick_busy_.store(false, std::memory_order_release);
    tick_seq_.fetch_add(1, std::memory_order_relaxed);
    const int n =
        ::epoll_wait(epoll_fd_, events, 64, next_timeout_ms());
    tick_start = Clock::now();
    tick_started_us_.store(
        std::chrono::duration_cast<std::chrono::microseconds>(
            tick_start.time_since_epoch())
                .count() -
            epoch_us_,
        std::memory_order_relaxed);
    tick_busy_.store(true, std::memory_order_release);
    if (n < 0) {
      if (errno == EINTR) continue;
      CLASH_ERROR << "epoll_wait: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;  // removed by earlier handler
      // Copy: the handler may remove itself.
      FdHandler handler = it->second;
      handler(events[i].events);
    }
    run_deferred();
  }
  // Final drain: accept no further posts (post() returns false from
  // here on), then run everything that made it in. This closes the
  // stop() race — a task posted before this point always executes, so
  // a poster blocking on its result can never hang.
  std::vector<Task> last;
  {
    const common::MutexLock lock(posted_mutex_);
    finished_ = true;
    last.swap(posted_);
  }
  for (auto& t : last) t();
  run_deferred();
  tick_busy_.store(false, std::memory_order_release);
  exit_loop();
  stop_requested_.store(false, std::memory_order_relaxed);
  exited_.store(true, std::memory_order_release);
}

void EventLoop::stop() {
  stop_requested_.store(true, std::memory_order_release);
  wake();
}

}  // namespace clash::net
