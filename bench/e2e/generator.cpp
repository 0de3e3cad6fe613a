// Single-threaded load generator: one non-blocking connection per node,
// busy-polled (sleeping in the kernel added 50-90 us of wake-up time to
// every sample). Also the bare echo server that prices the transport.
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/epoll.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "e2e.hpp"
#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "wire/buffer.hpp"
#include "wire/buffer_pool.hpp"
#include "wire/codec.hpp"

namespace e2e {

namespace {

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/// Host-wide (steal, total) jiffies from the first line of /proc/stat.
std::pair<std::uint64_t, std::uint64_t> steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

}  // namespace

struct Generator::Pending {
  std::int64_t due = 0;
  std::int64_t sent = 0;
  std::uint32_t id = 0;
  std::uint8_t depth = 0;
};

struct Generator::Conn {
  net::Fd fd;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::vector<std::uint8_t> in = std::vector<std::uint8_t>(1u << 20);
  std::size_t in_beg = 0;
  std::size_t in_end = 0;
  std::deque<Pending> pending;
};

Generator::Generator(const std::vector<net::Endpoint>& endpoints,
                     const Pool& pool)
    : pool_(pool), peak_cursor_(endpoints.size(), 0) {
  for (const auto& ep : endpoints) {
    auto fd = net::connect_tcp(ep);
    if (!fd.ok()) throw std::runtime_error(fd.error().message);
    auto c = std::make_unique<Conn>();
    c->fd = std::move(fd).value();
    net::set_nonblocking(c->fd);
    conns_.push_back(std::move(c));
  }
}

Generator::~Generator() = default;

void Generator::send(std::size_t conn, const std::vector<std::uint8_t>& frame,
                     std::uint32_t id, std::uint8_t depth, std::int64_t due,
                     PhaseResult& r) {
  Conn& c = *conns_[conn];
  c.out.insert(c.out.end(), frame.begin(), frame.end());
  c.pending.push_back(Pending{due, now_ns(), id, depth});
  ++r.attempted;
}

void Generator::flush() {
  for (auto& cp : conns_) {
    Conn& c = *cp;
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd.get(), c.out.data() + c.out_off,
                               c.out.size() - c.out_off,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += std::size_t(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
  }
}

void Generator::complete(std::size_t conn, std::span<const std::uint8_t> frame,
                         std::int64_t now, PhaseResult& r) {
  Conn& c = *conns_[conn];
  if (c.pending.empty()) throw std::runtime_error("reply without request");
  const Pending p = c.pending.front();
  c.pending.pop_front();
  // Replies on one connection come back in request order (one loop
  // thread per node), so the FIFO head names the request; its id must
  // match. The envelope is read in place (wire::decode_frame would copy
  // the payload): at the peak the generator must not be the bottleneck.
  bool ok = false;
  wire::Reader env(frame);
  const bool version_ok = env.u8() == wire::kProtocolVersion;
  const bool kind_ok = env.u8() == std::uint8_t(wire::FrameKind::kResponse);
  const bool id_ok = env.u64() == p.id;
  (void)env.u64();  // sender
  if (env.ok() && version_ok && kind_ok && id_ok) {
    const auto reply =
        wire::decode_reply(frame.subspan(frame.size() - env.remaining()));
    if (reply.ok()) {
      const auto* accepted = std::get_if<AcceptObjectOk>(&reply.value());
      ok = accepted != nullptr && accepted->depth == p.depth;
    }
  }
  const std::int64_t latency = now - p.due;
  ok = ok && latency <= kTimeoutNs;
  if (ok) {
    ++r.acked;
    r.latency_ns.push_back(latency);
  } else {
    ++r.failed;
    r.latency_ns.push_back(std::numeric_limits<std::int64_t>::max());
  }
  r.late_ns.push_back(p.sent - p.due);
  if (spans_ != nullptr && r.windows.size() % 2 == 0) {
    spans_->push_back(
        ClientSpan{p.due, p.sent, now, p.id, std::uint8_t(conn), ok});
  }
}

void Generator::poll(PhaseResult& r, std::size_t* conn_replies) {
  for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
    Conn& c = *conns_[ci];
    std::size_t got = 0;
    for (;;) {
      if (c.in_beg == c.in_end) {
        c.in_beg = c.in_end = 0;
      } else if (c.in_end == c.in.size()) {
        std::memmove(c.in.data(), c.in.data() + c.in_beg,
                     c.in_end - c.in_beg);
        c.in_end -= c.in_beg;
        c.in_beg = 0;
      }
      const ssize_t n = ::recv(c.fd.get(), c.in.data() + c.in_end,
                               c.in.size() - c.in_end, MSG_DONTWAIT);
      if (n == 0) throw std::runtime_error("node closed the connection");
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
      }
      c.in_end += std::size_t(n);
      const std::int64_t now = now_ns();
      while (c.in_end - c.in_beg >= 4) {
        const std::uint32_t len = wire::load_u32_le(c.in.data() + c.in_beg);
        if (len > net::Connection::kMaxFrame) {
          throw std::runtime_error("oversized reply frame");
        }
        if (c.in_end - c.in_beg < 4 + std::size_t(len)) {
          if (4 + std::size_t(len) > c.in.size()) c.in.resize(4 + len);
          break;
        }
        complete(ci,
                 std::span<const std::uint8_t>(c.in.data() + c.in_beg + 4,
                                               len),
                 now, r);
        c.in_beg += 4 + std::size_t(len);
        ++got;
      }
    }
    if (conn_replies != nullptr) conn_replies[ci] = got;
  }
}

std::size_t Generator::outstanding() const {
  std::size_t n = 0;
  for (const auto& c : conns_) n += c->pending.size();
  return n;
}

void Generator::begin_phase(double seconds) {
  cpu0_ = process_cpu_s();
  gen_cpu0_ = thread_cpu_s();
  wall0_ = now_ns();
  std::tie(steal0_, total0_) = steal_jiffies();
  window_ns_ = std::int64_t(seconds * 1e9 / std::max(1.0, std::round(seconds)));
  window_end_ = wall0_ + window_ns_;
  window_cpu0_ = 0;
  window_acked0_ = 0;
}

void Generator::close_window(PhaseResult& r) {
  const double cpu =
      (process_cpu_s() - cpu0_) - (thread_cpu_s() - gen_cpu0_);
  PhaseResult::Window w;
  w.node_cpu_s = cpu - window_cpu0_;
  w.acked = r.acked - window_acked0_;
  r.windows.push_back(w);
  window_cpu0_ = cpu;
  window_acked0_ = r.acked;
  window_end_ += window_ns_;
}

void Generator::finish(PhaseResult& r) {
  const std::int64_t deadline = now_ns() + kTimeoutNs;
  while (outstanding() > 0 && now_ns() < deadline) {
    flush();
    poll(r, nullptr);
  }
  for (auto& c : conns_) {
    r.failed += c->pending.size();
    for (std::size_t i = 0; i < c->pending.size(); ++i) {
      r.latency_ns.push_back(std::numeric_limits<std::int64_t>::max());
    }
    c->pending.clear();
  }
  close_window(r);
  r.node_cpu_s = (process_cpu_s() - cpu0_) - (thread_cpu_s() - gen_cpu0_);
  r.wall_s = double(now_ns() - wall0_) * 1e-9;
  const auto [steal, total] = steal_jiffies();
  r.steal_ticks = steal - steal0_;
  r.total_ticks = total - total0_;
}

PhaseResult Generator::populate(unsigned window) {
  PhaseResult r;
  begin_phase(0);
  std::vector<std::size_t> next(conns_.size(), 0);
  const auto send_next = [&](std::size_t ci) {
    const auto& sources = pool_.population_by_node[ci];
    if (next[ci] >= sources.size()) return;
    const std::uint32_t s = sources[next[ci]++];
    send(ci, pool_.population_frames[s], s, kDepth, now_ns(), r);
  };
  for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
    for (unsigned k = 0; k < window; ++k) send_next(ci);
  }
  std::vector<std::size_t> replies(conns_.size());
  for (;;) {
    flush();
    poll(r, replies.data());
    bool more = outstanding() > 0;
    for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
      for (std::size_t k = 0; k < replies[ci]; ++k) send_next(ci);
      more = more || next[ci] < pool_.population_by_node[ci].size();
    }
    if (!more) break;
  }
  finish(r);
  return r;
}

PhaseResult Generator::open_loop(Phase phase, std::uint64_t seed, double rate,
                                 double seconds, std::uint64_t& first) {
  PhaseResult r;
  const auto dues = arrivals(seed, phase, rate, seconds);
  begin_phase(seconds);
  const std::int64_t end = wall0_ + std::int64_t(seconds * 1e9);
  const std::size_t size = pool_.requests.size();
  std::size_t next = 0;
  for (;;) {
    const std::int64_t now = now_ns();
    for (; next < dues.size() && wall0_ + dues[next] <= now; ++next) {
      const std::size_t i = std::size_t(first++ % size);
      const Request& req = pool_.requests[i];
      send(req.node, pool_.frames[i], std::uint32_t(i), req.depth,
           wall0_ + dues[next], r);
    }
    flush();
    poll(r, nullptr);
    r.backlog_max = std::max(r.backlog_max, outstanding());
    if (now >= end) break;
    if (now >= window_end_) close_window(r);
  }
  finish(r);
  return r;
}

PhaseResult Generator::closed_window(unsigned window, double seconds) {
  PhaseResult r;
  begin_phase(seconds);
  const std::int64_t end = wall0_ + std::int64_t(seconds * 1e9);
  const auto send_next = [&](std::size_t ci) {
    const auto& stream = pool_.by_node[ci];
    if (stream.empty()) return;
    const std::uint32_t i = stream[peak_cursor_[ci]++ % stream.size()];
    send(ci, pool_.frames[i], i, pool_.requests[i].depth, now_ns(), r);
  };
  for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
    for (unsigned k = 0; k < window; ++k) send_next(ci);
  }
  std::vector<std::size_t> replies(conns_.size());
  for (std::int64_t now = now_ns(); now < end; now = now_ns()) {
    flush();
    poll(r, replies.data());
    for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
      for (std::size_t k = 0; k < replies[ci]; ++k) send_next(ci);
    }
    if (now >= window_end_) close_window(r);
  }
  finish(r);
  return r;
}

// --- Echo server ------------------------------------------------------------

struct EchoServer::State {
  net::EventLoop loop;
  net::Fd listener;
  std::vector<std::shared_ptr<net::Connection>> conns;
  std::vector<std::uint8_t> reply;
};

EchoServer::EchoServer(std::size_t cpu) : state_(std::make_unique<State>()) {
  State* s = state_.get();
  CLASH_ASSERT_ON_LOOP(s->loop);  // idle until run(): setup holds it
  auto w = wire::begin_frame(
      wire::Envelope{wire::FrameKind::kResponse, 0, ServerId{0}});
  wire::encode_reply(w, AcceptObjectOk{kDepth});
  s->reply = wire::finish_frame(std::move(w));
  auto listener = net::listen_tcp(net::Endpoint{"127.0.0.1", 0});
  if (!listener.ok()) throw std::runtime_error(listener.error().message);
  s->listener = std::move(listener).value();
  endpoint_ = net::Endpoint{"127.0.0.1", net::bound_port(s->listener).value()};
  s->loop.add_fd(s->listener.get(), EPOLLIN, [s](std::uint32_t) {
    CLASH_ASSERT_ON_LOOP(s->loop);
    for (;;) {
      auto fd = net::accept_tcp(s->listener);
      if (!fd.ok()) break;
      auto slot = std::make_shared<std::weak_ptr<net::Connection>>();
      auto conn = net::Connection::adopt(
          s->loop, std::move(fd).value(),
          [s, slot](std::span<const std::uint8_t> frame) {
            const auto c = slot->lock();
            if (c == nullptr || frame.size() < 10) return;
            // Echo the request id (envelope bytes 2..9) in a reply
            // frame (after its 4-byte length prefix), in a pooled buffer
            // as the node's replies are.
            auto out = wire::BufferPool::local().acquire();
            out.assign(s->reply.begin(), s->reply.end());
            std::memcpy(out.data() + 6, frame.data() + 2, 8);
            c->send_wire_frame(std::move(out));
          },
          [] {});
      *slot = conn;
      s->conns.push_back(conn);
    }
  });
  pin_thread(cpu);  // inherited by the loop thread
  thread_ = std::thread([s] { s->loop.run(); });
  pin_thread(0);
}

EchoServer::~EchoServer() {
  state_->loop.stop();
  thread_.join();
  CLASH_ASSERT_ON_LOOP(state_->loop);
  state_->conns.clear();
}

}  // namespace e2e
