#include "obs/postmortem.hpp"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <thread>

#include <unistd.h>

#include "obs/hub.hpp"

namespace clash::obs {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (std::uint8_t(c) >= 0x20) {
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    }
  }
}

extern "C" void postmortem_signal_handler(int signo) {
  // Re-arm to default BEFORE dumping: a second fault inside the dump
  // path (we are past all async-signal-safety guarantees here — this
  // is best-effort black-box recovery, not a correctness path) kills
  // the process instead of recursing.
  std::signal(signo, SIG_DFL);
  const char* name = "signal";
  switch (signo) {
    case SIGSEGV: name = "SIGSEGV"; break;
    case SIGABRT: name = "SIGABRT"; break;
    case SIGBUS: name = "SIGBUS"; break;
    case SIGFPE: name = "SIGFPE"; break;
    case SIGILL: name = "SIGILL"; break;
    default: break;
  }
  const std::string path = Postmortem::global().dump(name);
  if (!path.empty()) {
    // write(2) is signal-safe; stdio is not.
    const std::string line = "postmortem: " + path + "\n";
    [[maybe_unused]] const auto n =
        ::write(STDERR_FILENO, line.data(), line.size());
  }
  ::raise(signo);
}

}  // namespace

Postmortem& Postmortem::global() {
  static Postmortem* pm = new Postmortem();  // never destroyed
  return *pm;
}

void Postmortem::set_dir(std::string dir) {
  const common::MutexLock lock(mu_);
  dir_ = std::move(dir);
}

std::string Postmortem::dir() const {
  const common::MutexLock lock(mu_);
  return dir_;
}

std::uint64_t Postmortem::add_source(std::string name,
                                     std::function<std::string()> render) {
  const common::MutexLock lock(mu_);
  const std::uint64_t id = next_id_++;
  sources_.push_back(Source{id, std::move(name), std::move(render)});
  return id;
}

void Postmortem::remove_source(std::uint64_t id) {
  const common::MutexLock lock(mu_);
  std::erase_if(sources_, [id](const Source& s) { return s.id == id; });
}

std::string Postmortem::render(std::string_view reason) {
  std::string out;
  out.reserve(4096);
  out += "{\"schema\":\"clash-postmortem-v1\",\"reason\":\"";
  append_escaped(out, reason);
  out += "\",\"unix_time\":";
  out += std::to_string(std::int64_t(::time(nullptr)));
  out += ",\"pid\":";
  out += std::to_string(std::int64_t(::getpid()));

  // Bounded try_lock spin: a crashing thread must never deadlock on a
  // lock some wedged (or self-same) thread holds. ~1s worst case.
  bool locked = false;
  for (int i = 0; i < 1000 && !locked; ++i) {
    locked = mu_.try_lock();
    // Crash-path backoff; never runs on an event loop.
    if (!locked) {
      std::this_thread::sleep_for(  // lint:allow-blocking(crash path)
          std::chrono::milliseconds(1));
    }
  }
  if (!locked) {
    out += ",\"sources_unavailable\":true,\"sources\":{}}";
    return out;
  }
  out += ",\"sources\":{";
  bool first = true;
  for (const Source& src : sources_) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    append_escaped(out, src.name);
    out += "\":";
    std::string body;
    try {
      body = src.render ? src.render() : std::string("null");
    } catch (...) {
      body = "\"<source threw>\"";
    }
    out += body.empty() ? "null" : body;
  }
  out += "}}";
  mu_.unlock();
  return out;
}

std::string Postmortem::dump(std::string_view reason) {
  const std::uint64_t n = ordinal_.fetch_add(1, std::memory_order_relaxed);
  const std::string body = render(reason);
  std::string base;
  {
    // try_lock, not lock: dir_ may be held by a thread we interrupted.
    if (mu_.try_lock()) {
      base = dir_;
      mu_.unlock();
    }
  }
  if (base.empty()) return "";
  std::string path = base + "/postmortem-" +
                     std::to_string(std::int64_t(::time(nullptr))) + "-" +
                     std::to_string(std::int64_t(::getpid())) + "-" +
                     std::to_string(n) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return "";
  const std::size_t wrote = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (wrote != body.size()) return "";
  dumps_.fetch_add(1, std::memory_order_relaxed);
  return path;
}

void Postmortem::install_crash_handler() {
  for (const int signo : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    std::signal(signo, &postmortem_signal_handler);
  }
}

std::uint64_t register_hub_source(Postmortem& pm, Hub& hub,
                                  std::string name,
                                  std::function<std::int64_t()> now_us) {
  return pm.add_source(
      std::move(name), [&hub, now = std::move(now_us)]() {
        std::string out = "{\"flight\":";
        out += hub.tracer.to_json();
        out += ",\"inflight\":";
        out += hub.inflight.to_json(now ? now() : 0);
        out += "}";
        return out;
      });
}

}  // namespace clash::obs
