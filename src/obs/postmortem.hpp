// Postmortem: the crash/abort dump plane. A process-global registry of
// named JSON sources (each node registers its event ring, in-flight
// table, and a cached registry/census snapshot) plus signal handlers
// (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL) and a programmatic dump()
// entry point for invariant-check and ablation-gate failures. A dump
// serializes every source to one self-describing JSON file,
// `<dir>/postmortem-<unixtime>-<pid>-<n>.json`, so a CI failure or a
// two-hour soak crash ships its own black box.
//
// Crash-context honesty: dump() runs on whatever thread is dying. It
// must not block on a lock a wedged thread holds, so the source table
// is acquired with a bounded try_lock spin; when that fails the dump
// still writes its header (reason, time, pid) with the sources marked
// unavailable. Source callbacks themselves must only read lock-free
// structures or try_lock-guarded caches — never hop to an event loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace clash::obs {

struct Hub;

class Postmortem {
 public:
  /// The process-global instance (never destroyed — a crash during
  /// static teardown must still find it alive).
  static Postmortem& global();

  /// Directory dumps are written to; "" disables file output (render()
  /// still works). Typically a node's storage_dir.
  void set_dir(std::string dir);
  [[nodiscard]] std::string dir() const;

  /// Register a named source; `render` must return one JSON value and
  /// be callable from a crashing thread (lock-free reads only).
  /// Returns an id for remove_source.
  std::uint64_t add_source(std::string name,
                           std::function<std::string()> render);
  void remove_source(std::uint64_t id);

  /// Serialize all sources to a JSON document (no file I/O). The
  /// bounded try_lock spin is invisible to the thread-safety analysis;
  /// crash-context locking is hand-audited here.
  [[nodiscard]] std::string render(std::string_view reason)
      CLASH_NO_THREAD_SAFETY_ANALYSIS;

  /// Render and write `<dir>/postmortem-<ts>-<pid>-<n>.json`. Returns
  /// the path, or "" when no dir is set or the write failed.
  std::string dump(std::string_view reason)
      CLASH_NO_THREAD_SAFETY_ANALYSIS;

  /// Install SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL handlers that dump
  /// then re-raise with the default disposition (the process still
  /// dies with the original signal; a parent / CI harness observes the
  /// real cause AND finds the dump). Idempotent.
  void install_crash_handler();

  /// Dumps attempted so far (successful file writes).
  [[nodiscard]] std::uint64_t dumps() const {
    return dumps_.load(std::memory_order_relaxed);
  }

 private:
  Postmortem() = default;

  struct Source {
    std::uint64_t id = 0;
    std::string name;
    std::function<std::string()> render;
  };

  mutable common::Mutex mu_;
  std::string dir_ CLASH_GUARDED_BY(mu_);
  std::vector<Source> sources_ CLASH_GUARDED_BY(mu_);
  std::uint64_t next_id_ CLASH_GUARDED_BY(mu_) = 1;
  std::atomic<std::uint64_t> dumps_{0};
  std::atomic<std::uint64_t> ordinal_{0};
};

/// Convenience: register `hub`'s event ring + in-flight table as one
/// postmortem source (the shape sim substrates and benches need —
/// net::ClashNode registers a richer source of its own). `now_us`
/// supplies the clock the in-flight ages are judged against.
std::uint64_t register_hub_source(Postmortem& pm, Hub& hub,
                                  std::string name,
                                  std::function<std::int64_t()> now_us);

}  // namespace clash::obs
