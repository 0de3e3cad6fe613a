// A non-blocking, length-prefix framed TCP connection bound to an
// EventLoop. Frames are u32 (little-endian) length + payload bytes;
// oversized or malformed frames close the connection.
//
// Fast path: outbound frames are owned, pool-recycled buffers queued
// without copying (send_wire_frame takes a finished wire frame
// straight from wire::finish_frame); everything queued during one
// loop tick is flushed with a single sendmsg(2) at end of tick.
// Inbound bytes land in a consume-cursor arena — parsing advances a
// cursor instead of memmoving the buffer per batch.
//
// Thread contract: a Connection is affine to its EventLoop. Every
// member is CLASH_GUARDED_BY(on_loop_) — the loop's affinity
// capability — and every public method witnesses it at entry, so
// off-loop use aborts in CLASH_LOOP_CHECKS builds and guarded access
// without a witness fails clang's -Wthread-safety.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/affinity.hpp"
#include "common/thread_annotations.hpp"
#include "net/event_loop.hpp"
#include "net/fault.hpp"
#include "net/socket.hpp"
#include "obs/hub.hpp"

namespace clash::net {

class Connection : public std::enable_shared_from_this<Connection> {
 public:
  /// 16 MiB: far above any legitimate CLASH frame; bounds memory per
  /// peer. Enforced on receive and on send (a frame the peer would
  /// reject with a close is refused here instead).
  static constexpr std::uint32_t kMaxFrame = 16u << 20;

  /// Transport counters (loop thread only).
  struct Stats {
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    /// sendmsg(2) calls; frames_sent / flush_syscalls is the
    /// small-frame coalescing ratio.
    std::uint64_t flush_syscalls = 0;
    /// Sends rejected for exceeding kMaxFrame.
    std::uint64_t send_oversized = 0;
    /// Frames eaten / held back / multiplied by an attached
    /// FaultInjector.
    std::uint64_t faults_dropped = 0;
    std::uint64_t faults_delayed = 0;
    std::uint64_t faults_duplicated = 0;
    std::uint64_t faults_reordered = 0;
    std::uint64_t faults_corrupted = 0;
  };

  using FrameHandler =
      std::function<void(std::span<const std::uint8_t> frame)>;
  using CloseHandler = std::function<void()>;

  /// Takes ownership of a connected fd; registers with the loop.
  static std::shared_ptr<Connection> adopt(EventLoop& loop, Fd fd,
                                           FrameHandler on_frame,
                                           CloseHandler on_close);

  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Queue one frame, copying `payload` behind a length prefix (loop
  /// thread only). False when closed or the payload exceeds kMaxFrame.
  bool send_frame(std::span<const std::uint8_t> payload);

  /// Queue a finished wire frame — length prefix already in place
  /// (wire::finish_frame output) — without copying. The buffer is
  /// recycled to the thread's BufferPool after the flush.
  bool send_wire_frame(std::vector<std::uint8_t>&& frame);

  /// Close immediately (loop thread only).
  void close();

  /// Attach a link-fault injector: every outbound frame is judged and
  /// may be dropped or delayed before reaching the socket queue
  /// (deterministic partition / lossy-link tests). nullptr detaches.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector) {
    on_loop_.assert_held();
    fault_ = std::move(injector);
  }

  /// Mirror the transport counters into a metrics registry: every
  /// connection wired to the same hub shares the clash_net_* series
  /// (counters are get-or-created by name), so the node's totals sum
  /// across peers with no aggregation step. nullptr detaches — the
  /// handles go empty and the hot path pays only a null check.
  /// Fault-injector verdicts also land in the hub's flight ring,
  /// stamped steady-clock-us minus `epoch_us` (pass the node's epoch
  /// so connection events share the node's timeline; 0 = raw).
  void set_obs(obs::Hub* hub, std::int64_t epoch_us = 0);

  /// Called (loop thread) whenever a flush fully drains the outbound
  /// queue after backpressure — the resume signal for paced senders
  /// (snapshot-chunk flow control).
  using DrainHandler = std::function<void()>;
  void set_drain_handler(DrainHandler handler) {
    on_loop_.assert_held();
    on_drain_ = std::move(handler);
  }

  [[nodiscard]] bool closed() const {
    on_loop_.assert_held();
    return !fd_.valid();
  }
  [[nodiscard]] int fd() const {
    on_loop_.assert_held();
    return fd_.get();
  }
  [[nodiscard]] const Stats& stats() const {
    on_loop_.assert_held();
    return stats_;
  }
  /// Bytes queued but not yet accepted by the kernel (backpressure).
  [[nodiscard]] std::size_t send_queue_bytes() const;

 private:
  Connection(EventLoop& loop, Fd fd, FrameHandler on_frame,
             CloseHandler on_close);

  void register_with_loop() CLASH_REQUIRES(on_loop_);
  void on_events(std::uint32_t events) CLASH_REQUIRES(on_loop_);
  void handle_readable() CLASH_REQUIRES(on_loop_);
  bool enqueue(std::vector<std::uint8_t>&& frame) CLASH_REQUIRES(on_loop_);
  /// Enqueue preserving send order (delay timers drain a FIFO).
  bool enqueue_fifo(std::vector<std::uint8_t>&& frame,
                    std::chrono::microseconds delay)
      CLASH_REQUIRES(on_loop_);
  /// Enqueue after `delay` outside the FIFO — later frames overtake.
  void schedule_reordered(std::vector<std::uint8_t>&& frame,
                          std::chrono::microseconds delay)
      CLASH_REQUIRES(on_loop_);
  bool enqueue_now(std::vector<std::uint8_t>&& frame)
      CLASH_REQUIRES(on_loop_);
  void flush() CLASH_REQUIRES(on_loop_);
  void update_interest() CLASH_REQUIRES(on_loop_);
  void parse_frames() CLASH_REQUIRES(on_loop_);
  [[nodiscard]] std::int64_t flight_now_us() const CLASH_REQUIRES(on_loop_) {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               EventLoop::Clock::now().time_since_epoch())
               .count() -
           flight_epoch_us_;
  }

  EventLoop& loop_;
  /// The owning loop's affinity capability; guards every member below.
  common::AffinityToken& on_loop_;
  Fd fd_ CLASH_GUARDED_BY(on_loop_);
  FrameHandler on_frame_ CLASH_GUARDED_BY(on_loop_);
  CloseHandler on_close_ CLASH_GUARDED_BY(on_loop_);
  DrainHandler on_drain_ CLASH_GUARDED_BY(on_loop_);
  std::shared_ptr<FaultInjector> fault_ CLASH_GUARDED_BY(on_loop_);
  /// Fault-delayed frames awaiting their timers, in send order; each
  /// fire releases the head so frames can never overtake each other —
  /// even across an injector reconfigure or heal.
  std::deque<std::vector<std::uint8_t>> delayed_q_
      CLASH_GUARDED_BY(on_loop_);
  /// Latest scheduled release time; later frames never fire earlier.
  EventLoop::Clock::time_point delay_horizon_ CLASH_GUARDED_BY(on_loop_){};

  // Inbound arena: bytes [in_pos_, in_end_) are unparsed; the vector's
  // size is the high-water mark so refills never re-zero memory.
  std::vector<std::uint8_t> in_ CLASH_GUARDED_BY(on_loop_);
  std::size_t in_pos_ CLASH_GUARDED_BY(on_loop_) = 0;
  std::size_t in_end_ CLASH_GUARDED_BY(on_loop_) = 0;

  // Outbound queue of whole owned frames; the head frame may be
  // partially written (out_head_offset_ bytes already consumed).
  std::deque<std::vector<std::uint8_t>> out_q_ CLASH_GUARDED_BY(on_loop_);
  std::size_t out_head_offset_ CLASH_GUARDED_BY(on_loop_) = 0;
  bool flush_scheduled_ CLASH_GUARDED_BY(on_loop_) = false;
  bool want_write_ CLASH_GUARDED_BY(on_loop_) = false;

  Stats stats_ CLASH_GUARDED_BY(on_loop_);

  // Registry mirrors of the hot-path Stats fields (empty = detached).
  obs::Counter frames_sent_c_ CLASH_GUARDED_BY(on_loop_);
  obs::Counter bytes_sent_c_ CLASH_GUARDED_BY(on_loop_);
  obs::Counter flush_syscalls_c_ CLASH_GUARDED_BY(on_loop_);
  obs::Counter frames_received_c_ CLASH_GUARDED_BY(on_loop_);
  obs::Counter bytes_received_c_ CLASH_GUARDED_BY(on_loop_);
  /// Flight ring for fault-injector verdicts (drop/corrupt): the
  /// black box must show the faults the scenario injected next to the
  /// stalls they caused. Null when detached.
  obs::FlightRecorder* flight_ CLASH_GUARDED_BY(on_loop_) = nullptr;
  std::int64_t flight_epoch_us_ CLASH_GUARDED_BY(on_loop_) = 0;
};

}  // namespace clash::net
