// Transport + sim-dispatch microbenchmarks behind BENCH_net.json.
//
// net_throughput: frames/sec through the full Connection send/receive
// path over loopback TCP (both endpoints on one epoll loop, frames
// sent in per-tick batches the way SWIM gossip and replication bursts
// are), at 64 B / 1 KiB / 64 KiB payloads. Also reports the small-
// frame coalescing ratio (frames per flush syscall).
// net_latency: single-frame ping-pong round-trip time.
// sim_dispatch: sim::EventQueue dispatch rate with closure captures
// big enough to defeat std::function's small-buffer optimisation (the
// shape real sim events have).
// repl_append_batching: wire encode+decode cost of one ReplAppend op
// per frame vs one frame per group per tick (the per-tick batching the
// replication engine now does) — the transport coalesces writes either
// way, so the saving is pure codec + envelope overhead.
// metrics_overhead: the observability self-gate — 64 B frames/sec with
// the full metrics registry attached (loop tick histogram + transport
// counters) must stay within 5% of the uninstrumented path, or the
// bench exits nonzero. Off/on runs are paired per round so ambient
// load cancels, the best ratio over up to 5 rounds decides, and the
// frame count is fixed (not --quick scaled) so CI and local runs gate
// the same work.
//
// Usage: micro_net [--quick] [--json=PATH]
#include <sys/epoll.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "clash/messages.hpp"
#include "common/argparse.hpp"
#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "obs/hub.hpp"
#include "sim/event_queue.hpp"
#include "wire/codec.hpp"

using namespace clash;
using namespace clash::net;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct ThroughputResult {
  std::size_t frame_bytes = 0;
  std::uint64_t frames = 0;
  double seconds = 0;
  std::uint64_t flush_syscalls = 0;  // writev/write calls on the sender
  [[nodiscard]] double frames_per_sec() const { return frames / seconds; }
  [[nodiscard]] double mb_per_sec() const {
    return double(frames) * double(frame_bytes) / seconds / 1e6;
  }
  [[nodiscard]] double coalesce_ratio() const {
    return flush_syscalls > 0 ? double(frames) / double(flush_syscalls) : 0;
  }
};

/// Pump `total` frames of `frame_bytes` through a loopback TCP pair on
/// one loop, `batch` frames queued per loop tick. When `hub` is set the
/// run is fully instrumented — tick histogram on the loop, clash_net_*
/// counters on both connections — exactly as a ClashNode wires them.
ThroughputResult run_throughput(std::size_t frame_bytes, std::uint64_t total,
                                std::size_t batch,
                                obs::Hub* hub = nullptr) {
  EventLoop loop;
  CLASH_ASSERT_ON_LOOP(loop);  // loop idle until run(): we hold affinity
  // Wired exactly as a ClashNode wires it: tick histogram, tick-budget
  // fence and the hub's event ring on the loop, fault/drop events on
  // both connections. The overhead gate below therefore prices the ring
  // too. A null hub leaves the loop bare.
  loop.set_obs(hub, 0, /*budget_us=*/1'000'000, /*epoch_us=*/0);
  auto listener = listen_tcp(Endpoint{"127.0.0.1", 0}).value();
  const auto port = bound_port(listener).value();

  std::uint64_t received = 0;
  std::shared_ptr<Connection> server;
  loop.add_fd(listener.get(), EPOLLIN, [&](std::uint32_t) {
    auto fd = accept_tcp(listener);
    if (!fd.ok()) return;
    server = Connection::adopt(
        loop, std::move(fd).value(),
        [&](std::span<const std::uint8_t>) {
          if (++received == total) loop.stop();
        },
        [] {});
    if (hub != nullptr) server->set_obs(hub, /*epoch_us=*/0);
  });

  auto client_fd = connect_tcp(Endpoint{"127.0.0.1", port}).value();
  auto client = Connection::adopt(loop, std::move(client_fd),
                                  [](std::span<const std::uint8_t>) {}, [] {});
  if (hub != nullptr) client->set_obs(hub, /*epoch_us=*/0);

  const std::vector<std::uint8_t> payload(frame_bytes, 0xAB);
  std::uint64_t sent = 0;
  // Re-arming sender task: queue one batch, yield to epoll, repeat.
  // Everything it references outlives loop.run(), which drains all
  // posted copies before returning.
  std::function<void()> send_batch = [&] {
    for (std::size_t i = 0; i < batch && sent < total; ++i, ++sent) {
      client->send_frame(payload);
    }
    if (sent < total) (void)loop.post(send_batch);
  };

  const auto t0 = Clock::now();
  (void)loop.post(send_batch);
  loop.run();
  ThroughputResult r;
  r.frame_bytes = frame_bytes;
  r.frames = total;
  r.seconds = seconds_since(t0);
  r.flush_syscalls = client->stats().flush_syscalls;
  return r;
}

/// Single-frame ping-pong: client sends, server echoes, client sends
/// the next on receipt. Returns average round-trip in microseconds.
double run_latency(std::uint64_t round_trips) {
  EventLoop loop;
  CLASH_ASSERT_ON_LOOP(loop);  // loop idle until run(): we hold affinity
  auto listener = listen_tcp(Endpoint{"127.0.0.1", 0}).value();
  const auto port = bound_port(listener).value();

  std::shared_ptr<Connection> server;
  loop.add_fd(listener.get(), EPOLLIN, [&](std::uint32_t) {
    auto fd = accept_tcp(listener);
    if (!fd.ok()) return;
    server = Connection::adopt(
        loop, std::move(fd).value(),
        [&](std::span<const std::uint8_t> frame) { server->send_frame(frame); },
        [] {});
  });

  const std::vector<std::uint8_t> ping(64, 0x1);
  std::uint64_t completed = 0;
  std::shared_ptr<Connection> client;
  auto client_fd = connect_tcp(Endpoint{"127.0.0.1", port}).value();
  client = Connection::adopt(
      loop, std::move(client_fd),
      [&](std::span<const std::uint8_t>) {
        if (++completed == round_trips) {
          loop.stop();
          return;
        }
        client->send_frame(ping);
      },
      [] {});

  const auto t0 = Clock::now();
  (void)loop.post([&] { client->send_frame(ping); });
  loop.run();
  return seconds_since(t0) * 1e6 / double(round_trips);
}

/// EventQueue dispatch rate. Each event's closure captures 64 bytes so
/// a copying dispatch pays an allocation per event, as real sim events
/// (which capture ids, keys, shared state) do.
double run_sim_dispatch(std::uint64_t events) {
  sim::EventQueue q;
  q.reserve(std::size_t(events));
  std::uint64_t sum = 0;
  std::array<std::uint64_t, 8> fat{};
  for (std::uint64_t i = 0; i < events; ++i) {
    fat[0] = i;
    q.at(SimTime(std::int64_t(i)), [&sum, fat] { sum += fat[0]; });
  }
  const auto t0 = Clock::now();
  q.run_until(SimTime(std::int64_t(events)));
  const double secs = seconds_since(t0);
  if (sum == 0) std::fprintf(stderr, "unexpected zero checksum\n");
  return double(events) / secs;
}

/// Encode + decode `total_ops` ReplAppend log ops, `per_frame` ops per
/// frame, through the full wire path (envelope + codec both ways).
/// Returns ops/sec.
double run_append_codec(std::uint64_t total_ops, std::size_t per_frame) {
  const KeyGroup group = KeyGroup::root(24);
  std::uint64_t checksum = 0;
  const auto t0 = Clock::now();
  std::uint64_t done = 0;
  std::uint64_t seq = 0;
  while (done < total_ops) {
    const std::size_t n =
        std::size_t(std::min<std::uint64_t>(per_frame, total_ops - done));
    ReplAppend msg;
    msg.group = group;
    msg.owner = ServerId{1};
    msg.epoch = 1;
    msg.base_seq = seq;
    msg.entries.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      msg.entries.push_back(repl::LogOp::put_stream(
          StreamInfo{ClientId{seq + i}, Key(0x123456, 24), 2.5}));
    }
    seq += n;
    auto w = wire::begin_frame(
        wire::Envelope{wire::FrameKind::kOneway, 0, ServerId{1}});
    wire::encode_message(w, Message(std::move(msg)));
    const auto frame = wire::finish_frame(std::move(w));
    const auto decoded = wire::decode_frame(
        std::span<const std::uint8_t>(frame).subspan(4));
    const auto out = wire::decode_message(decoded.value().payload);
    checksum += std::get<ReplAppend>(out.value()).entries.size();
    done += n;
  }
  const double secs = seconds_since(t0);
  if (checksum != total_ops) std::fprintf(stderr, "checksum mismatch\n");
  return double(total_ops) / secs;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const bool quick = args.get_bool("quick", false);

  const std::uint64_t small_frames = quick ? 20'000 : 400'000;
  const std::uint64_t mid_frames = quick ? 10'000 : 200'000;
  const std::uint64_t big_frames = quick ? 1'000 : 20'000;
  const std::uint64_t rtts = quick ? 2'000 : 20'000;
  const std::uint64_t sim_events = quick ? 100'000 : 1'000'000;

  const auto t64 = run_throughput(64, small_frames, 64);
  const auto t1k = run_throughput(1024, mid_frames, 32);
  const auto t64k = run_throughput(64 * 1024, big_frames, 8);
  const double rtt_us = run_latency(rtts);
  const double dispatch = run_sim_dispatch(sim_events);
  const std::uint64_t append_ops = quick ? 200'000 : 2'000'000;
  const std::size_t append_batch = 16;
  const double unbatched_ops = run_append_codec(append_ops, 1);
  const double batched_ops = run_append_codec(append_ops, append_batch);
  std::printf("# repl_append codec: %.0f ops/s unbatched, %.0f ops/s at "
              "batch %zu (%.2fx)\n",
              unbatched_ops, batched_ops, append_batch,
              batched_ops / unbatched_ops);

  // --- Observability overhead self-gate --------------------------------
  const std::uint64_t gate_frames = 300'000;
  obs::Hub hub;
  double off_best = 0;
  double on_best = 0;
  double gate_ratio = 0;
  int gate_rounds = 0;
  // Each round pairs an uninstrumented run with an instrumented one
  // back-to-back, so ambient load skews both sides alike; the gate
  // takes the best ratio seen (per-round or best-vs-best) — one clean
  // round bounds the true overhead, while a real >5% cost drags every
  // round down. Extra rounds run only while the verdict is marginal.
  for (int round = 0; round < 5; ++round) {
    const double off = run_throughput(64, gate_frames, 64).frames_per_sec();
    const double on =
        run_throughput(64, gate_frames, 64, &hub).frames_per_sec();
    ++gate_rounds;
    off_best = std::max(off_best, off);
    on_best = std::max(on_best, on);
    gate_ratio =
        std::max({gate_ratio, on / off, on_best / off_best});
    if (round >= 1 && gate_ratio >= 0.97) break;
  }
  // The instrumented runs must actually have recorded — a gate that
  // silently measured two uninstrumented paths would always pass.
  const std::uint64_t gate_sent =
      hub.registry.counter_value("clash_net_frames_sent_total");
  const auto gate_ticks =
      hub.registry.histogram_snapshot("clash_loop_tick_usec");
  if (gate_sent < gate_frames * std::uint64_t(gate_rounds) ||
      gate_ticks.count == 0) {
    std::fprintf(stderr,
                 "metrics gate broken: instrumented runs recorded "
                 "%llu frames, %llu ticks\n",
                 (unsigned long long)gate_sent,
                 (unsigned long long)gate_ticks.count);
    return 1;
  }
  const double overhead_ratio = gate_ratio;
  const bool gate_ok = overhead_ratio >= 0.95;
  std::printf("# metrics overhead: %.0f frames/s off, %.0f on "
              "(ratio %.3f) -> %s\n",
              off_best, on_best, overhead_ratio,
              gate_ok ? "PASS" : "FAIL");

  std::string out = "{\n  \"bench\": \"micro_net\",\n";
  out += "  \"quick\": " + std::string(quick ? "true" : "false") + ",\n";
  out += "  \"net_throughput\": [\n";
  const ThroughputResult* results[] = {&t64, &t1k, &t64k};
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& r = *results[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    {\"frame_bytes\": %zu, \"frames\": %llu, "
                  "\"frames_per_sec\": %.0f, \"mb_per_sec\": %.1f, "
                  "\"coalesce_ratio\": %.2f}%s\n",
                  r.frame_bytes, (unsigned long long)r.frames,
                  r.frames_per_sec(), r.mb_per_sec(), r.coalesce_ratio(),
                  i + 1 < 3 ? "," : "");
    out += line;
  }
  out += "  ],\n";
  char batching[256];
  std::snprintf(batching, sizeof(batching),
                "  \"repl_append_codec\": {\"ops\": %llu, \"batch\": %zu, "
                "\"unbatched_ops_per_sec\": %.0f, "
                "\"batched_ops_per_sec\": %.0f, \"speedup\": %.2f},\n",
                (unsigned long long)append_ops, append_batch, unbatched_ops,
                batched_ops, batched_ops / unbatched_ops);
  out += batching;
  char gate_json[256];
  std::snprintf(gate_json, sizeof(gate_json),
                "  \"metrics_overhead\": {\"frames\": %llu, "
                "\"off_frames_per_sec\": %.0f, \"on_frames_per_sec\": %.0f, "
                "\"ratio\": %.4f, \"pass\": %s},\n",
                (unsigned long long)gate_frames, off_best, on_best,
                overhead_ratio, gate_ok ? "true" : "false");
  out += gate_json;
  char tail[160];
  std::snprintf(tail, sizeof(tail),
                "  \"net_latency_rtt_us\": %.2f,\n"
                "  \"sim_dispatch_events_per_sec\": %.0f\n}\n",
                rtt_us, dispatch);
  out += tail;

  std::fputs(out.c_str(), stdout);
  if (!write_json_artifact(args, out)) return 1;
  return gate_ok ? 0 : 1;
}
