// Traced replay: the nominal phase's request stream through three
// ClashServers hosted in-process, timing every call into the wire
// codec, ClashServer, and the storage backend. Peer messages are
// encoded, queued, decoded, and delivered exactly as the TCP transport
// does; deferred work runs at the end of each request (one request per
// tick, as at the nominal rate).
#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include <deque>
#include <filesystem>
#include <functional>
#include <stdexcept>

#include "clash/bootstrap.hpp"
#include "clash/server.hpp"
#include "e2e.hpp"
#include "storage/backend.hpp"
#include "storage/store.hpp"
#include "wire/buffer_pool.hpp"
#include "wire/codec.hpp"

namespace e2e {

const char* layer_metric(Layer l) {
  static const char* const kNames[kLayerCount] = {
      "wire.decode_request_us", "clash.handle_self_us",
      "wire.encode_reply_us",   "repl.flush_self_us",
      "wire.encode_peer_us",    "wire.decode_peer_us",
      "repl.apply_us",          "repl.ack_us",
      "repl.snapshot_us",       "storage.append_us",
      "storage.fsync_us",       "storage.snapshot_write_us"};
  return kNames[l];
}

namespace {

/// Requests replayed with ticks shaped like the live peak phase.
constexpr std::size_t kPeakPassRequests = 20'000;
/// Requests whose timed calls are kept as trace spans.
constexpr std::uint64_t kSpanRequests = 2'000;

/// The timeline's clock: the TSC where there is one (22 ns a read
/// against 41 ns for steady_clock on a 4-vCPU KVM guest, which matters
/// at several reads per ~1.5 us request), converted to ns against the
/// replay's wall time.
std::int64_t ticks() {
#if defined(__x86_64__)
  return std::int64_t(__rdtsc());
#else
  return now_ns();
#endif
}

/// Nested timer: each call's self time (its duration minus the timed
/// calls inside it) goes to its layer, so the layers add up to the
/// time spent inside outermost calls. Times are in ticks().
///
/// Consecutive outermost calls share their boundary timestamp (until
/// cut()), so the few instructions between them count toward the later
/// call: one clock read per boundary instead of two keeps the timer's
/// own cost (about 90 ns per three calls with separate reads) out of a
/// 1 us request.
class Timeline {
 public:
  template <typename F>
  decltype(auto) time(Layer layer, F&& f) {
    if (!on) return f();
    const bool chained = stack_.empty() && mark_ >= 0;
    stack_.push_back(Frame{layer, chained ? mark_ : ticks(), 0});
    const Exit exit{*this};
    return f();
  }
  /// The next outermost call starts its own clock.
  void cut() { mark_ = -1; }

  bool on = true;
  std::vector<ReplaySpan>* spans = nullptr;  // set while capturing
  std::int64_t origin = 0;
  double self[kLayerCount] = {};
  double outer = 0;

 private:
  struct Frame {
    Layer layer;
    std::int64_t start;
    std::int64_t child;
  };
  struct Exit {
    Timeline& t;
    ~Exit() { t.leave(); }
  };
  void leave() {
    const std::int64_t end = ticks();
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = end - f.start;
    self[f.layer] += double(dur - f.child);
    if (stack_.empty()) {
      outer += double(dur);
      mark_ = end;
    } else {
      stack_.back().child += dur;
    }
    if (spans != nullptr) spans->push_back({f.layer, f.start - origin, dur});
  }

  std::vector<Frame> stack_;
  std::int64_t mark_ = -1;
};

struct Counts {
  std::uint64_t appends = 0;
  std::uint64_t append_entries = 0;
  std::uint64_t snapshot_objects = 0;
  std::uint64_t syncs = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t snapshot_bytes = 0;
};

class TimedFile final : public storage::AppendFile {
 public:
  TimedFile(std::unique_ptr<storage::AppendFile> inner, Timeline& tl,
            Counts& counts)
      : inner_(std::move(inner)), tl_(tl), counts_(counts) {}

  bool append(std::span<const std::uint8_t> data) override {
    counts_.wal_bytes += data.size();
    return tl_.time(kAppend, [&] { return inner_->append(data); });
  }
  bool sync() override {
    ++counts_.syncs;
    return tl_.time(kFsync, [&] { return inner_->sync(); });
  }
  [[nodiscard]] std::uint64_t size() const override { return inner_->size(); }

 private:
  std::unique_ptr<storage::AppendFile> inner_;
  Timeline& tl_;
  Counts& counts_;
};

/// FileBackend decorator timing the calls a NodeStore makes.
class TimedBackend final : public storage::Backend {
 public:
  TimedBackend(std::string root, Timeline& tl, Counts& counts)
      : inner_(std::move(root)), tl_(tl), counts_(counts) {}

  std::vector<std::string> list(const std::string& dir) override {
    return inner_.list(dir);
  }
  bool read_file(const std::string& path,
                 std::vector<std::uint8_t>& out) override {
    return inner_.read_file(path, out);
  }
  bool write_file_atomic(const std::string& path,
                         std::span<const std::uint8_t> data) override {
    counts_.snapshot_bytes += data.size();
    return tl_.time(kSnapshotWrite,
                    [&] { return inner_.write_file_atomic(path, data); });
  }
  bool remove_file(const std::string& path) override {
    return tl_.time(kSnapshotWrite, [&] { return inner_.remove_file(path); });
  }
  std::unique_ptr<storage::AppendFile> open_append(
      const std::string& path) override {
    auto file = tl_.time(kAppend, [&] { return inner_.open_append(path); });
    if (file == nullptr) return nullptr;
    return std::make_unique<TimedFile>(std::move(file), tl_, counts_);
  }

 private:
  storage::FileBackend inner_;
  Timeline& tl_;
  Counts& counts_;
};

class Replayer;

class ReplayEnv final : public ServerEnv {
 public:
  ReplayEnv(Replayer& r, ServerId self) : r_(r), self_(self) {}

  dht::LookupResult dht_lookup(dht::HashKey h) override;
  std::vector<ServerId> replica_targets(dht::HashKey h, unsigned n) override;
  void send(ServerId to, const Message& msg) override;
  [[nodiscard]] SimTime now() const override;
  void defer(std::function<void()> fn) override {
    deferred.push_back(std::move(fn));
  }
  [[nodiscard]] obs::Hub& obs() override { return hub; }

  obs::Hub hub;  // per server, as each ClashNode has its own
  std::vector<std::function<void()>> deferred;

 private:
  Replayer& r_;
  ServerId self_;
};

class Replayer {
 public:
  Replayer(const Workload& w, const std::string& data_dir)
      : ring(make_ring()) {
    const ClashConfig cfg = clash_config(w);
    for (std::size_t i = 0; i < kNodes; ++i) {
      envs_.push_back(std::make_unique<ReplayEnv>(*this, ServerId{i}));
    }
    for (std::size_t i = 0; i < kNodes; ++i) {
      servers_.push_back(std::make_unique<ClashServer>(
          ServerId{i}, cfg, *envs_[i], ring.hasher()));
      if (w.durability == ClashConfig::DurabilityMode::kNone) continue;
      backends_.push_back(std::make_unique<TimedBackend>(
          data_dir + "/replay-node-" + std::to_string(i), tl, counts));
      stores_.push_back(std::make_unique<storage::NodeStore>(
          *backends_.back(), storage::NodeStore::Config::from(cfg)));
      stores_.back()->set_obs(&envs_[i]->hub, i);
      servers_.back()->set_storage(stores_.back().get());
    }
    const auto entries = compute_bootstrap_entries(ring, ring.hasher(), cfg);
    for (std::size_t i = 0; i < kNodes; ++i) {
      const auto it = entries.find(ServerId{i});
      if (it == entries.end()) continue;
      for (const auto& e : it->second) servers_[i]->install_entry(e);
      run_deferred(i);
      drain();
    }
  }

  ~Replayer() {
    // Servers first: they reference the stores, envs, and backends.
    servers_.clear();
    stores_.clear();
  }

  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  void send(ServerId from, ServerId to, const Message& msg) {
    if (const auto* a = std::get_if<ReplAppend>(&msg)) {
      ++counts.appends;
      counts.append_entries += a->entries.size();
    } else if (const auto* c = std::get_if<SnapshotChunk>(&msg)) {
      counts.snapshot_objects += c->streams.size() + c->queries.size();
    }
    auto frame = tl.time(kEncodePeer, [&] {
      auto w = wire::begin_frame(
          wire::Envelope{wire::FrameKind::kOneway, 0, from});
      wire::encode_message(w, msg);
      return wire::finish_frame(std::move(w));
    });
    queue_.push_back(Queued{from, to, std::move(frame)});
  }

  /// One request: decode it, handle it on its node, encode the reply,
  /// then end the tick (deferred work, peer traffic to quiescence).
  void request(const Pool& pool, std::size_t i) {
    tl.cut();
    handle(pool, i);
    run_deferred(pool.requests[i].node);
    drain();
  }

  /// Decode, handle, and encode the reply of request i (no tick end).
  void handle(const Pool& pool, std::size_t i) {
    const Request& req = pool.requests[i];
    const AcceptObject obj = tl.time(kDecodeRequest, [&] {
      const auto frame = wire::decode_frame(
          std::span<const std::uint8_t>(pool.frames[i]).subspan(4));
      if (!frame.ok()) throw std::runtime_error("bad request frame");
      const auto msg = wire::decode_message(frame.value().payload);
      if (!msg.ok()) throw std::runtime_error("bad request payload");
      return std::get<AcceptObject>(msg.value());
    });
    ClashServer& server = *servers_[req.node];
    const AcceptObjectReply reply =
        tl.time(kHandleSelf, [&] { return server.handle_accept_object(obj); });
    // The buffer goes back to the pool as a Connection returns it after
    // the flush.
    const std::size_t bytes = tl.time(kEncodeReply, [&] {
      auto w = wire::begin_frame(wire::Envelope{
          wire::FrameKind::kResponse, i, ServerId{req.node}});
      wire::encode_reply(w, reply);
      auto frame = wire::finish_frame(std::move(w));
      const std::size_t n = frame.size();
      wire::BufferPool::local().release(std::move(frame));
      return n;
    });
    const auto* ok = std::get_if<AcceptObjectOk>(&reply);
    if (ok == nullptr || ok->depth != req.depth || bytes == 0) {
      throw std::runtime_error("replay: request rejected");
    }
  }

  /// Register every source (untimed), as the live setup does.
  void populate(const Pool& pool) {
    tl.on = false;
    for (std::size_t s = 0; s < pool.keys.size(); ++s) {
      Request r;
      r.source = std::uint32_t(s);
      const std::size_t node = owner_of(ring, pool.keys[s]);
      (void)servers_[node]->handle_accept_object(make_object(pool, r));
      run_deferred(node);
      drain();
    }
    tl.on = true;
  }

  void run_deferred(std::size_t node) {
    auto& deferred = envs_[node]->deferred;
    while (!deferred.empty()) {
      auto tasks = std::exchange(deferred, {});
      for (auto& task : tasks) tl.time(kFlushSelf, task);
    }
  }

  /// Deliver queued peer messages until the cluster is quiet.
  void drain() {
    while (!queue_.empty()) {
      Queued q = std::move(queue_.front());
      queue_.pop_front();
      const Message msg = tl.time(kDecodePeer, [&] {
        const auto frame = wire::decode_frame(
            std::span<const std::uint8_t>(q.frame).subspan(4));
        if (!frame.ok()) throw std::runtime_error("bad peer frame");
        auto decoded = wire::decode_message(frame.value().payload);
        if (!decoded.ok()) throw std::runtime_error("bad peer payload");
        wire::BufferPool::local().release(std::move(q.frame));
        return std::move(decoded).value();
      });
      Layer layer = kApply;
      if (std::holds_alternative<ReplAck>(msg)) {
        layer = kAck;
      } else if (std::holds_alternative<SnapshotOffer>(msg) ||
                 std::holds_alternative<SnapshotChunk>(msg)) {
        layer = kSnapshot;
      }
      ClashServer& server = *servers_[q.to.value];
      tl.time(layer, [&] { server.deliver(q.from, msg); });
      run_deferred(q.to.value);
    }
  }

  /// Forget what set-up (bootstrap, population) timed and counted.
  void reset_measurements() {
    tl = Timeline{};
    counts = Counts{};
  }

  [[nodiscard]] const ClashServer& server(std::size_t i) const {
    return *servers_[i];
  }

  dht::ChordRing ring;
  Timeline tl;
  Counts counts;
  std::int64_t clock_us = 0;  // virtual time: the replayed request's due

 private:
  struct Queued {
    ServerId from;
    ServerId to;
    std::vector<std::uint8_t> frame;
  };
  std::vector<std::unique_ptr<ReplayEnv>> envs_;
  std::vector<std::unique_ptr<TimedBackend>> backends_;
  std::vector<std::unique_ptr<storage::NodeStore>> stores_;
  std::vector<std::unique_ptr<ClashServer>> servers_;
  std::deque<Queued> queue_;
};

dht::LookupResult ReplayEnv::dht_lookup(dht::HashKey h) {
  return r_.ring.lookup(h, self_);
}

std::vector<ServerId> ReplayEnv::replica_targets(dht::HashKey h, unsigned n) {
  auto servers = r_.ring.successors(h, std::size_t(n) + 1);
  if (!servers.empty()) servers.erase(servers.begin());  // the owner
  return servers;
}

void ReplayEnv::send(ServerId to, const Message& msg) {
  r_.send(self_, to, msg);
}

SimTime ReplayEnv::now() const { return SimTime(r_.clock_us); }

/// ns per call of `f`, over `n` calls.
template <typename F>
double ns_per_call(std::size_t n, F&& f) {
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) f(i);
  return double(now_ns() - t0) / double(n);
}

}  // namespace

ReplayResult replay(const Workload& w, const Pool& pool, std::uint64_t seed,
                    std::uint64_t first, double nominal_s, double peak_tick,
                    const std::string& data_dir) {
  ReplayResult out;
  {
    Replayer r(w, data_dir);
    r.populate(pool);

    // The nominal phase, each request at its scheduled (virtual) time,
    // so time-driven policies (interval fsync) fire as they did live.
    const auto dues = arrivals(seed, kNominal, w.nominal_rate, nominal_s);
    const std::size_t size = pool.requests.size();
    constexpr std::int64_t kPhaseStartUs = 10'000'000;
    r.reset_measurements();
    const std::int64_t start = now_ns();
    r.tl.origin = ticks();
    for (std::size_t k = 0; k < dues.size(); ++k) {
      r.clock_us = kPhaseStartUs + dues[k] / 1000;
      r.tl.spans = k < kSpanRequests ? &out.spans : nullptr;
      r.request(pool, std::size_t((first + k) % size));
    }
    const std::int64_t end_ticks = ticks();
    out.wall_ns = double(now_ns() - start);
    r.tl.spans = nullptr;
    const double ns_per_tick = out.wall_ns / double(end_ticks - r.tl.origin);
    out.requests = dues.size();
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      out.layer_ns[l] = r.tl.self[l] * ns_per_tick;
    }
    out.timed_ns = r.tl.outer * ns_per_tick;
    for (auto& span : out.spans) {
      span.start = std::int64_t(double(span.start) * ns_per_tick);
      span.dur = std::int64_t(double(span.dur) * ns_per_tick);
    }
    out.snapshot_objects = r.counts.snapshot_objects;
    out.syncs = r.counts.syncs;
    out.wal_bytes = r.counts.wal_bytes;
    out.snapshot_bytes = r.counts.snapshot_bytes;

    // The owner's table lookup alone (it also runs inside
    // handle_accept_object, so it is not added to the sum above).
    std::size_t found = 0;
    out.table_lookup_ns = ns_per_call(dues.size(), [&](std::size_t k) {
      const Request& req = pool.requests[(first + k) % size];
      found += r.server(req.node).table().active_entry_for(
                   pool.keys[req.source]) != nullptr;
    });
    if (found != dues.size()) throw std::runtime_error("table lookup missed");

    // Batching as at the live peak: each server's tick holds
    // `peak_tick` requests before its deferred ReplAppend flush.
    if (w.rf > 0) {
      const Counts before = r.counts;
      r.tl.on = false;
      const auto per_tick = std::size_t(std::max(1.0, peak_tick + 0.5));
      std::vector<std::size_t> cursor(kNodes, 0);
      for (std::size_t done = 0; done < kPeakPassRequests;) {
        for (std::size_t n = 0; n < kNodes; ++n) {
          const auto& stream = pool.by_node[n];
          for (std::size_t j = 0; j < per_tick && !stream.empty(); ++j) {
            r.handle(pool, stream[cursor[n]++ % stream.size()]);
            ++done;
          }
        }
        for (std::size_t n = 0; n < kNodes; ++n) r.run_deferred(n);
        r.drain();
      }
      const auto appends = r.counts.appends - before.appends;
      if (appends > 0) {
        out.peak_entries_per_append =
            double(r.counts.append_entries - before.append_entries) /
            double(appends);
      }
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(data_dir, ec);

  // Observability primitives, called as the node calls them (tracer
  // off: ClashNode never enables it).
  constexpr std::size_t kCalls = 1'000'000;
  obs::Hub hub;
  auto counter = hub.registry.counter("e2e_counter");
  auto hist = hub.registry.histogram("e2e_histogram");
  out.counter_inc_ns = ns_per_call(kCalls, [&](std::size_t) { counter.inc(); });
  out.histogram_record_ns = ns_per_call(
      kCalls, [&](std::size_t i) { hist.record(std::uint64_t(i & 1023)); });
  out.span_record_ns = ns_per_call(kCalls, [&](std::size_t i) {
    hub.tracer.record(obs::SpanKind::kIngest, 0,
                      SimTime(std::int64_t(i)), SimDuration{0}, i);
  });
  if (counter.value() != kCalls || hist.raw()->count() != kCalls) {
    throw std::runtime_error("obs primitives lost records");
  }
  return out;
}

}  // namespace e2e
