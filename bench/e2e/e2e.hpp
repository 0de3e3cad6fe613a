// End-to-end request-path benchmark: shared types.
//
// Three net::ClashNodes in one process over loopback, driven by one
// open-loop generator thread (untraced mode), plus a replay of the same
// seeded request stream through each layer's public functions (traced
// mode). See README.md for the workloads and the metric dictionary.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "clash/config.hpp"
#include "clash/messages.hpp"
#include "dht/chord.hpp"
#include "net/socket.hpp"
#include "obs/histogram.hpp"

namespace clash::net {
class ClashNode;
}  // namespace clash::net

namespace e2e {

using namespace clash;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The paper's bootstrap: 24-bit keys, 2^6 = 64 groups over 3 servers.
constexpr unsigned kKeyWidth = 24;
constexpr unsigned kDepth = 6;
constexpr std::size_t kGroups = std::size_t{1} << kDepth;
constexpr std::size_t kNodes = 3;
/// A reply later than this counts as a failure.
constexpr std::int64_t kTimeoutNs = 1'000'000'000;

struct Workload {
  std::string_view name;
  unsigned rf = 0;
  ClashConfig::DurabilityMode durability = ClashConfig::DurabilityMode::kNone;
  ClashConfig::FsyncPolicy fsync = ClashConfig::FsyncPolicy::kInterval;
  /// Sources registered during setup; measured puts re-register them.
  std::size_t population = 0;
  double nominal_rate = 0;   // requests/s, open loop
  unsigned peak_window = 0;  // outstanding requests per connection
  double read_frac = 0;      // share of probe_only requests
  bool zipf = false;         // groups drawn Zipf(0.99), else uniform
};

[[nodiscard]] const Workload* find_workload(std::string_view name);
[[nodiscard]] ClashConfig clash_config(const Workload& w);
/// The ring every node builds from the default NodeConfig (32-bit SHA-1
/// hashing, 8 virtual servers, salt 0), so the bench can route requests
/// and name replica sets exactly as the nodes do.
[[nodiscard]] dht::ChordRing make_ring();
/// Index of the node owning the depth-kDepth group of `key`.
[[nodiscard]] std::size_t owner_of(const dht::ChordRing& ring, const Key& key);
/// Pin the calling thread to one CPU (modulo the CPU count). The
/// generator runs on CPU 0 and node i's threads on CPU 1 + i: fixed
/// placement keeps a node from landing on the generator's busy CPU and
/// keeps interrupt time charged to the same threads run after run.
void pin_thread(std::size_t cpu);

// --- Seeded inputs --------------------------------------------------------

struct Request {
  std::uint32_t source = 0;
  std::uint8_t node = 0;  // connection the request is sent on
  std::uint8_t depth = kDepth;
  bool probe = false;
};

/// Everything the run sends, generated from the seed and pre-encoded so
/// the generator only copies bytes. Request i of the measured stream is
/// requests[i % size] and carries request id i % size.
struct Pool {
  std::vector<Key> keys;  // per source
  std::vector<Request> requests;
  std::vector<std::vector<std::uint8_t>> frames;
  /// One put per source (request id = source index), sent during setup
  /// to each node in population_by_node order.
  std::vector<std::vector<std::uint8_t>> population_frames;
  std::vector<std::vector<std::uint32_t>> population_by_node;
  /// Indices into `requests` per target node (the peak phase's streams).
  std::vector<std::vector<std::uint32_t>> by_node;
};

[[nodiscard]] Pool make_pool(const Workload& w, std::uint64_t seed,
                             const dht::ChordRing& ring);
[[nodiscard]] AcceptObject make_object(const Pool& pool, const Request& r);
/// (Re-)encode request i into pool.frames[i].
void encode_request(Pool& pool, std::size_t i);

/// Poisson arrivals of one open-loop phase of `seconds` at `rate`: their
/// offsets from the phase start in ns. Each phase draws from its own
/// seeded stream, so the replay can regenerate any phase's schedule.
[[nodiscard]] std::vector<std::int64_t> arrivals(std::uint64_t seed,
                                                 std::uint64_t phase,
                                                 double rate, double seconds);

/// Open-loop phases; each draws its arrivals from its own stream.
enum Phase : std::uint8_t { kWarmup = 1, kNominal = 2, kEcho = 4 };

// --- The cluster under test ---------------------------------------------

/// Transport and protocol counters summed over the nodes; histograms
/// merged. Read straight from each node's registry (atomic cells, no
/// scrape-time callbacks), so any thread may take one between phases.
struct Counters {
  std::uint64_t frames = 0;  // sent + received
  std::uint64_t bytes = 0;   // sent + received
  std::uint64_t frames_sent = 0;
  std::uint64_t flushes = 0;
  obs::Histogram::Snapshot tick;
  obs::Histogram::Snapshot commit;

  /// this - earlier, histograms bucket by bucket.
  [[nodiscard]] Counters since(const Counters& earlier) const;
};

class Cluster {
 public:
  /// Start kNodes nodes on loopback, install the bootstrap tables, and
  /// (log replication) wait until every replica holder has its groups.
  Cluster(const Workload& w, std::string data_dir);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] const std::vector<net::Endpoint>& endpoints() const {
    return endpoints_;
  }
  [[nodiscard]] Counters counters();
  /// The output checks; one line per violation (empty = all hold).
  [[nodiscard]] std::vector<std::string> check(std::size_t population);

 private:
  const Workload& w_;
  std::string data_dir_;
  dht::ChordRing ring_;
  std::vector<net::Endpoint> endpoints_;
  std::vector<std::unique_ptr<net::ClashNode>> nodes_;
};

// --- Generator ------------------------------------------------------------

/// One request's client-side span (traced mode), times in ns.
struct ClientSpan {
  std::int64_t due = 0;
  std::int64_t sent = 0;
  std::int64_t replied = 0;
  std::uint32_t id = 0;
  std::uint8_t node = 0;
  bool ok = false;
};

struct PhaseResult {
  std::uint64_t attempted = 0;
  std::uint64_t acked = 0;
  std::uint64_t failed = 0;
  /// Due-to-reply latency of every request (failures as INT64_MAX).
  std::vector<std::int64_t> latency_ns;
  /// How late the generator sent each request.
  std::vector<std::int64_t> late_ns;
  std::size_t backlog_max = 0;
  double node_cpu_s = 0;  // process CPU minus the generator thread's
  double wall_s = 0;
  std::uint64_t steal_ticks = 0;
  std::uint64_t total_ticks = 0;
  /// The phase cut into one-second windows (the last one includes the
  /// drain of outstanding replies).
  struct Window {
    double node_cpu_s = 0;
    std::uint64_t acked = 0;
  };
  std::vector<Window> windows;
};

class Generator {
 public:
  /// One non-blocking connection per endpoint.
  Generator(const std::vector<net::Endpoint>& endpoints, const Pool& pool);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// From now on, append one ClientSpan per request completed in an
  /// even-numbered window of its phase; the odd windows stay untraced
  /// as a control (null stops recording).
  void record_spans(std::vector<ClientSpan>* spans) { spans_ = spans; }

  /// Register every source, `window` requests outstanding per node.
  PhaseResult populate(unsigned window);
  /// Poisson arrivals at `rate` for `seconds`; request k of the phase is
  /// pool request (first + k) mod size. Advances `first`.
  PhaseResult open_loop(Phase phase, std::uint64_t seed, double rate,
                        double seconds, std::uint64_t& first);
  /// `window` requests outstanding per connection for `seconds`, each
  /// connection cycling through its node's requests.
  PhaseResult closed_window(unsigned window, double seconds);

 private:
  struct Conn;
  struct Pending;
  void send(std::size_t conn, const std::vector<std::uint8_t>& frame,
            std::uint32_t id, std::uint8_t depth, std::int64_t due,
            PhaseResult& r);
  void flush();
  /// Read and check every available reply; the count per connection
  /// goes to `conn_replies` when set.
  void poll(PhaseResult& r, std::size_t* conn_replies);
  void complete(std::size_t conn, std::span<const std::uint8_t> frame,
                std::int64_t now, PhaseResult& r);
  void begin_phase(double seconds);
  void close_window(PhaseResult& r);
  /// Wait for outstanding replies (or their timeout), then stamp the
  /// phase's CPU and wall time.
  void finish(PhaseResult& r);
  [[nodiscard]] std::size_t outstanding() const;

  const Pool& pool_;
  std::vector<ClientSpan>* spans_ = nullptr;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<std::size_t> peak_cursor_;
  // Phase start: process CPU, generator CPU, wall, host steal jiffies.
  double cpu0_ = 0;
  double gen_cpu0_ = 0;
  std::int64_t wall0_ = 0;
  std::uint64_t steal0_ = 0;
  std::uint64_t total0_ = 0;
  // Current window: its end, and the phase totals when it began.
  std::int64_t window_ns_ = 0;
  std::int64_t window_end_ = 0;
  double window_cpu0_ = 0;
  std::uint64_t window_acked0_ = 0;
};

/// A bare Connection/EventLoop echo server on its own thread, pinned to
/// `cpu`: answers each request frame with a reply-sized AcceptObjectOk
/// frame carrying the request's id — the transport cost of one request
/// without the protocol.
class EchoServer {
 public:
  explicit EchoServer(std::size_t cpu);
  ~EchoServer();
  EchoServer(const EchoServer&) = delete;
  EchoServer& operator=(const EchoServer&) = delete;
  [[nodiscard]] net::Endpoint endpoint() const { return endpoint_; }

 private:
  struct State;
  std::unique_ptr<State> state_;
  net::Endpoint endpoint_;
  std::thread thread_;
};

// --- Traced replay ----------------------------------------------------------

/// The calls the replay times; each reports its self time.
enum Layer : std::uint8_t {
  kDecodeRequest,
  kHandleSelf,
  kEncodeReply,
  kFlushSelf,
  kEncodePeer,
  kDecodePeer,
  kApply,
  kAck,
  kSnapshot,
  kAppend,
  kFsync,
  kSnapshotWrite,
  kLayerCount
};
[[nodiscard]] const char* layer_metric(Layer l);

struct ReplaySpan {
  Layer layer;
  std::int64_t start = 0;  // ns from the replay's start
  std::int64_t dur = 0;    // ns
};

struct ReplayResult {
  std::uint64_t requests = 0;
  double layer_ns[kLayerCount] = {};  // self time summed over the run
  double timed_ns = 0;  // sum of outermost timed calls
  double wall_ns = 0;
  double table_lookup_ns = 0;  // per lookup
  std::uint64_t snapshot_objects = 0;
  std::uint64_t syncs = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t snapshot_bytes = 0;
  /// ReplAppend entries per message when ticks hold `peak_tick`
  /// requests per server (the live peak's batching).
  double peak_entries_per_append = 0;
  double span_record_ns = 0;
  double counter_inc_ns = 0;
  double histogram_record_ns = 0;
  std::vector<ReplaySpan> spans;  // first requests only
};

/// Replay the nominal phase (arrivals `first`..) of seed `seed` through
/// three ClashServers hosted in-process.
[[nodiscard]] ReplayResult replay(const Workload& w, const Pool& pool,
                                  std::uint64_t seed, std::uint64_t first,
                                  double nominal_s, double peak_tick,
                                  const std::string& data_dir);

}  // namespace e2e
