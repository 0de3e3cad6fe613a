// SimCluster: a full CLASH deployment in one address space — one
// clash::NodeHost per node (its ClashServer, its own ring, the failover
// rule: what net::ClashNode runs), the bootstrap splitter, and a global
// owner index for exact metrics. It owns the one event queue and clock,
// on which Runtime and ChurnSim schedule too. A message travels as the
// frame a ClashNode sends, decoded on arrival; a client RPC crosses the
// codec both ways. Handlers run to completion: a zero-delay message or
// a defer runs on the lane after its handler (a node's end of tick), a
// delayed one or a call_after on the queue.
// Oracle membership (fail, evict, join, revive) gives every live host
// one new ring in one step; ChurnSim moves each host's ring on that
// server's own SWIM verdicts instead.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "clash/client.hpp"
#include "clash/config.hpp"
#include "clash/failover.hpp"
#include "clash/server.hpp"
#include "clash/stats.hpp"
#include "dht/chord.hpp"
#include "obs/hub.hpp"
#include "sim/event_queue.hpp"
#include "sim/link_matrix.hpp"
#include "storage/backend.hpp"
#include "storage/store.hpp"

namespace clash::sim {

class SimCluster {
 public:
  struct Config {
    std::size_t num_servers = 1000;
    ClashConfig clash;
    unsigned hash_bits = 32;
    unsigned virtual_servers = 1;
    dht::KeyHasher::Algo hash_algo = dht::KeyHasher::Algo::kMix64;
    std::uint64_t seed = 42;
    /// Unit of fail-slow lag: a node marked slow with factor f adds
    /// slow_node_lag * (f - 1) to every message it sends or receives,
    /// on top of link faults. 20ms mirrors the default ChurnSim gossip
    /// delay, so factor 100 pushes a probe round trip past typical
    /// suspicion timeouts while factor 10 stays inside them.
    SimDuration slow_node_lag{20'000};
  };

  explicit SimCluster(Config config);
  ~SimCluster();

  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  /// Build the initial tree: a depth-0 lineage root force-split down to
  /// clash.initial_depth, then mark the leaves as root entries (the
  /// administrative consolidation floor). Resets stats afterwards.
  void bootstrap();

  // --- Topology -------------------------------------------------------
  [[nodiscard]] std::size_t num_servers() const { return hosts_.size(); }
  [[nodiscard]] ClashServer& server(ServerId id);
  [[nodiscard]] const ClashServer& server(ServerId id) const;
  [[nodiscard]] NodeHost& host(ServerId id) { return *hosts_[id.value]; }
  /// The oracle ring (under ChurnSim, the seed list); ring_of(id) is
  /// a server's own view.
  [[nodiscard]] const dht::ChordRing& ring() const { return *ring_; }
  [[nodiscard]] const dht::ChordRing& ring_of(ServerId id) const {
    return hosts_[id.value]->ring();
  }
  [[nodiscard]] const dht::KeyHasher& hasher() const {
    return ring_->hasher();
  }
  [[nodiscard]] const ClashConfig& clash_config() const {
    return config_.clash;
  }

  // --- Client access ----------------------------------------------------
  /// A ClientEnv whose DHT lookups originate at `access_point`.
  /// The returned object stays valid for the cluster's lifetime.
  [[nodiscard]] ClientEnv& client_env(ServerId access_point);

  // --- Time & periodic work ----------------------------------------------
  /// A test calling a server directly is outside any dispatch: what it
  /// defers waits for the next one, and what it sends starts its own.
  [[nodiscard]] EventQueue& events() { return events_; }
  [[nodiscard]] SimTime now() const { return events_.now(); }
  /// Run every message, timer and event due by `t`; leaves now() == t
  /// (or unchanged, when `t` is past). Not from inside a handler.
  void run_until(SimTime t) { events_.run_until(t); }

  /// Run one load check on one server (the runtime staggers these).
  /// Like every SimCluster operation that runs protocol handlers (the
  /// client RPC, bootstrap, evict, restart, join), it dispatches each
  /// server's handler: the lane runs before it returns.
  void run_load_check(ServerId id);
  /// Run a load check on every server (tests).
  void run_all_load_checks();

  // --- Owner index & direct bookkeeping -----------------------------------
  /// Server currently managing the active group containing `key`.
  [[nodiscard]] std::optional<ServerId> find_owner(const Key& key) const;
  /// The active group containing `key`.
  [[nodiscard]] std::optional<KeyGroup> find_active_group(
      const Key& key) const;

  /// Remove a stream/query wherever it currently lives (bookkeeping for
  /// key changes and query expiry; not a protocol message).
  void withdraw_stream(ClientId source, const Key& key);
  void withdraw_query(QueryId id, const Key& key);

  /// Lazily materialise a fixed-depth group at its DHT owner (the
  /// DHT(x) baselines never pre-split the tree). No-op if present.
  void ensure_group(const KeyGroup& group);

  // --- Link-fault injection (partition extension) -----------------------
  /// Per-ordered-pair drop/delay/cut matrix consulted by every
  /// server -> server message (client RPCs model retries and bypass
  /// it). Mutable mid-run; ChurnSim drives partition schedules on it.
  [[nodiscard]] LinkMatrix& links() { return links_; }
  [[nodiscard]] const LinkMatrix& links() const { return links_; }

  /// Send `msg` from server `from`. Gossip (ChurnSim's drivers) rides
  /// this transport as on a ClashNode: `latency` is its clean-link
  /// delay, and arriving Gossip goes to `sink`.
  void send(ServerId from, ServerId to, const Message& msg);
  using GossipSink =
      std::function<void(ServerId from, ServerId to, const Gossip& msg)>;
  void set_gossip_sink(SimDuration latency, GossipSink sink) {
    gossip_latency_ = latency;
    gossip_sink_ = std::move(sink);
  }

  // --- Fail-slow injection ----------------------------------------------
  /// Mark a node fail-slow: it keeps running and answering, but every
  /// message touching it picks up slow_node_lag * (factor - 1) of
  /// extra latency each way (dispatch-level slowness, independent of
  /// any per-link fault). factor 1 restores full speed; restart_server
  /// also clears it (a restarted process is presumed healthy).
  void set_node_slow(ServerId id, double factor);
  [[nodiscard]] double node_slow(ServerId id) const {
    return id.value < node_slow_.size() ? node_slow_[id.value] : 1.0;
  }
  /// The one-way lag this node's slowness adds to a message.
  [[nodiscard]] SimDuration slow_penalty(ServerId id) const {
    const double f = node_slow(id);
    if (f <= 1.0) return SimDuration{0};
    return SimDuration{
        std::int64_t(double(config_.slow_node_lag.usec) * (f - 1.0))};
  }
  /// Any node currently marked slow? (fast path for dispatch)
  [[nodiscard]] bool any_node_slow() const { return slow_nodes_ > 0; }

  // --- Durable storage (src/storage/) ----------------------------------
  /// Per-server in-memory durable store, created when
  /// clash.durability_mode != kNone. The backend survives crash +
  /// restart (it is the simulated disk); crash_server applies its
  /// configured crash fault (drop-unsynced, torn tail), and
  /// restart_server rebuilds the store and restores the server from
  /// it. Null when durability is off.
  [[nodiscard]] storage::MemBackend* storage_backend(ServerId id) {
    return id.value < backends_.size() ? backends_[id.value].get() : nullptr;
  }
  [[nodiscard]] storage::NodeStore* storage_of(ServerId id) {
    return id.value < stores_.size() ? stores_[id.value].get() : nullptr;
  }

  // --- Failure injection (replication extension) -----------------------
  /// Oracle-style crash: crash_server + evict_server in one step, as if
  /// failure detection were instantaneous, then the queue runs through
  /// the heirs' recovery_grace. Returns the number of groups whose
  /// state was recovered from a replica.
  std::size_t fail_server(ServerId id);

  /// The process dies: messages to it drop and its timers never fire.
  /// Live rings hold it until their hosts drop it — the detection
  /// window, during which the owner index has stale entries.
  void crash_server(ServerId id);

  /// Close the detection window of each crashed server no live ring
  /// holds: record it into clash_failover_detect_usec, and count its
  /// groups no live server holds a replica of into groups_lost.
  void settle_crashes();

  /// Oracle eviction: every live host drops a crashed server from its
  /// ring (and fails over). Returns groups promoted at once; under log
  /// replication the heirs promote only after recovery_grace, when the
  /// queue runs past it.
  std::size_t evict_server(ServerId id);

  /// The process restarts with its in-memory state lost; the owner
  /// index forgets its groups. Its ring is the oracle ring plus itself.
  /// A durable server re-adopts the restored groups its ring maps to
  /// it; a diskless one re-adopts nothing.
  void restart_server(ServerId id);

  /// Oracle re-admission: every live host adds a restarted server to
  /// its ring (handing it its groups).
  void join_server(ServerId id);

  /// Oracle-style rejoin: restart_server + join_server.
  void revive_server(ServerId id);

  /// How many live servers' rings hold `id`.
  [[nodiscard]] std::size_t live_rings_holding(ServerId id) const;

  [[nodiscard]] bool is_alive(ServerId id) const {
    return id.value < alive_.size() && alive_[id.value];
  }
  [[nodiscard]] std::size_t alive_count() const;

  // --- Metrics -------------------------------------------------------------
  struct LoadSnapshot {
    double max_load_frac = 0;        // max over all servers, / capacity
    double avg_active_load_frac = 0; // mean over loaded servers
    std::size_t active_servers = 0;  // servers with load > 0
    std::size_t active_groups = 0;
    unsigned min_depth = 0;
    unsigned max_depth = 0;
    double avg_depth = 0;
  };
  [[nodiscard]] LoadSnapshot snapshot() const;

  /// Harness counters plus the sum of every ClashServer's counts
  /// (servers replaced by a restart included).
  [[nodiscard]] MessageStats total_stats() const;
  /// Mutable access for the harness-only fields (probes, hops, ...).
  [[nodiscard]] MessageStats& transport_stats() { return stats_; }
  void reset_stats();

  /// Every active (group, owner) pair: a read-only oracle for metrics
  /// and invariant checks; no failover decision reads it.
  [[nodiscard]] const std::unordered_map<KeyGroup, ServerId>& owner_index()
      const {
    return owners_;
  }

  /// Validates global invariants: every server table consistent, active
  /// groups prefix-free *globally*, owner index matches server tables.
  /// Returns the first violation, or nullopt. A violation lands a
  /// kInvariantFail event in the global hub's event ring so a postmortem
  /// dump taken at the abort site carries the verdict.
  [[nodiscard]] std::optional<std::string> check_invariants() const;

 private:
  [[nodiscard]] std::optional<std::string> check_invariants_impl() const;
  class ServerEnvImpl;
  class ClientEnvImpl;

  /// Decode one arriving frame as a ClashNode does, meter it, and hand
  /// the message to its receiver, if alive: the server (which counts
  /// protocol classes) or the gossip sink.
  void deliver(ServerId to, std::span<const std::uint8_t> frame);

  /// (Re)create server `id`'s host, owning nothing, over `ring`.
  void boot_server(ServerId id, NodeHost::Ring ring);

  Config config_;
  NodeHost::Ring ring_;  // the oracle ring
  std::vector<std::unique_ptr<ServerEnvImpl>> server_envs_;
  std::vector<std::unique_ptr<NodeHost>> hosts_;
  std::vector<std::unique_ptr<storage::MemBackend>> backends_;
  std::vector<std::unique_ptr<storage::NodeStore>> stores_;
  std::deque<ClientEnvImpl> client_envs_;  // stable addresses
  std::unordered_map<std::uint64_t, std::size_t> client_env_by_origin_;
  std::unordered_map<KeyGroup, ServerId> owners_;
  std::unordered_set<KeyGroup> contested_;  // activated over a holder
  std::vector<bool> alive_;
  std::vector<double> node_slow_;  // fail-slow factor per node (1 = ok)
  std::size_t slow_nodes_ = 0;     // count of factors > 1
  Rng corrupt_rng_;                // byte-flip stream (corrupt faults)
  /// Sim-time of each server's crash (usec < 0 = none pending).
  std::vector<SimTime> crash_time_;
  obs::HistogramHandle failover_detect_us_;
  MessageStats stats_;
  LinkMatrix links_;
  SimDuration gossip_latency_{0};
  GossipSink gossip_sink_;
  EventQueue events_;
};

}  // namespace clash::sim
