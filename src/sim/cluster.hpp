// SimCluster: a full CLASH deployment in one address space — Chord ring,
// one ClashServer + FailoverController per node, synchronous message
// delivery with per-class counting, the bootstrap splitter, and a
// global owner index for exact metrics. This is the substrate of every
// experiment (and reusable by integration tests without the event queue).
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "clash/client.hpp"
#include "clash/config.hpp"
#include "clash/failover.hpp"
#include "clash/server.hpp"
#include "clash/stats.hpp"
#include "dht/chord.hpp"
#include "obs/hub.hpp"
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
  [[nodiscard]] std::size_t num_servers() const { return servers_.size(); }
  [[nodiscard]] ClashServer& server(ServerId id);
  [[nodiscard]] const ClashServer& server(ServerId id) const;
  [[nodiscard]] const dht::ChordRing& ring() const { return ring_; }
  [[nodiscard]] const dht::KeyHasher& hasher() const {
    return ring_.hasher();
  }
  [[nodiscard]] const ClashConfig& clash_config() const {
    return config_.clash;
  }

  // --- Client access ----------------------------------------------------
  /// A ClientEnv whose DHT lookups originate at `access_point`.
  /// The returned object stays valid for the cluster's lifetime.
  [[nodiscard]] ClientEnv& client_env(ServerId access_point);

  // --- Time & periodic work ----------------------------------------------
  void set_now(SimTime t) { now_ = t; }
  [[nodiscard]] SimTime now() const { return now_; }

  /// Run one load check on one server (the runtime staggers these).
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

  /// Sink for link-delayed deliveries. Without one (plain SimCluster,
  /// no event queue), a delayed message is delivered inline — only
  /// drops and cuts apply. ChurnSim installs its event queue here.
  using DelaySink =
      std::function<void(SimDuration delay, std::function<void()> deliver)>;
  void set_delay_sink(DelaySink sink) { delay_sink_ = std::move(sink); }

  // --- Fail-slow injection ----------------------------------------------
  /// Mark a node fail-slow: it keeps running and answering, but every
  /// message touching it picks up slow_node_lag * (factor - 1) of
  /// extra latency each way (dispatch-level slowness, independent of
  /// any per-link fault). factor 1 restores full speed; restart_server
  /// also clears it (a restarted process is presumed healthy).
  /// Needs the delay sink (ChurnSim) for the lag to be real.
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

  /// Count the encoded wire size of every delivered server -> server
  /// message into transport_stats().wire_bytes (bench instrumentation:
  /// off by default, it encodes each message a second time).
  void set_wire_metering(bool on) { meter_wire_ = on; }
  [[nodiscard]] bool wire_metering() const { return meter_wire_; }

  // --- Failure injection (replication extension) -----------------------
  /// Oracle-style crash: crash_server + evict_server in one step, as if
  /// failure detection were instantaneous. Returns the number of groups
  /// whose state was recovered from a replica.
  std::size_t fail_server(ServerId id);

  // The same lifecycle split into the phases a live membership layer
  // (membership::MembershipDriver via ChurnSim) drives individually:
  // crash when the process dies, evict when the survivors' views
  // converge on the death, restart/join when it comes back.

  /// The process dies: messages to it are dropped. The ring still
  /// holds it until evict_server — the detection window, during which
  /// the owner index intentionally has stale entries.
  void crash_server(ServerId id);

  /// The survivors gave up on a crashed server: remove it from the
  /// ring, then run every live server's FailoverController. Each of its
  /// groups that no live server holds a replica of counts into
  /// transport_stats().groups_lost. Returns groups promoted.
  std::size_t evict_server(ServerId id);

  /// The process restarts with its in-memory state lost; the owner
  /// index forgets its groups. A durable server still on the ring
  /// re-adopts them from disk; a diskless one re-adopts nothing. Does
  /// not touch the ring — join_server does, once the survivors agree.
  void restart_server(ServerId id);

  /// Re-admit a restarted server to the ring (handing it its groups).
  void join_server(ServerId id);

  /// Oracle-style rejoin: restart_server + join_server.
  void revive_server(ServerId id);

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

  /// Transport+client counters plus the sum of per-server event stats.
  [[nodiscard]] MessageStats total_stats() const;
  /// Mutable access for client-side accounting (probes, hops, ...).
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

  void count_message(const Message& msg);

  /// Drop `id`'s entries from the owner index; returns those groups.
  std::vector<KeyGroup> forget_groups_of(ServerId id);
  /// (Re)create server `id` and its failover controller, owning nothing.
  void boot_server(ServerId id);

  Config config_;
  dht::ChordRing ring_;
  std::vector<std::unique_ptr<ServerEnvImpl>> server_envs_;
  std::vector<std::unique_ptr<ClashServer>> servers_;
  std::vector<std::unique_ptr<FailoverController>> failovers_;
  std::vector<std::unique_ptr<storage::MemBackend>> backends_;
  std::vector<std::unique_ptr<storage::NodeStore>> stores_;
  bool meter_wire_ = false;
  std::deque<ClientEnvImpl> client_envs_;  // stable addresses
  std::unordered_map<std::uint64_t, std::size_t> client_env_by_origin_;
  std::unordered_map<KeyGroup, ServerId> owners_;
  std::vector<bool> alive_;
  std::vector<double> node_slow_;  // fail-slow factor per node (1 = ok)
  std::size_t slow_nodes_ = 0;     // count of factors > 1
  Rng corrupt_rng_;                // byte-flip stream (corrupt faults)
  /// Sim-time of each server's crash (usec < 0 = none pending); the
  /// crash -> evict gap is the detection window, recorded into
  /// clash_failover_detect_usec when the eviction lands.
  std::vector<SimTime> crash_time_;
  obs::HistogramHandle failover_detect_us_;
  MessageStats stats_;
  LinkMatrix links_;
  DelaySink delay_sink_;
  SimTime now_{0};
};

}  // namespace clash::sim
