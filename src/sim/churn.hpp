// ChurnSim: a SimCluster driven by live SWIM membership instead of the
// failure oracle. Every server runs a MembershipDriver, and each
// server's ring follows its own driver's verdicts, as on a ClashNode;
// gossip, link delays and server timers ride the discrete-event queue.
// The lifecycle a real deployment sees:
//
//   kill(x)            -> crash_server: messages to x drop
//   a survivor         -> its ring drops x; after the grace it promotes
//   declares x dead       the replicas it now heirs
//   no ring holds x    -> detection window closes (groups_lost counted)
//   revive(x)          -> restart_server + fresh driver, ring = seeds;
//                         x refutes its death with a bumped incarnation
//   a survivor sees x  -> its ring re-adds x and hands x the groups it
//   alive again           now maps there
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "membership/driver.hpp"
#include "obs/census.hpp"
#include "sim/cluster.hpp"
#include "sim/event_queue.hpp"

namespace clash::sim {

class ChurnSim {
 public:
  struct Config {
    SimCluster::Config cluster;
    membership::MembershipConfig membership;
    /// SWIM protocol period (one probe round per server).
    SimDuration protocol_period = SimTime::from_seconds(1);
    /// One-way gossip message latency.
    SimDuration gossip_delay = SimTime::from_seconds(0.02);
    /// Also drive periodic load checks (replica refresh, splits).
    bool run_load_checks = true;
    /// Per-node suspicion-timeout override (server index -> periods):
    /// nodes listed here run SWIM with their own eviction leash instead
    /// of membership.suspicion_periods. Survives revivals.
    std::map<std::size_t, unsigned> suspicion_periods_override;
    /// Run a per-node cost census piggybacked on the gossip (records
    /// folded from each ClashServer, disseminated per
    /// membership.census_max_records). Off only for experiments that
    /// want byte-identical gossip to the pre-census protocol.
    bool enable_census = true;
    obs::CensusConfig census;
    std::uint64_t seed = 42;
  };

  explicit ChurnSim(Config config);
  ~ChurnSim();

  ChurnSim(const ChurnSim&) = delete;
  ChurnSim& operator=(const ChurnSim&) = delete;

  [[nodiscard]] SimCluster& cluster() { return *cluster_; }
  [[nodiscard]] const SimCluster& cluster() const { return *cluster_; }
  [[nodiscard]] EventQueue& events() { return events_; }
  [[nodiscard]] SimDuration protocol_period() const {
    return config_.protocol_period;
  }

  /// Bootstrap the tree and schedule the staggered per-server protocol
  /// periods (and load checks).
  void start();

  /// Advance simulated time by `d`.
  void run_for(SimDuration d);

  /// Crash `id` now: its driver stops, messages to it drop.
  void kill(ServerId id);

  /// Restart `id` with a fresh driver (and empty protocol state). It
  /// refutes its own death rumour and rejoins each survivor's ring.
  void revive(ServerId id);

  // --- Beyond crash-stop ------------------------------------------------

  /// Mark `id` fail-slow (factor > 1) or healthy again (factor <= 1):
  /// the node keeps answering, but every message it sends or receives
  /// gains cluster.slow_node_lag * (factor - 1) of latency each way —
  /// gossip included. A factor large enough to push probe round trips
  /// past the SWIM timeouts gets the node suspected, declared dead, and
  /// excommunicated (crashed) once every survivor's view holds it dead;
  /// revive() brings it back as a fresh process.
  void set_slow(ServerId id, double factor);

  /// Skew `id`'s local clock: it runs its protocol periods and load
  /// checks `rate` times faster (rate > 1) or slower (rate < 1) than
  /// sim-time. Suspicion timeouts count local ticks, so a skewed node
  /// probes, suspects, and expires suspicions on its own notion of
  /// time — eviction/refutation must stay correct regardless.
  void set_clock_rate(ServerId id, double rate);

  /// Retune one node's suspicion timeout live (applies to the current
  /// driver and to every future revival of `id`).
  void set_suspicion_periods(ServerId id, unsigned periods);

  /// Sum over all drivers of gossip messages rejected by the content
  /// CRC fence (corrupted in flight but structurally valid).
  [[nodiscard]] std::uint64_t gossip_corrupt_rejected() const;

  /// This node's census table (its local slice of the cluster view).
  /// A revival replaces the census along with the driver — a restarted
  /// process relearns the cluster from gossip like everything else.
  [[nodiscard]] obs::Census& census_of(ServerId id) {
    return *censuses_[id.value];
  }
  [[nodiscard]] const obs::Census& census_of(ServerId id) const {
    return *censuses_[id.value];
  }

  // --- Link faults & partition events ----------------------------------
  // All protocol AND gossip traffic consults cluster().links(); these
  // helpers drive whole-partition scenarios on it. Partition events
  // compose with kill/revive — e.g. kill a server while its side is
  // partitioned and watch each side's rings diverge until the heal.

  [[nodiscard]] LinkMatrix& links() { return cluster_->links(); }

  /// Cut every link between `side` and the rest of the cluster, both
  /// directions (split-brain).
  void partition(const std::vector<ServerId>& side);
  /// Cut only the messages FROM `side` to the rest: the cut side keeps
  /// hearing the majority but is never heard (asymmetric one-way cut).
  void one_way_partition(const std::vector<ServerId>& side);
  /// Remove every link fault installed so far (default fault included).
  void heal_partitions();
  /// Uniform lossy cluster: every link independently drops each
  /// message with probability `p` (0 restores clean links).
  void set_loss_rate(double p);
  /// Flap schedule: partition `side`, heal after `period`, repeat for
  /// `cycles` cut/heal pairs (the last event is always a heal).
  void schedule_flaps(std::vector<ServerId> side, SimDuration period,
                      unsigned cycles);

  // --- Convergence queries ---------------------------------------------
  [[nodiscard]] const membership::MembershipView& view_of(ServerId id) const;
  /// Every live server's view marks `victim` dead.
  [[nodiscard]] bool all_survivors_see_dead(ServerId victim) const;
  /// Every live server's view (including `id`'s own) marks `id` alive.
  [[nodiscard]] bool all_survivors_see_alive(ServerId id) const;
  /// Every live server's ring holds exactly the live servers.
  [[nodiscard]] bool ring_matches_membership() const;
  [[nodiscard]] std::uint64_t gossip_messages() const;

 private:
  class GossipEnvImpl;

  void tick_server(std::size_t idx);
  void run_load_check(std::size_t idx);
  /// Everyone not in `side`.
  [[nodiscard]] std::vector<ServerId> complement(
      const std::vector<ServerId>& side) const;
  /// Note admissions, then crash every admitted live node all
  /// survivors hold dead. Run on every verdict and every kill: removing
  /// a dissenter can be what makes the remaining views unanimous.
  void excommunicate();
  [[nodiscard]] std::unique_ptr<membership::MembershipDriver> make_driver(
      ServerId id, std::uint64_t generation);
  [[nodiscard]] std::unique_ptr<obs::Census> make_census(ServerId id);

  Config config_;
  std::unique_ptr<SimCluster> cluster_;
  EventQueue events_;
  std::vector<std::unique_ptr<GossipEnvImpl>> envs_;
  std::vector<std::unique_ptr<obs::Census>> censuses_;
  std::vector<std::unique_ptr<membership::MembershipDriver>> drivers_;
  std::vector<std::uint64_t> generation_;  // bumped per revival
  /// Every live ring has held the node since its last boot (a revived
  /// one stays dead in every view until its refutation spreads).
  std::vector<bool> admitted_;
  std::vector<double> clock_rate_;         // local-clock speed (1 = true)
  bool started_ = false;
};

}  // namespace clash::sim
