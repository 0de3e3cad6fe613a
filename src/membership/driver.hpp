// MembershipDriver: composes MembershipView + FailureDetector into the
// full SWIM protocol, transport-agnostic the same way ClashServer is:
// all I/O goes through MembershipEnv, so the identical logic runs under
// the discrete-event simulator (sim::ChurnSim) and the epoll TCP node
// (net::ClashNode). The host calls tick() once per protocol period and
// routes incoming Gossip messages to handle().
// Thread contract: like Census, the driver is affine to its host's
// single thread (event loop or simulator). All state is
// CLASH_GUARDED_BY(affinity_); public methods witness the token at
// entry, and net::ClashNode binds it to the event-loop probe.
#pragma once

#include <cstdint>
#include <map>

#include "clash/messages.hpp"
#include "common/affinity.hpp"
#include "common/thread_annotations.hpp"
#include "membership/detector.hpp"
#include "membership/view.hpp"
#include "obs/census.hpp"
#include "obs/hub.hpp"

namespace clash::membership {

struct MembershipConfig {
  ViewConfig view;
  DetectorConfig detector;
  /// Periods a suspect stays refutable before it is declared dead
  /// (SWIM's suspicion timeout, in protocol periods).
  unsigned suspicion_periods = 3;
  /// Max rumours piggybacked per gossip message.
  std::size_t gossip_max_updates = 6;
  /// Max cost-census records piggybacked per gossip message (when a
  /// census is attached). Small on purpose: census freshness is worth
  /// little, so it gets the leftover budget, not its own traffic.
  std::size_t census_max_records = 2;
};

/// Runtime services the driver needs, plus the membership-change
/// callbacks the deployment layer reacts to (ring updates, failover).
class MembershipEnv {
 public:
  virtual ~MembershipEnv() = default;

  /// Deliver a gossip message to a peer (fire-and-forget).
  virtual void gossip_send(ServerId to, const Gossip& msg) = 0;

  /// `id` was declared dead: remove it from the ring and fail its
  /// groups over. Fired once per death (until a revival).
  virtual void on_member_dead(ServerId id) { (void)id; }

  /// `id` joined (or returned from the dead with a fresher
  /// incarnation): add it to the ring.
  virtual void on_member_joined(ServerId id) { (void)id; }

  /// `id` entered suspect state (locally or via gossip) and its
  /// refutation timer just started. Advisory: fired for observability
  /// (the event ring), not for failover — wait for on_member_dead.
  virtual void on_member_suspected(ServerId id) { (void)id; }
};

class MembershipDriver {
 public:
  MembershipDriver(ServerId self, MembershipConfig cfg, MembershipEnv& env,
                   std::uint64_t seed);

  /// The affinity capability guarding all driver state; the embedding
  /// node binds it to its home-thread probe during setup.
  [[nodiscard]] common::AffinityToken& affinity()
      CLASH_RETURN_CAPABILITY(affinity_) {
    return affinity_;
  }

  /// Install the bootstrap member list (everyone starts trusted-alive).
  void add_seed(ServerId id) {
    affinity_.assert_held();
    view_.add_seed(id);
  }

  /// One protocol period: expire suspicions, run the failure detector,
  /// and launch this period's probes with piggybacked rumours.
  void tick();

  /// An incoming Gossip message from `from`.
  void handle(ServerId from, const Gossip& msg);

  [[nodiscard]] const MembershipView& view() const {
    affinity_.assert_held();
    return view_;
  }
  [[nodiscard]] std::uint64_t periods() const {
    affinity_.assert_held();
    return period_;
  }

  /// Retune this member's suspicion timeout live (per-node eviction
  /// aggressiveness: a deployment can give flaky-but-valuable nodes a
  /// longer leash without touching anyone else's config). Suspicions
  /// already running are re-judged against the new value on the next
  /// tick.
  void set_suspicion_periods(unsigned periods) {
    affinity_.assert_held();
    cfg_.suspicion_periods = periods;
  }
  [[nodiscard]] unsigned suspicion_periods() const {
    affinity_.assert_held();
    return cfg_.suspicion_periods;
  }

  /// Gossip payloads whose content CRC fence failed — corrupted in
  /// flight but still structurally valid; dropped before any rumour
  /// was applied.
  [[nodiscard]] std::uint64_t corrupt_rejected() const {
    affinity_.assert_held();
    return corrupt_rejected_;
  }

  /// Attach a cost census: outgoing gossip piggybacks up to
  /// census_max_records of its records, incoming census payloads are
  /// CRC-verified and absorbed, dead members are forgotten, and the
  /// census ticks once per protocol period. nullptr detaches.
  void set_census(obs::Census* census) {
    affinity_.assert_held();
    census_ = census;
  }
  [[nodiscard]] obs::Census* census() const {
    affinity_.assert_held();
    return census_;
  }

  /// Attach observability: suspicion-to-death latency (in protocol
  /// periods — the SWIM half of the detect->promote failover path)
  /// feeds clash_membership_detect_periods.
  void set_obs(obs::Hub* hub) {
    affinity_.assert_held();
    detect_periods_ = hub == nullptr
                          ? obs::HistogramHandle{}
                          : hub->registry.histogram(
                                "clash_membership_detect_periods");
    corrupt_rejected_c_ =
        hub == nullptr
            ? obs::Counter{}
            : hub->registry.counter("clash_corrupt_rejected_total");
  }

 private:
  void send(ServerId to, GossipKind kind, std::uint64_t sequence,
            ServerId target) CLASH_REQUIRES(affinity_);
  /// Fire env callbacks for state transitions the view recorded.
  void drain_view_events() CLASH_REQUIRES(affinity_);

  /// Relayed (ping-req) sequences are tagged with the top bit so acks
  /// for them can never collide with the detector's own probes.
  static constexpr std::uint64_t kRelayBit = std::uint64_t{1} << 63;

  struct Relay {
    ServerId origin{};
    std::uint64_t origin_sequence = 0;
    std::uint64_t created_period = 0;
  };

  common::AffinityToken affinity_;
  ServerId self_;
  MembershipConfig cfg_ CLASH_GUARDED_BY(affinity_);
  MembershipEnv& env_;
  MembershipView view_ CLASH_GUARDED_BY(affinity_);
  FailureDetector detector_ CLASH_GUARDED_BY(affinity_);
  std::uint64_t period_ CLASH_GUARDED_BY(affinity_) = 0;
  std::uint64_t next_relay_sequence_ CLASH_GUARDED_BY(affinity_) = 1;
  std::map<std::uint64_t, Relay> relays_
      CLASH_GUARDED_BY(affinity_);  // relay seq -> origin
  std::map<ServerId, std::uint64_t> suspected_at_
      CLASH_GUARDED_BY(affinity_);  // member -> period
  std::uint64_t corrupt_rejected_ CLASH_GUARDED_BY(affinity_) = 0;
  // Pointer guarded here; the pointee guards itself (its own token).
  obs::Census* census_ CLASH_GUARDED_BY(affinity_) = nullptr;
  obs::HistogramHandle detect_periods_ CLASH_GUARDED_BY(affinity_);
  obs::Counter corrupt_rejected_c_ CLASH_GUARDED_BY(affinity_);
};

}  // namespace clash::membership
