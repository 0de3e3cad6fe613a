#include "sim/churn.hpp"

#include <cassert>

#include "wire/codec.hpp"

namespace clash::sim {

namespace {
/// A local clock running at `rate` experiences a true-time interval of
/// d / rate between its own ticks: a fast clock (rate > 1) fires more
/// often in sim-time, a slow one less often.
SimDuration skewed(SimDuration d, double rate) {
  if (rate <= 0.0 || rate == 1.0) return d;
  const auto usec = std::int64_t(double(d.usec) / rate);
  return SimDuration{usec > 0 ? usec : 1};
}
}  // namespace

// The drivers' environment: the cluster's transport and ring hosts.
class ChurnSim::GossipEnvImpl final : public membership::MembershipEnv {
 public:
  GossipEnvImpl(ChurnSim& sim, ServerId self) : sim_(sim), self_(self) {}

  void gossip_send(ServerId to, const Gossip& msg) override {
    sim_.cluster_->send(self_, to, Message(msg));
  }

  // Each verdict moves this server's own ring, as on a ClashNode.
  void on_member_dead(ServerId id) override {
    sim_.cluster_->host(self_).member_died(id);
    sim_.cluster_->settle_crashes();
    sim_.excommunicate();
  }
  void on_member_joined(ServerId id) override {
    (void)sim_.cluster_->host(self_).member_joined(id);
    sim_.excommunicate();  // may complete a revived node's admission
  }

 private:
  ChurnSim& sim_;
  ServerId self_;
};

ChurnSim::ChurnSim(Config config) : config_(config) {
  cluster_ = std::make_unique<SimCluster>(config_.cluster);
  // Link delays and server timers ride the event queue; without this
  // sink SimCluster would run them inline.
  cluster_->set_delay_sink(
      [this](SimDuration delay, std::function<void()> fn) {
        events_.after(delay, [this, fn = std::move(fn)] {
          cluster_->set_now(events_.now());
          fn();
        });
      });
  cluster_->set_gossip_sink(
      config_.gossip_delay,
      [this](ServerId from, ServerId to, const Gossip& msg) {
        drivers_[to.value]->handle(from, msg);
      });
  const std::size_t n = config_.cluster.num_servers;
  envs_.reserve(n);
  censuses_.reserve(n);
  drivers_.reserve(n);
  generation_.assign(n, 0);
  admitted_.assign(n, true);
  clock_rate_.assign(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    envs_.push_back(std::make_unique<GossipEnvImpl>(*this, ServerId{i}));
    censuses_.push_back(make_census(ServerId{i}));
    drivers_.push_back(make_driver(ServerId{i}, 0));
  }
}

ChurnSim::~ChurnSim() = default;

std::unique_ptr<membership::MembershipDriver> ChurnSim::make_driver(
    ServerId id, std::uint64_t generation) {
  auto cfg = config_.membership;
  if (const auto it = config_.suspicion_periods_override.find(id.value);
      it != config_.suspicion_periods_override.end()) {
    cfg.suspicion_periods = it->second;
  }
  auto driver = std::make_unique<membership::MembershipDriver>(
      id, cfg, *envs_[id.value],
      config_.seed * 0x9e3779b97f4a7c15ULL + id.value +
          generation * 7919);
  driver->set_obs(&obs::Hub::global());
  if (config_.enable_census) {
    driver->set_census(censuses_[id.value].get());
  }
  for (std::size_t j = 0; j < config_.cluster.num_servers; ++j) {
    driver->add_seed(ServerId{j});
  }
  return driver;
}

std::unique_ptr<obs::Census> ChurnSim::make_census(ServerId id) {
  auto census = std::make_unique<obs::Census>(id, config_.census);
  census->set_collector([this, id](NodeCensusRecord& rec) {
    cluster_->server(id).fold_census(rec, config_.census.top_k);
  });
  return census;
}

void ChurnSim::start() {
  assert(!started_);
  started_ = true;
  cluster_->bootstrap();

  const std::size_t n = config_.cluster.num_servers;
  for (std::size_t i = 0; i < n; ++i) {
    // Stagger the periods so the cluster's probes spread over time the
    // way independent clocks would.
    const auto stagger =
        SimTime(config_.protocol_period.usec * std::int64_t(i + 1) /
                std::int64_t(n));
    events_.after(stagger, [this, i] { tick_server(i); });
    if (config_.run_load_checks) {
      const auto check_stagger =
          SimTime(config_.cluster.clash.load_check_period.usec *
                  std::int64_t(i + 1) / std::int64_t(n));
      events_.after(check_stagger, [this, i] { run_load_check(i); });
    }
  }
}

void ChurnSim::run_for(SimDuration d) {
  events_.run_until(events_.now() + d);
  cluster_->set_now(events_.now());
}

void ChurnSim::tick_server(std::size_t idx) {
  cluster_->set_now(events_.now());
  if (cluster_->is_alive(ServerId{idx})) drivers_[idx]->tick();
  // The next period fires on this node's own clock: a skewed node's
  // suspicion timers (counted in local ticks) stretch or shrink in
  // true time accordingly.
  events_.after(skewed(config_.protocol_period, clock_rate_[idx]),
                [this, idx] { tick_server(idx); });
}

void ChurnSim::run_load_check(std::size_t idx) {
  cluster_->set_now(events_.now());
  cluster_->run_load_check(ServerId{idx});
  events_.after(
      skewed(config_.cluster.clash.load_check_period, clock_rate_[idx]),
      [this, idx] { run_load_check(idx); });
}

void ChurnSim::kill(ServerId id) {
  cluster_->crash_server(id);
  // The kill may have silenced the last dissenter blocking some other
  // node's excommunication.
  excommunicate();
}

void ChurnSim::revive(ServerId id) {
  if (cluster_->is_alive(id)) return;
  // Fresh census before the fresh driver: the driver holds a raw
  // pointer to it, and a restarted process's cluster knowledge (and
  // sequence counter) starts from zero — peers out-sequence its stale
  // pre-crash records via the bumped incarnation.
  censuses_[id.value] = make_census(id);
  drivers_[id.value] = make_driver(id, ++generation_[id.value]);
  cluster_->restart_server(id);
  // A quick restart never left the rings.
  admitted_[id.value] =
      cluster_->live_rings_holding(id) == cluster_->alive_count();
}

void ChurnSim::set_slow(ServerId id, double factor) {
  cluster_->set_node_slow(id, factor);
}

void ChurnSim::set_clock_rate(ServerId id, double rate) {
  if (id.value < clock_rate_.size() && rate > 0.0) {
    clock_rate_[id.value] = rate;
  }
}

void ChurnSim::set_suspicion_periods(ServerId id, unsigned periods) {
  if (id.value >= drivers_.size()) return;
  config_.suspicion_periods_override[id.value] = periods;
  drivers_[id.value]->set_suspicion_periods(periods);
}

std::uint64_t ChurnSim::gossip_corrupt_rejected() const {
  std::uint64_t total = 0;
  for (const auto& driver : drivers_) total += driver->corrupt_rejected();
  return total;
}

std::vector<ServerId> ChurnSim::complement(
    const std::vector<ServerId>& side) const {
  std::vector<bool> in_side(config_.cluster.num_servers, false);
  for (const ServerId id : side) {
    if (id.value < in_side.size()) in_side[id.value] = true;
  }
  std::vector<ServerId> rest;
  for (std::size_t i = 0; i < in_side.size(); ++i) {
    if (!in_side[i]) rest.push_back(ServerId{i});
  }
  return rest;
}

void ChurnSim::partition(const std::vector<ServerId>& side) {
  cluster_->links().partition(side, complement(side));
}

void ChurnSim::one_way_partition(const std::vector<ServerId>& side) {
  cluster_->links().one_way_partition(side, complement(side));
}

void ChurnSim::heal_partitions() { cluster_->links().clear(); }

void ChurnSim::set_loss_rate(double p) {
  LinkMatrix::Fault f;
  f.drop_prob = p;
  cluster_->links().set_default_fault(f);
}

void ChurnSim::schedule_flaps(std::vector<ServerId> side, SimDuration period,
                              unsigned cycles) {
  if (cycles == 0) return;
  partition(side);
  events_.after(period, [this, side = std::move(side), period, cycles] {
    // Heal only this side's links (any default fault stays in force).
    const auto rest = complement(side);
    for (const ServerId a : side) {
      for (const ServerId b : rest) {
        cluster_->links().heal(a, b);
        cluster_->links().heal(b, a);
      }
    }
    events_.after(period, [this, side, period, cycles] {
      schedule_flaps(side, period, cycles - 1);
    });
  });
}

void ChurnSim::excommunicate() {
  // The survivors unanimously hold an *alive* node dead — a fail-slow,
  // skewed, or cut-off process that could not refute in time. Their
  // rings already dropped it; the harness makes the verdict true by
  // crashing the process (it rejoins via revive: accepting its stale
  // writes would fork history). A crash can complete another verdict.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t i = 0; i < drivers_.size(); ++i) {
      const ServerId id{i};
      if (!cluster_->is_alive(id)) continue;
      admitted_[i] = admitted_[i] || cluster_->live_rings_holding(id) ==
                                         cluster_->alive_count();
      // Unanimity among zero peers is vacuous: spare the last node.
      if (admitted_[i] && cluster_->alive_count() > 1 &&
          all_survivors_see_dead(id)) {
        cluster_->crash_server(id);
        cluster_->transport_stats().slow_evictions++;
        progressed = true;
      }
    }
  }
}

const membership::MembershipView& ChurnSim::view_of(ServerId id) const {
  return drivers_[id.value]->view();
}

bool ChurnSim::all_survivors_see_dead(ServerId victim) const {
  for (std::size_t i = 0; i < drivers_.size(); ++i) {
    const ServerId id{i};
    if (!cluster_->is_alive(id) || id == victim) continue;
    if (drivers_[i]->view().state_of(victim) != MemberState::kDead) {
      return false;
    }
  }
  return true;
}

bool ChurnSim::all_survivors_see_alive(ServerId id) const {
  for (std::size_t i = 0; i < drivers_.size(); ++i) {
    if (!cluster_->is_alive(ServerId{i})) continue;
    if (drivers_[i]->view().state_of(id) != MemberState::kAlive) {
      return false;
    }
  }
  return true;
}

bool ChurnSim::ring_matches_membership() const {
  for (std::size_t i = 0; i < drivers_.size(); ++i) {
    const ServerId id{i};
    const std::size_t holding = cluster_->live_rings_holding(id);
    if (holding != (cluster_->is_alive(id) ? cluster_->alive_count() : 0)) {
      return false;
    }
  }
  return true;
}

std::uint64_t ChurnSim::gossip_messages() const {
  return cluster_->total_stats().gossip_msgs;
}

}  // namespace clash::sim
