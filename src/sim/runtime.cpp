#include "sim/runtime.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>

#include "clash/baseline.hpp"

namespace clash::sim {

Runtime::Runtime(RuntimeConfig config)
    : config_(std::move(config)),
      cluster_(std::make_unique<SimCluster>(config_.cluster)),
      master_rng_(config_.seed) {
  if (config_.phases.empty()) {
    throw std::invalid_argument("runtime needs at least one phase");
  }
  if (config_.mode == Mode::kPowerOfTwo) {
    // The same group may legitimately live on two candidate servers, so
    // the global prefix-free invariant does not apply.
    config_.verify_invariants = false;
    config_.paranoid = false;
  }
}

Runtime::~Runtime() = default;

const WorkloadSpec& Runtime::current_spec() const {
  return phase_specs_[current_phase_];
}

const KeyGenerator& Runtime::current_keygen() const {
  return *phase_keygens_[current_phase_];
}

RunResult Runtime::run() {
  for (const auto& phase : config_.phases) {
    phase_specs_.push_back(workload_by_name(phase.workload));
    phase_keygens_.push_back(std::make_unique<KeyGenerator>(
        phase_specs_.back(), config_.cluster.clash.key_width));
  }

  if (config_.mode == Mode::kClash) cluster_->bootstrap();

  setup_phases();
  setup_sources();
  setup_query_clients();
  setup_load_checks();
  setup_sampling();

  SimTime total{0};
  for (const auto& phase : config_.phases) total = total + phase.duration;

  take_sample();  // t = 0 baseline
  events_.run_until(total);
  cluster_->set_now(total);

  // Close the final phase.
  PhaseStats last;
  last.workload = phase_specs_.back().name;
  last.duration = total - phase_start_time_;
  last.delta = cluster_->total_stats() - phase_start_stats_;
  result_.phase_stats.push_back(last);

  if (config_.verify_invariants) {
    if (const auto err = cluster_->check_invariants()) {
      result_.invariant_violation = *err;
    }
  }

  result_.totals = cluster_->total_stats();
  result_.events_processed = events_.processed();
  return result_;
}

void Runtime::setup_phases() {
  phase_start_stats_ = cluster_->total_stats();
  phase_start_time_ = SimTime{0};
  SimTime t{0};
  for (std::size_t i = 1; i < config_.phases.size(); ++i) {
    t = t + config_.phases[i - 1].duration;
    events_.at(t, [this, i, t] {
      cluster_->set_now(t);
      PhaseStats done;
      done.workload = phase_specs_[current_phase_].name;
      done.duration = t - phase_start_time_;
      done.delta = cluster_->total_stats() - phase_start_stats_;
      result_.phase_stats.push_back(done);
      phase_start_stats_ = cluster_->total_stats();
      phase_start_time_ = t;
      current_phase_ = unsigned(i);
      if (config_.verify_invariants) {
        if (const auto err = cluster_->check_invariants();
            err && result_.invariant_violation.empty()) {
          result_.invariant_violation = *err;
        }
      }
    });
  }
}

void Runtime::setup_sources() {
  const auto n_servers = cluster_->num_servers();
  sources_.resize(config_.num_sources);
  if (config_.mode == Mode::kPowerOfTwo) {
    po2_ = std::make_unique<PowerOfDChoices>(
        config_.cluster.clash.initial_depth, 2, config_.cluster.hash_bits,
        config_.cluster.hash_algo, config_.cluster.seed);
    po2_stream_home_.resize(config_.num_sources, ServerId{});
  }

  ClashClient::Options opts;
  opts.cache_capacity = 4;  // a source follows one virtual stream

  for (std::size_t i = 0; i < config_.num_sources; ++i) {
    Source& s = sources_[i];
    s.id = ClientId{i};
    s.rng = master_rng_.split(i * 2 + 1);
    s.access = ServerId{master_rng_.below(n_servers)};
    s.rate = phase_specs_[0].source_rate;
    s.key = phase_keygens_[0]->sample(s.rng);
    s.client = std::make_unique<ClashClient>(
        config_.cluster.clash, cluster_->client_env(s.access),
        cluster_->hasher(), opts, config_.seed ^ (i * 977));
    events_.at(SimTime{0}, [this, i] { register_source(i); });
  }
}

void Runtime::register_source(std::size_t idx) {
  Source& s = sources_[idx];
  cluster_->set_now(events_.now());

  AcceptObject obj;
  obj.key = s.key;
  obj.kind = ObjectKind::kData;
  obj.stream_rate = s.rate;
  obj.source = s.id;

  const ResolveOutcome out = (config_.mode == Mode::kClash)
                                 ? s.client->insert(obj)
                                 : insert_fixed(s, obj);
  s.registered = out.ok;
  if (!out.ok) ++result_.failed_resolves;
  record_outcome(out);
  schedule_key_change(idx);
}

void Runtime::schedule_key_change(std::size_t idx) {
  Source& s = sources_[idx];
  // Virtual stream length ~ exp(mean Ld packets) at `rate` packets/sec.
  const double secs =
      s.rng.exponential(config_.mean_stream_packets / s.rate);
  events_.after(SimTime::from_seconds(secs),
                [this, idx] { on_key_change(idx); });
}

void Runtime::on_key_change(std::size_t idx) {
  Source& s = sources_[idx];
  cluster_->set_now(events_.now());

  if (s.registered) {
    if (config_.mode == Mode::kPowerOfTwo) {
      const ServerId home = po2_stream_home_[idx];
      if (home.valid()) cluster_->server(home).remove_stream(s.id, s.key);
    } else {
      cluster_->withdraw_stream(s.id, s.key);
    }
  }

  const WorkloadSpec& spec = current_spec();
  // Sources adopt a new phase's distribution (and rate) at their next
  // stream; within a phase most changes are local moves (mobility).
  const bool fresh = s.epoch != current_phase_ ||
                     s.rng.uniform01() < config_.p_jump;
  s.epoch = current_phase_;
  s.rate = spec.source_rate;
  s.key = fresh ? current_keygen().sample(s.rng)
                : current_keygen().local_move(s.key, config_.local_move_bits,
                                              s.rng);

  AcceptObject obj;
  obj.key = s.key;
  obj.kind = ObjectKind::kData;
  obj.stream_rate = s.rate;
  obj.source = s.id;

  const ResolveOutcome out = (config_.mode == Mode::kClash)
                                 ? s.client->insert(obj)
                                 : insert_fixed(s, obj);
  s.registered = out.ok;
  if (!out.ok) ++result_.failed_resolves;
  record_outcome(out);
  schedule_key_change(idx);
}

ResolveOutcome Runtime::insert_fixed(Source& src, AcceptObject obj) {
  const unsigned depth = config_.cluster.clash.initial_depth;
  const KeyGroup group = KeyGroup::of(obj.key, depth);

  if (config_.mode == Mode::kFixedDepth) {
    cluster_->ensure_group(group);
    return src.client->insert(obj);
  }

  // Power-of-two-choices: probe both candidates, keep the cooler one.
  assert(po2_ != nullptr);
  ResolveOutcome out;
  ServerId best{};
  double best_load = std::numeric_limits<double>::infinity();
  for (const auto cand : po2_->candidates(obj.key)) {
    const auto route = cluster_->ring_of(src.access).lookup(cand, src.access);
    ++out.dht_lookups;
    out.dht_hops += route.hops;
    cluster_->transport_stats().dht_hops += route.hops;
    // Load probe round trip.
    ++out.probes;
    cluster_->transport_stats().object_probes++;
    cluster_->transport_stats().object_replies++;
    const double load = cluster_->server(route.owner).server_load();
    if (load < best_load) {
      best_load = load;
      best = route.owner;
    }
  }
  if (cluster_->server(best).table().find(group) == nullptr) {
    ServerTableEntry entry;
    entry.group = group;
    entry.root = true;
    entry.active = true;
    cluster_->server(best).install_entry(entry);
  }
  obj.depth = depth;
  ++out.probes;
  cluster_->transport_stats().object_probes++;
  cluster_->transport_stats().object_replies++;
  const AcceptObjectReply reply =
      cluster_->server(best).handle_accept_object(obj);
  out.ok = std::holds_alternative<AcceptObjectOk>(reply);
  out.server = best;
  out.depth = depth;
  const std::size_t idx = obj.source.value;
  if (idx < po2_stream_home_.size() && obj.kind == ObjectKind::kData) {
    po2_stream_home_[idx] = best;
  }
  return out;
}

void Runtime::setup_query_clients() {
  queries_.resize(config_.num_query_clients);
  query_generation_.assign(config_.num_query_clients, 0);
  if (config_.mode == Mode::kPowerOfTwo) {
    po2_query_home_.assign(config_.num_query_clients, ServerId{});
  }
  for (std::size_t slot = 0; slot < config_.num_query_clients; ++slot) {
    events_.at(SimTime{0}, [this, slot] { spawn_query(slot); });
  }
}

void Runtime::spawn_query(std::size_t slot) {
  cluster_->set_now(events_.now());
  LiveQuery& q = queries_[slot];
  q.id = QueryId{next_query_id_++};
  Rng qrng = master_rng_.split(q.id.value * 2);
  q.key = current_keygen().sample(qrng);
  q.alive = true;

  AcceptObject obj;
  obj.key = q.key;
  obj.kind = ObjectKind::kQuery;
  obj.query_id = q.id;

  const ServerId access{qrng.below(cluster_->num_servers())};
  if (config_.mode == Mode::kPowerOfTwo) {
    Source dummy;
    dummy.access = access;
    ResolveOutcome out = insert_fixed(dummy, obj);
    if (out.ok) po2_query_home_[slot] = out.server;
    record_outcome(out);
    if (!out.ok) ++result_.failed_resolves;
  } else {
    if (config_.mode == Mode::kFixedDepth) {
      cluster_->ensure_group(
          KeyGroup::of(q.key, config_.cluster.clash.initial_depth));
    }
    ClashClient::Options opts;
    opts.cache_capacity = 2;
    ClashClient client(config_.cluster.clash, cluster_->client_env(access),
                       cluster_->hasher(), opts, q.id.value ^ config_.seed);
    const ResolveOutcome out = client.insert(obj);
    record_outcome(out);
    if (!out.ok) {
      q.alive = false;
      ++result_.failed_resolves;
    }
  }

  const std::uint64_t generation = ++query_generation_[slot];
  const double secs =
      qrng.exponential(config_.mean_query_lifetime.seconds());
  events_.after(SimTime::from_seconds(secs), [this, slot, generation] {
    expire_query(slot, generation);
  });
}

void Runtime::expire_query(std::size_t slot,
                           std::uint64_t expected_generation) {
  if (query_generation_[slot] != expected_generation) return;
  cluster_->set_now(events_.now());
  LiveQuery& q = queries_[slot];
  if (q.alive) {
    if (config_.mode == Mode::kPowerOfTwo) {
      const ServerId home = po2_query_home_[slot];
      if (home.valid()) cluster_->server(home).remove_query(q.id, q.key);
    } else {
      cluster_->withdraw_query(q.id, q.key);
    }
    q.alive = false;
  }
  // Constant population: a departing client is replaced immediately.
  spawn_query(slot);
}

void Runtime::setup_load_checks() {
  if (config_.mode != Mode::kClash) return;  // basic DHT never adapts
  const SimDuration period = config_.cluster.clash.load_check_period;
  for (std::size_t i = 0; i < cluster_->num_servers(); ++i) {
    // Stagger the first check uniformly across the period.
    const auto offset =
        SimTime(std::int64_t(master_rng_.below(std::uint64_t(period.usec)))) +
        SimTime(1);
    // The runtime owns the tick closure; rescheduling captures a weak
    // reference (a self-owning shared_ptr cycle would never free).
    auto tick = std::make_shared<std::function<void()>>();
    const std::weak_ptr<std::function<void()>> weak = tick;
    *tick = [this, i, period, weak] {
      cluster_->set_now(events_.now());
      cluster_->run_load_check(ServerId{i});
      if (const auto self = weak.lock()) events_.after(period, *self);
    };
    events_.at(offset, *tick);
    load_check_ticks_.push_back(std::move(tick));
  }
}

void Runtime::setup_sampling() {
  SimTime total{0};
  for (const auto& phase : config_.phases) total = total + phase.duration;
  const SimDuration period = config_.sample_period;
  for (SimTime t = period; t <= total; t = t + period) {
    events_.at(t, [this] { take_sample(); });
  }
}

void Runtime::take_sample() {
  cluster_->set_now(events_.now());
  const SimTime t = events_.now();
  const auto snap = cluster_->snapshot();
  result_.max_load_pct.add(t, snap.max_load_frac * 100.0);
  result_.avg_load_pct.add(t, snap.avg_active_load_frac * 100.0);
  result_.active_servers.add(t, double(snap.active_servers));
  result_.active_groups.add(t, double(snap.active_groups));
  result_.depth_min.add(t, double(snap.min_depth));
  result_.depth_avg.add(t, snap.avg_depth);
  result_.depth_max.add(t, double(snap.max_depth));
  if (config_.paranoid && config_.verify_invariants) {
    if (const auto err = cluster_->check_invariants();
        err && result_.invariant_violation.empty()) {
      result_.invariant_violation = *err;
    }
  }
}

void Runtime::record_outcome(const ResolveOutcome& out) {
  ++result_.searches;
  result_.probes_per_search.add(double(out.probes));
  result_.hops_per_search.add(double(out.dht_hops));
  if (out.cache_hit) ++result_.cache_hits;
  cluster_->transport_stats().depth_searches++;
  cluster_->transport_stats().search_restarts += out.restarts;
}

}  // namespace clash::sim
