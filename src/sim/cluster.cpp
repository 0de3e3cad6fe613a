#include "sim/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "wire/codec.hpp"

namespace clash::sim {

// ---------------------------------------------------------------------------
// Environments.
// ---------------------------------------------------------------------------

class SimCluster::ServerEnvImpl final : public ServerEnv {
 public:
  ServerEnvImpl(SimCluster& cluster, ServerId self)
      : cluster_(cluster), self_(self) {}

  dht::LookupResult dht_lookup(dht::HashKey h) override {
    const auto result = cluster_.ring_of(self_).lookup(h, self_);
    cluster_.stats_.dht_hops += result.hops;
    return result;
  }

  void send(ServerId to, const Message& msg) override {
    if (!cluster_.is_alive(to)) {
      cluster_.stats_.dropped_msgs++;
      return;
    }
    // Gossip rides the same links as protocol traffic, as on a
    // ClashNode (a partition must starve the failure detector too),
    // with the gossip latency as its clean-link delay, which a slow
    // link stretches.
    const SimDuration base = std::holds_alternative<Gossip>(msg)
                                 ? cluster_.gossip_latency_
                                 : SimDuration{0};
    LinkMatrix::Verdict verdict{true, base};
    if (!cluster_.links_.quiet()) {
      verdict = cluster_.links_.judge(self_, to, base);
    }
    if (!verdict.deliver) {
      cluster_.stats_.link_drops++;
      return;
    }
    // Fail-slow nodes pay their lag on every message they touch, even
    // over otherwise-clean links: the slowness lives in the process
    // (GC pauses, dying disk, saturated NIC), not the wire.
    SimDuration delay = verdict.delay;
    if (cluster_.any_node_slow()) {
      delay.usec += cluster_.slow_penalty(self_).usec;
      delay.usec += cluster_.slow_penalty(to).usec;
    }
    std::optional<Message> mangled;
    if (verdict.corrupt) {
      // In-flight byte damage: re-encode, flip, re-decode. When the
      // codec itself rejects the mangled frame the message simply
      // vanishes (a wire-level fence); when it decodes, the receiver
      // gets structurally-valid garbage and its content fences must
      // hold the line.
      mangled = wire::corrupt_message(msg, cluster_.corrupt_rng_);
      if (!mangled) {
        cluster_.stats_.corrupt_drops++;
        return;
      }
    }
    const Message& out = mangled ? *mangled : msg;
    deliver_copy(to, out, delay);
    // A duplicating link delivers the same frame again (same delay:
    // the copies travel together — receivers must be idempotent).
    if (verdict.duplicate) deliver_copy(to, out, delay);
  }

  void deliver_copy(ServerId to, const Message& msg, SimDuration delay) {
    if (delay.usec > 0 && cluster_.delay_sink_) {
      // Late-bound delivery: the target may die while the message is
      // in flight, so aliveness is re-checked at arrival time.
      SimCluster* cluster = &cluster_;
      const ServerId from = self_;
      cluster_.delay_sink_(delay, [cluster, from, to, msg] {
        if (!cluster->is_alive(to)) {
          cluster->stats_.dropped_msgs++;
          return;
        }
        cluster->deliver(from, to, msg);
      });
      return;
    }
    // Synchronous delivery: the protocol's message chains are shallow
    // (split -> accept -> ack) and handlers are re-entrancy safe.
    cluster_.deliver(self_, to, msg);
  }

  std::vector<ServerId> replica_targets(dht::HashKey h,
                                        unsigned n) override {
    // The owner plus n successors; the caller skips itself.
    auto servers = cluster_.ring_of(self_).successors(h, std::size_t(n) + 1);
    if (!servers.empty()) servers.erase(servers.begin());
    return servers;
  }

  [[nodiscard]] SimTime now() const override { return cluster_.now_; }

  void defer(std::function<void()> fn) override {
    call_after(SimDuration{0}, std::move(fn));
  }

  // Timers follow deliver_copy's rule: on the delay sink when one is
  // installed, inline otherwise. A timer dies with the process that set
  // it: a crash, or a restart since, cancels it.
  void call_after(SimDuration delay, std::function<void()> fn) override {
    if (!cluster_.delay_sink_) {
      fn();
      return;
    }
    cluster_.delay_sink_(delay, [this, life = life_, fn = std::move(fn)] {
      if (life_ == life) fn();
    });
  }

  std::uint64_t life_ = 0;  // bumped when the process dies

  void on_group_activated(const KeyGroup& group) override {
    auto [it, fresh] = cluster_.owners_.try_emplace(group, self_);
    // Split views: the previous holder may still own the group too.
    if (!fresh && it->second != self_) cluster_.contested_.insert(group);
    it->second = self_;
  }

  void on_group_deactivated(const KeyGroup& group) override {
    const auto it = cluster_.owners_.find(group);
    if (it == cluster_.owners_.end() || it->second != self_) return;
    cluster_.owners_.erase(it);
    if (cluster_.contested_.erase(group) == 0) return;
    // Another live holder keeps the group indexed.
    for (const auto& host : cluster_.hosts_) {
      const ClashServer& srv = host->server();
      const ServerTableEntry* e = srv.table().find(group);
      if (e != nullptr && e->active && cluster_.is_alive(srv.id())) {
        cluster_.owners_[group] = srv.id();
        cluster_.contested_.insert(group);
        return;
      }
    }
  }

 private:
  SimCluster& cluster_;
  ServerId self_;
};

class SimCluster::ClientEnvImpl final : public ClientEnv {
 public:
  ClientEnvImpl(SimCluster& cluster, ServerId origin)
      : cluster_(cluster), origin_(origin) {}

  dht::LookupResult dht_lookup(dht::HashKey h) override {
    // A client whose access point died re-attaches to a live server.
    if (!cluster_.is_alive(origin_)) {
      for (std::size_t i = 0; i < cluster_.hosts_.size(); ++i) {
        if (cluster_.alive_[i]) {
          origin_ = ServerId{i};
          break;
        }
      }
    }
    const auto result = cluster_.ring_of(origin_).lookup(h, origin_);
    cluster_.stats_.dht_hops += result.hops;
    return result;
  }

  AcceptObjectReply rpc_accept_object(ServerId to,
                                      const AcceptObject& msg) override {
    cluster_.stats_.object_probes++;
    if (!cluster_.is_alive(to)) {
      // Timeout in a real deployment: the search widens and retries.
      cluster_.stats_.dropped_msgs++;
      return IncorrectDepth{0};
    }
    cluster_.stats_.object_replies++;  // the response message
    return cluster_.server(to).handle_accept_object(msg);
  }

 private:
  SimCluster& cluster_;
  ServerId origin_;
};

// ---------------------------------------------------------------------------
// Cluster.
// ---------------------------------------------------------------------------

SimCluster::SimCluster(Config config)
    : config_(config),
      corrupt_rng_(config.seed ^ 0xc044f1a7ULL),
      links_(config.seed ^ 0x11ae5eedULL) {
  if (config_.num_servers == 0) {
    throw std::invalid_argument("cluster needs at least one server");
  }
  // Every host boots on the seed ring, complete before anything routes.
  auto seeds = std::make_shared<dht::ChordRing>(
      dht::ChordRing::Config{config.hash_bits, config.virtual_servers,
                             config.hash_algo, config.seed});
  ring_ = seeds;
  hosts_.resize(config_.num_servers);
  server_envs_.reserve(config_.num_servers);
  alive_.assign(config_.num_servers, true);
  node_slow_.assign(config_.num_servers, 1.0);
  crash_time_.assign(config_.num_servers, SimTime{-1});
  failover_detect_us_ =
      obs::Hub::global().registry.histogram("clash_failover_detect_usec");
  const bool durable =
      config_.clash.durability_mode != ClashConfig::DurabilityMode::kNone;
  for (std::size_t i = 0; i < config_.num_servers; ++i) {
    const ServerId id{i};
    seeds->add_server(id);
    server_envs_.push_back(std::make_unique<ServerEnvImpl>(*this, id));
    boot_server(id, ring_);
    if (durable) {
      backends_.push_back(std::make_unique<storage::MemBackend>());
      stores_.push_back(std::make_unique<storage::NodeStore>(
          *backends_.back(),
          storage::NodeStore::Config::from(config_.clash)));
      stores_.back()->set_obs(&obs::Hub::global(), i);
      server(id).set_storage(stores_.back().get());
    }
  }
}

SimCluster::~SimCluster() = default;

ClashServer& SimCluster::server(ServerId id) {
  assert(id.value < hosts_.size());
  return hosts_[id.value]->server();
}

const ClashServer& SimCluster::server(ServerId id) const {
  assert(id.value < hosts_.size());
  return hosts_[id.value]->server();
}


ClientEnv& SimCluster::client_env(ServerId access_point) {
  const auto it = client_env_by_origin_.find(access_point.value);
  if (it != client_env_by_origin_.end()) return client_envs_[it->second];
  client_envs_.emplace_back(*this, access_point);
  client_env_by_origin_[access_point.value] = client_envs_.size() - 1;
  return client_envs_.back();
}

void SimCluster::bootstrap() {
  const unsigned n = config_.clash.key_width;
  const KeyGroup root = KeyGroup::root(n);
  const ServerId root_owner =
      ring_->map(hasher().hash_key(root.virtual_key()));

  ServerTableEntry root_entry;
  root_entry.group = root;
  root_entry.root = true;  // lineage top: no parent
  root_entry.active = true;
  server(root_owner).install_entry(root_entry);

  // Force-split every active group shallower than the initial depth.
  // Splits may hand groups to servers later in the scan, so iterate to
  // a fixed point.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto& host : hosts_) {
      ClashServer& srv = host->server();
      // Collect first: splitting mutates the table.
      std::vector<KeyGroup> to_split;
      for (const ServerTableEntry* e : srv.table().active_entries()) {
        if (e->group.depth() < config_.clash.initial_depth) {
          to_split.push_back(e->group);
        }
      }
      for (const auto& g : to_split) progressed |= srv.force_split(g);
    }
  }

  // The depth-d0 leaves become root entries: the administrative floor
  // below which consolidation cannot collapse the tree (Section 5).
  for (auto& host : hosts_) {
    ClashServer& srv = host->server();
    for (const ServerTableEntry* e : srv.table().active_entries()) {
      srv.mark_group_root(e->group);
    }
  }
  reset_stats();
}

void SimCluster::run_load_check(ServerId id) {
  if (is_alive(id)) hosts_[id.value]->run_load_check();
}

void SimCluster::run_all_load_checks() {
  for (std::size_t i = 0; i < hosts_.size(); ++i) run_load_check(ServerId{i});
}

std::size_t SimCluster::alive_count() const {
  return std::size_t(std::count(alive_.begin(), alive_.end(), true));
}

std::size_t SimCluster::fail_server(ServerId id) {
  if (!is_alive(id)) return 0;
  crash_server(id);
  return evict_server(id);
}

void SimCluster::crash_server(ServerId id) {
  if (!is_alive(id)) return;
  // The simulated disk takes the hit exactly once, at the moment of
  // death (a second crash_server on a dead node must not tear more).
  if (id.value < backends_.size()) backends_[id.value]->crash();
  crash_time_[id.value] = now_;
  ++server_envs_[id.value]->life_;
  alive_[id.value] = false;
  settle_crashes();  // it may have held the last ring naming another
}

std::size_t SimCluster::evict_server(ServerId id) {
  if (is_alive(id) || !ring_->contains(id)) return 0;
  const std::uint64_t before = total_stats().failovers;
  ring_ = ring_->without(id);
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    if (alive_[i]) hosts_[i]->member_died(id);
  }
  settle_crashes();
  return total_stats().failovers - before;
}

std::size_t SimCluster::live_rings_holding(ServerId id) const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    n += alive_[i] && hosts_[i]->ring().contains(id);
  }
  return n;
}

void SimCluster::settle_crashes() {
  for (std::size_t v = 0; v < crash_time_.size(); ++v) {
    const ServerId id{v};
    if (crash_time_[v].usec < 0 || live_rings_holding(id) > 0) continue;
    // Under fail_server (oracle detection) the gap is zero.
    failover_detect_us_.record_signed((now_ - crash_time_[v]).usec);
    crash_time_[v] = SimTime{-1};
    // A group of the dead owner that no live server holds a replica
    // of can never come back.
    std::erase_if(owners_, [&](const auto& entry) {
      if (entry.second != id) return false;
      stats_.groups_lost += std::none_of(
          hosts_.begin(), hosts_.end(), [&](const auto& host) {
            return is_alive(host->server().id()) &&
                   host->server().has_replica(entry.first);
          });
      return true;
    });
  }
}

void SimCluster::boot_server(ServerId id, NodeHost::Ring ring) {
  auto& host = hosts_[id.value];
  // A restart replaces the server, not its history: what it counted
  // stays in the totals.
  if (host != nullptr) stats_ += host->server().stats();
  host = std::make_unique<NodeHost>(id, config_.clash,
                                    *server_envs_[id.value], std::move(ring));
}

void SimCluster::set_node_slow(ServerId id, double factor) {
  if (id.value >= node_slow_.size()) return;
  const bool was_slow = node_slow_[id.value] > 1.0;
  const bool is_slow = factor > 1.0;
  node_slow_[id.value] = is_slow ? factor : 1.0;
  if (is_slow && !was_slow) ++slow_nodes_;
  if (!is_slow && was_slow) --slow_nodes_;
}

void SimCluster::restart_server(ServerId id) {
  if (id.value >= hosts_.size() || is_alive(id)) return;
  alive_[id.value] = true;
  crash_time_[id.value] = SimTime{-1};  // restart without eviction
  set_node_slow(id, 1.0);  // replacement hardware: slowness dies with it
  // All protocol state died with it.
  std::erase_if(owners_, [id](const auto& e) { return e.second == id; });
  boot_server(id, ring_->contains(id) ? ring_ : ring_->with(id));
  if (id.value < backends_.size()) {
    // The store outlived the process: rebuild it over the surviving
    // backend and restore the pre-crash groups, which the server
    // re-adopts where its ring maps them here.
    stores_[id.value] = std::make_unique<storage::NodeStore>(
        *backends_[id.value], storage::NodeStore::Config::from(config_.clash));
    stores_[id.value]->set_obs(&obs::Hub::global(), id.value);
    server(id).set_storage(stores_[id.value].get());
    (void)hosts_[id.value]->restore();
  }
}

void SimCluster::join_server(ServerId id) {
  if (!is_alive(id) || ring_->contains(id)) return;
  ring_ = ring_->with(id);
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    if (alive_[i]) (void)hosts_[i]->member_joined(id);
  }
}

void SimCluster::revive_server(ServerId id) {
  restart_server(id);
  join_server(id);
}

std::optional<ServerId> SimCluster::find_owner(const Key& key) const {
  const auto group = find_active_group(key);
  if (!group) return std::nullopt;
  return owners_.at(*group);
}

std::optional<KeyGroup> SimCluster::find_active_group(const Key& key) const {
  // Active groups are globally prefix-free, so probe every prefix depth.
  for (unsigned d = 0; d <= key.width(); ++d) {
    const KeyGroup g = KeyGroup::of(key, d);
    if (owners_.count(g) > 0) return g;
  }
  return std::nullopt;
}

void SimCluster::withdraw_stream(ClientId source, const Key& key) {
  const auto owner = find_owner(key);
  if (owner) server(*owner).remove_stream(source, key);
}

void SimCluster::withdraw_query(QueryId id, const Key& key) {
  const auto owner = find_owner(key);
  if (owner) server(*owner).remove_query(id, key);
}

void SimCluster::ensure_group(const KeyGroup& group) {
  if (owners_.count(group) > 0) return;
  const ServerId owner = ring_->map(hasher().hash_key(group.virtual_key()));
  ServerTableEntry entry;
  entry.group = group;
  entry.root = true;
  entry.active = true;
  server(owner).install_entry(entry);
}

SimCluster::LoadSnapshot SimCluster::snapshot() const {
  LoadSnapshot snap;
  const double capacity = config_.clash.capacity;
  double active_load_total = 0;
  for (const auto& host : hosts_) {
    if (!is_alive(host->server().id())) continue;
    const double load = host->server().server_load();
    snap.max_load_frac = std::max(snap.max_load_frac, load / capacity);
    if (load > 0) {
      ++snap.active_servers;
      active_load_total += load / capacity;
    }
  }
  snap.avg_active_load_frac =
      snap.active_servers == 0
          ? 0
          : active_load_total / double(snap.active_servers);

  snap.active_groups = owners_.size();
  if (!owners_.empty()) {
    unsigned min_d = config_.clash.key_width + 1;
    unsigned max_d = 0;
    double sum_d = 0;
    for (const auto& [group, _] : owners_) {
      min_d = std::min(min_d, group.depth());
      max_d = std::max(max_d, group.depth());
      sum_d += group.depth();
    }
    snap.min_depth = min_d;
    snap.max_depth = max_d;
    snap.avg_depth = sum_d / double(owners_.size());
  }
  return snap;
}

MessageStats SimCluster::total_stats() const {
  MessageStats total = stats_;
  for (const auto& host : hosts_) total += host->server().stats();
  return total;
}

void SimCluster::reset_stats() {
  stats_ = MessageStats{};
  for (auto& host : hosts_) host->server().reset_stats();
}

void SimCluster::send(ServerId from, ServerId to, const Message& msg) {
  server_envs_[from.value]->send(to, msg);
}

void SimCluster::deliver(ServerId from, ServerId to, const Message& msg) {
  const auto* gossip = std::get_if<Gossip>(&msg);
  if (meter_wire_) stats_.wire_bytes += wire::encoded_payload_size(msg);
  if (gossip == nullptr) {
    server(to).deliver(from, msg);
    return;
  }
  stats_.gossip_msgs++;
  stats_.census_records += gossip->census.size();
  if (meter_wire_) {
    stats_.census_bytes += wire::encoded_census_size(gossip->census);
  }
  if (gossip_sink_) gossip_sink_(from, to, *gossip);
}

std::optional<std::string> SimCluster::check_invariants() const {
  auto err = check_invariants_impl();
  if (err) {
    obs::Hub::global().tracer.record(obs::SpanKind::kInvariantFail, 0,
                                     now(), SimDuration{0});
  }
  return err;
}

std::optional<std::string> SimCluster::check_invariants_impl() const {
  std::size_t active_total = 0;
  for (const auto& host : hosts_) {
    const ClashServer& srv = host->server();
    if (!is_alive(srv.id())) continue;  // dead tables are tombstones
    if (const auto err = srv.table().check_invariants()) {
      return to_string(srv.id()) + ": " + *err;
    }
    for (const ServerTableEntry* e : srv.table().active_entries()) {
      ++active_total;
      const auto it = owners_.find(e->group);
      if (it == owners_.end()) {
        return "active group " + e->group.label() + " missing from index";
      }
      if (it->second != srv.id()) {
        return "owner index disagrees for " + e->group.label();
      }
    }
  }
  if (active_total != owners_.size()) {
    // Name one stale entry to make debugging tractable.
    for (const auto& [g, owner] : owners_) {
      const auto* entry = server(owner).table().find(g);
      if (entry == nullptr || !entry->active) {
        return "owner index stale: " + g.label() + " -> " +
               clash::to_string(owner);
      }
    }
    return "owner index has stale entries (count mismatch)";
  }
  // Global prefix-freeness: no active group covers another.
  for (const auto& [g, _] : owners_) {
    for (unsigned d = 0; d < g.depth(); ++d) {
      const KeyGroup ancestor =
          KeyGroup::of(g.virtual_key(), d);
      if (owners_.count(ancestor) > 0) {
        return "active groups " + ancestor.label() + " and " + g.label() +
               " overlap";
      }
    }
  }
  return std::nullopt;
}

}  // namespace clash::sim
