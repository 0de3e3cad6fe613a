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
    const auto result = cluster_.ring_.lookup(h, self_);
    cluster_.stats_.dht_hops += result.hops;
    return result;
  }

  void send(ServerId to, const Message& msg) override {
    if (!cluster_.is_alive(to)) {
      cluster_.stats_.dropped_msgs++;
      return;
    }
    // Fail-slow nodes pay their lag on every message they touch, even
    // over otherwise-clean links: the slowness lives in the process
    // (GC pauses, dying disk, saturated NIC), not the wire.
    SimDuration delay{0};
    if (cluster_.any_node_slow()) {
      delay.usec += cluster_.slow_penalty(self_).usec;
      delay.usec += cluster_.slow_penalty(to).usec;
    }
    if (!cluster_.links_.quiet()) {
      const auto verdict = cluster_.links_.judge(self_, to);
      if (!verdict.deliver) {
        cluster_.stats_.link_drops++;
        return;
      }
      delay.usec += verdict.delay.usec;
      if (verdict.corrupt) {
        // In-flight byte damage: re-encode, flip, re-decode. When the
        // codec itself rejects the mangled frame the message simply
        // vanishes (a wire-level fence); when it decodes, the receiver
        // gets structurally-valid garbage and its content fences must
        // hold the line.
        auto mangled = wire::corrupt_message(msg, cluster_.corrupt_rng_);
        if (!mangled) {
          cluster_.stats_.corrupt_drops++;
          return;
        }
        deliver_copy(to, *mangled, delay);
        if (verdict.duplicate) deliver_copy(to, *mangled, delay);
        return;
      }
      deliver_copy(to, msg, delay);
      // A duplicating link delivers the same frame again (same delay:
      // the copies travel together — receivers must be idempotent).
      if (verdict.duplicate) deliver_copy(to, msg, delay);
      return;
    }
    deliver_copy(to, msg, delay);
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
        cluster->count_message(msg);
        cluster->server(to).deliver(from, msg);
      });
      return;
    }
    cluster_.count_message(msg);
    // Synchronous delivery: the protocol's message chains are shallow
    // (split -> accept -> ack) and handlers are re-entrancy safe.
    cluster_.server(to).deliver(self_, msg);
  }

  std::vector<ServerId> replica_targets(dht::HashKey h,
                                        unsigned n) override {
    // The owner plus n successors; the caller skips itself.
    auto servers = cluster_.ring_.successors(h, std::size_t(n) + 1);
    if (!servers.empty()) servers.erase(servers.begin());
    return servers;
  }

  [[nodiscard]] SimTime now() const override { return cluster_.now_; }

  void on_group_activated(const KeyGroup& group) override {
    cluster_.owners_[group] = self_;
  }

  void on_group_deactivated(const KeyGroup& group) override {
    const auto it = cluster_.owners_.find(group);
    if (it != cluster_.owners_.end() && it->second == self_) {
      cluster_.owners_.erase(it);
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
      for (std::size_t i = 0; i < cluster_.servers_.size(); ++i) {
        if (cluster_.alive_[i]) {
          origin_ = ServerId{i};
          break;
        }
      }
    }
    const auto result = cluster_.ring_.lookup(h, origin_);
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
      ring_(dht::ChordRing::Config{config.hash_bits, config.virtual_servers,
                                   config.hash_algo, config.seed}),
      corrupt_rng_(config.seed ^ 0xc044f1a7ULL),
      links_(config.seed ^ 0x11ae5eedULL) {
  if (config_.num_servers == 0) {
    throw std::invalid_argument("cluster needs at least one server");
  }
  servers_.resize(config_.num_servers);
  failovers_.resize(config_.num_servers);
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
    ring_.add_server(id);
    server_envs_.push_back(std::make_unique<ServerEnvImpl>(*this, id));
    boot_server(id);
    if (durable) {
      backends_.push_back(std::make_unique<storage::MemBackend>());
      stores_.push_back(std::make_unique<storage::NodeStore>(
          *backends_.back(),
          storage::NodeStore::Config::from(config_.clash)));
      stores_.back()->set_obs(&obs::Hub::global(), i);
      servers_[i]->set_storage(stores_.back().get());
    }
  }
}

SimCluster::~SimCluster() = default;

ClashServer& SimCluster::server(ServerId id) {
  assert(id.value < servers_.size());
  return *servers_[id.value];
}

const ClashServer& SimCluster::server(ServerId id) const {
  assert(id.value < servers_.size());
  return *servers_[id.value];
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
      ring_.map(hasher().hash_key(root.virtual_key()));

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
    for (auto& srv : servers_) {
      // Collect first: splitting mutates the table.
      std::vector<KeyGroup> to_split;
      for (const ServerTableEntry* e : srv->table().active_entries()) {
        if (e->group.depth() < config_.clash.initial_depth) {
          to_split.push_back(e->group);
        }
      }
      for (const auto& g : to_split) progressed |= srv->force_split(g);
    }
  }

  // The depth-d0 leaves become root entries: the administrative floor
  // below which consolidation cannot collapse the tree (Section 5).
  for (auto& srv : servers_) {
    for (const ServerTableEntry* e : srv->table().active_entries()) {
      srv->mark_group_root(e->group);
    }
  }
  reset_stats();
}

void SimCluster::run_load_check(ServerId id) {
  if (is_alive(id)) server(id).run_load_check();
}

void SimCluster::run_all_load_checks() {
  for (auto& srv : servers_) {
    if (is_alive(srv->id())) srv->run_load_check();
  }
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
  if (id.value >= alive_.size()) return;
  // The simulated disk takes the hit exactly once, at the moment of
  // death (a second crash_server on a dead node must not tear more).
  if (alive_[id.value] && id.value < backends_.size()) {
    backends_[id.value]->crash();
  }
  if (alive_[id.value]) crash_time_[id.value] = now_;
  alive_[id.value] = false;
}

std::size_t SimCluster::evict_server(ServerId id) {
  if (is_alive(id) || !ring_.contains(id)) return 0;
  // The detection window closes here: survivors converged on the
  // death. Under fail_server (oracle detection) the gap is zero; a
  // staged crash -> set_now -> evict sequence measures the real one.
  if (crash_time_[id.value].usec >= 0) {
    failover_detect_us_.record_signed((now_ - crash_time_[id.value]).usec);
    crash_time_[id.value] = SimTime{-1};
  }
  ring_.remove_server(id);
  // A group of the dead owner that no live server holds a replica of
  // can never come back.
  for (const KeyGroup& group : forget_groups_of(id)) {
    const bool held = std::any_of(
        servers_.begin(), servers_.end(), [&](const auto& srv) {
          return is_alive(srv->id()) && srv->has_replica(group);
        });
    if (!held) stats_.groups_lost++;
  }
  const std::uint64_t before = total_stats().failovers;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (alive_[i]) failovers_[i]->member_died();
  }
  return total_stats().failovers - before;
}

std::vector<KeyGroup> SimCluster::forget_groups_of(ServerId id) {
  std::vector<KeyGroup> owned;
  for (const auto& [group, owner] : owners_) {
    if (owner == id) owned.push_back(group);
  }
  for (const auto& group : owned) owners_.erase(group);
  return owned;
}

void SimCluster::boot_server(ServerId id) {
  servers_[id.value] = std::make_unique<ClashServer>(
      id, config_.clash, *server_envs_[id.value], ring_.hasher());
  // No grace: call_after runs inline, after the synchronous recovery
  // pull has finished.
  failovers_[id.value] = std::make_unique<FailoverController>(
      *servers_[id.value], *server_envs_[id.value], ring_, SimDuration{0});
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
  if (id.value >= servers_.size() || is_alive(id)) return;
  alive_[id.value] = true;
  crash_time_[id.value] = SimTime{-1};  // restart without eviction
  set_node_slow(id, 1.0);  // replacement hardware: slowness dies with it
  (void)forget_groups_of(id);  // all protocol state died with it
  boot_server(id);
  if (id.value < backends_.size()) {
    // The store outlived the process: rebuild it over the surviving
    // backend and restore the pre-crash groups as replica records,
    // which a server still on the ring re-adopts in place.
    stores_[id.value] = std::make_unique<storage::NodeStore>(
        *backends_[id.value], storage::NodeStore::Config::from(config_.clash));
    stores_[id.value]->set_obs(&obs::Hub::global(), id.value);
    servers_[id.value]->set_storage(stores_[id.value].get());
    servers_[id.value]->restore_from_storage();
    failovers_[id.value]->restored();
  }
}

void SimCluster::join_server(ServerId id) {
  if (!is_alive(id) || ring_.contains(id)) return;
  ring_.add_server(id);
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (alive_[i] && i != id.value) failovers_[i]->member_joined(id);
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
  const ServerId owner = ring_.map(hasher().hash_key(group.virtual_key()));
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
  for (const auto& srv : servers_) {
    if (!is_alive(srv->id())) continue;
    const double load = srv->server_load();
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
  for (const auto& srv : servers_) total += srv->stats();
  return total;
}

void SimCluster::reset_stats() {
  stats_ = MessageStats{};
  for (auto& srv : servers_) srv->reset_stats();
}

void SimCluster::count_message(const Message& msg) {
  if (meter_wire_) {
    stats_.wire_bytes += wire::encoded_payload_size(msg);
  }
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, AcceptKeyGroup>) {
          stats_.keygroup_transfers++;
        } else if constexpr (std::is_same_v<T, AcceptKeyGroupAck>) {
          stats_.keygroup_acks++;
        } else if constexpr (std::is_same_v<T, LoadReport>) {
          stats_.load_reports++;
        } else if constexpr (std::is_same_v<T, ReclaimKeyGroup>) {
          stats_.reclaim_requests++;
        } else if constexpr (std::is_same_v<T, ReclaimAck> ||
                             std::is_same_v<T, ReclaimRefused>) {
          stats_.reclaim_replies++;
        } else if constexpr (std::is_same_v<T, DropReplica>) {
          stats_.replica_drops++;
        } else if constexpr (std::is_same_v<T, ReplAppend>) {
          stats_.repl_appends++;
        } else if constexpr (std::is_same_v<T, ReplAck>) {
          stats_.repl_acks++;
        } else if constexpr (std::is_same_v<T, SnapshotOffer>) {
          stats_.snapshot_offers++;
        } else if constexpr (std::is_same_v<T, SnapshotChunk>) {
          stats_.snapshot_chunks++;
        } else if constexpr (std::is_same_v<T, AntiEntropyProbe>) {
          stats_.anti_entropy_probes++;
        } else if constexpr (std::is_same_v<T, AntiEntropyDiff>) {
          stats_.anti_entropy_diffs++;
        } else if constexpr (std::is_same_v<T, Gossip>) {
          stats_.gossip_msgs++;
        } else if constexpr (std::is_same_v<T, AcceptObject> ||
                             std::is_same_v<T, AcceptObjectOk> ||
                             std::is_same_v<T, IncorrectDepth>) {
          // Client-path messages are counted by ClientEnvImpl.
        }
      },
      msg);
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
  for (const auto& srv : servers_) {
    if (!is_alive(srv->id())) continue;  // dead tables are tombstones
    if (const auto err = srv->table().check_invariants()) {
      return to_string(srv->id()) + ": " + *err;
    }
    for (const ServerTableEntry* e : srv->table().active_entries()) {
      ++active_total;
      const auto it = owners_.find(e->group);
      if (it == owners_.end()) {
        return "active group " + e->group.label() + " missing from index";
      }
      if (it->second != srv->id()) {
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
