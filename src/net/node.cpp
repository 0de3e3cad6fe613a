#include "net/node.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/logging.hpp"
#include "wire/buffer_pool.hpp"
#include "wire/codec.hpp"

namespace clash::net {

namespace {
// Affinity probe shared by every token the node binds (census,
// membership driver, store): their home thread is the node's loop.
bool node_loop_probe(const void* ctx) {
  return static_cast<const EventLoop*>(ctx)->on_loop_or_idle();
}
}  // namespace

// ServerEnv bridging the protocol logic onto the loop + transport.
// Every override runs on the loop thread (the server only acts from
// deliver/tick paths), witnessed by the assertions below.
class ClashNode::Env final : public ServerEnv {
 public:
  explicit Env(ClashNode& node) : node_(node) {}

  dht::LookupResult dht_lookup(dht::HashKey h) override {
    node_.on_loop_.assert_held();
    return node_.host_->ring().lookup(h, node_.config_.id);
  }

  std::vector<ServerId> replica_targets(dht::HashKey h,
                                        unsigned n) override {
    node_.on_loop_.assert_held();
    auto servers = node_.host_->ring().successors(h, std::size_t(n) + 1);
    if (!servers.empty()) servers.erase(servers.begin());  // drop owner
    return servers;
  }

  void send(ServerId to, const Message& msg) override {
    node_.on_loop_.assert_held();
    node_.send_to_peer(to, wire::oneway_frame(node_.config_.id, msg));
  }

  void fan_out(std::span<const ServerId> to, const Message& msg) override {
    node_.on_loop_.assert_held();
    if (to.empty()) return;
    // One encoding for the whole replica set: the other targets get a
    // pooled copy of the finished frame's bytes.
    auto frame = wire::oneway_frame(node_.config_.id, msg);
    for (const ServerId target : to.first(to.size() - 1)) {
      auto copy = wire::BufferPool::local().acquire();
      copy.assign(frame.begin(), frame.end());
      node_.send_to_peer(target, std::move(copy));
    }
    node_.send_to_peer(to.back(), std::move(frame));
  }

  [[nodiscard]] SimTime now() const override {
    const auto elapsed = std::chrono::steady_clock::now() - node_.epoch_;
    return SimTime(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count());
  }

  std::size_t snapshot_chunk_budget(ServerId to) override {
    node_.on_loop_.assert_held();
    const auto it = node_.peers_.find(to);
    if (it == node_.peers_.end() || it->second->closed()) {
      if (node_.connecting_.count(to) > 0) {
        // Handshake in flight: the pending-connect queue is bounded
        // (kMaxQueuedPerConnect) and silently drops overflow, so hold
        // the cursor until the connect lands — its queued frames then
        // flush and the drain callback resumes the pump.
        return 0;
      }
      // Unknown peer: grant one burst; the first frame kicks off the
      // connect and at most a burst parks on it.
      return node_.config_.snapshot_burst_chunks;
    }
    // Backpressure signal: the outbound queue depth (equivalently, a
    // flush count that stopped advancing while the queue
    // grows). At or past the threshold the transfer pauses; the
    // connection's drain callback pumps it again.
    if (it->second->send_queue_bytes() >= node_.config_.snapshot_pace_bytes) {
      return 0;
    }
    return node_.config_.snapshot_burst_chunks;
  }

  void defer(std::function<void()> fn) override {
    node_.loop_->assert_on_loop();
    node_.loop_->defer(std::move(fn));
  }

  void call_after(SimDuration delay, std::function<void()> fn) override {
    node_.loop_->assert_on_loop();
    node_.loop_->call_after(std::chrono::microseconds(delay.usec),
                            std::move(fn));
  }

  [[nodiscard]] obs::Hub& obs() override { return node_.hub_; }

 private:
  ClashNode& node_;
};

// MembershipEnv bridging the SWIM driver onto the same wire transport
// (gossip rides the identical oneway framing as protocol messages),
// with the ring/failover reactions to membership changes.
class ClashNode::GossipEnv final : public membership::MembershipEnv {
 public:
  explicit GossipEnv(ClashNode& node) : node_(node) {}

  void gossip_send(ServerId to, const Gossip& msg) override {
    node_.env_->send(to, Message(msg));
  }

  void on_member_dead(ServerId id) override {
    node_.on_loop_.assert_held();
    node_.on_member_dead(id);
  }
  void on_member_joined(ServerId id) override {
    node_.on_loop_.assert_held();
    node_.on_member_joined(id);
  }
  void on_member_suspected(ServerId id) override {
    node_.on_loop_.assert_held();
    node_.hub_.tracer.record(obs::SpanKind::kMemberSuspected,
                             node_.config_.id.value,
                             SimTime(node_.node_now_us()), SimDuration{0},
                             id.value);
  }

 private:
  ClashNode& node_;
};

ClashNode::ClashNode(NodeConfig config)
    : config_(std::move(config)),
      loop_(std::make_unique<EventLoop>()),
      on_loop_(loop_->loop_thread()),
      census_(config_.id, config_.census) {
  if (config_.members.count(config_.id) == 0) {
    throw std::invalid_argument("node id missing from member list");
  }
  // The census (and below, the driver and store) live on the loop
  // thread; bind their affinity tokens to it so off-loop access aborts
  // in checked builds. Everything in this constructor passes the probe
  // because the loop is idle until start() spawns its thread.
  census_.affinity().bind(&node_loop_probe, loop_.get(), "Census");
  auto ring = std::make_shared<dht::ChordRing>(dht::ChordRing::Config{
      config_.hash_bits, config_.virtual_servers, config_.hash_algo,
      config_.ring_salt});
  for (const auto& [id, _] : config_.members) ring->add_server(id);
  env_ = std::make_unique<Env>(*this);
  host_ = std::make_unique<NodeHost>(config_.id, config_.clash, *env_,
                                     std::move(ring));
  if (config_.clash.durability_mode != ClashConfig::DurabilityMode::kNone) {
    if (config_.storage_dir.empty()) {
      throw std::invalid_argument(
          "durability_mode set but storage_dir empty");
    }
    storage_backend_ =
        std::make_unique<storage::FileBackend>(config_.storage_dir);
    store_ = std::make_unique<storage::NodeStore>(
        *storage_backend_, storage::NodeStore::Config::from(config_.clash));
    store_->affinity().bind(&node_loop_probe, loop_.get(), "NodeStore");
    store_->set_obs(&hub_, config_.id.value);
    host_->server().set_storage(store_.get());
  }
  if (config_.enable_membership) {
    gossip_env_ = std::make_unique<GossipEnv>(*this);
    membership_ = std::make_unique<membership::MembershipDriver>(
        config_.id, config_.membership, *gossip_env_,
        config_.id.value * 0x9e3779b97f4a7c15ULL + config_.ring_salt);
    membership_->affinity().bind(&node_loop_probe, loop_.get(),
                                 "MembershipDriver");
    for (const auto& [id, _] : config_.members) membership_->add_seed(id);
    membership_->set_obs(&hub_);
    // Cost census rides the gossip the driver already sends: the
    // collector folds this server's registry + group costs on each
    // refresh cadence, the driver piggybacks and absorbs records.
    census_.set_collector([this](NodeCensusRecord& rec) {
      host_->server().fold_census(rec, config_.census.top_k);
    });
    membership_->set_census(&census_);
  }
  epoch_ = std::chrono::steady_clock::now();
  // Tick histogram, overrun counter and slow-round events, all on the
  // node's timeline (steady clock relative to epoch_).
  loop_->set_obs(&hub_, config_.id.value, config_.watchdog.tick_budget_us,
                 std::chrono::duration_cast<std::chrono::microseconds>(
                     epoch_.time_since_epoch())
                     .count());
  register_node_gauges();
}

ClashNode::~ClashNode() { stop(); }

void ClashNode::install_entries(
    const std::vector<ServerTableEntry>& entries) {
  const auto install = [entries](ClashServer& server) {
    for (const auto& e : entries) server.install_entry(e);
    return true;
  };
  (void)run_on_loop(install);
}

void ClashNode::start() {
  if (running_) return;
  // The loop is idle until the thread spawn below, so this caller holds
  // the affinity capability for the whole setup sequence.
  on_loop_.assert_held();
  loop_->assert_on_loop();
  auto listener = listen_tcp(config_.listen);
  if (!listener.ok()) {
    throw std::runtime_error("clash node listen failed: " +
                             listener.error().message);
  }
  listener_ = std::move(listener).value();
  const auto port = bound_port(listener_);
  if (!port.ok()) throw std::runtime_error(port.error().message);
  port_ = port.value();

  loop_->add_fd(listener_.get(), EPOLLIN, [this](std::uint32_t) {
    on_loop_.assert_held();
    on_listener_ready();
  });
  if (config_.stats_port >= 0) start_stats_listener();
  if (store_ != nullptr && !recovered_) {  // first start only
    recovered_ = true;
    if (const std::size_t restored = host_->restore(); restored > 0) {
      CLASH_INFO << to_string(config_.id) << ": restored " << restored
                 << " group(s) from " << config_.storage_dir;
    }
  }
  schedule_load_check();
  if (membership_ != nullptr) schedule_membership_tick();

  // Postmortem plane: register this node's black box with the
  // process-global dump registry. The source reads only lock-free
  // structures plus the try_lock-guarded cache refreshed below — it
  // must work from a crashing thread without hopping to the loop.
  auto& pm = obs::Postmortem::global();
  const std::string pm_dir = config_.postmortem_dir.empty()
                                 ? config_.storage_dir
                                 : config_.postmortem_dir;
  if (!pm_dir.empty()) pm.set_dir(pm_dir);
  if (config_.install_crash_handler) pm.install_crash_handler();
  pm_source_id_ =
      pm.add_source("node-" + std::to_string(config_.id.value),
                    [this] { return render_postmortem_source(); });
  refresh_postmortem_cache();  // crash-before-first-timer coverage
  schedule_postmortem_refresh();

  // Clear the previous run's latches before posters can see
  // running_ == true, or a restart would briefly bounce posts into
  // call_on_loop's inline path while the new loop thread spins up.
  loop_->rearm();
  running_ = true;
  thread_ = std::thread([this] { loop_->run(); });

  if (config_.watchdog.enabled) {
    watchdog_ = std::make_unique<obs::StallWatchdog>(
        config_.watchdog, hub_, std::uint32_t(config_.id.value));
    watchdog_->set_clock([this] { return node_now_us(); });
    watchdog_->set_tick_probe([this] { return loop_->current_tick(); });
    watchdog_->set_dump_hook([](const char* reason) {
      obs::Postmortem::global().dump(reason);
    });
    watchdog_->start();
  }
}

void ClashNode::stop() {
  if (!running_) return;
  if (watchdog_ != nullptr) {
    watchdog_->stop();
    watchdog_.reset();
  }
  if (pm_source_id_ != 0) {
    obs::Postmortem::global().remove_source(pm_source_id_);
    pm_source_id_ = 0;
  }
  loop_->stop();
  if (thread_.joinable()) thread_.join();
  // Only now does !running_ imply "the loop thread is gone": flipping
  // it any earlier would let call_on_loop's inline path race the still
  // draining loop. The joined loop is idle again, so this thread holds
  // the affinity capability for the teardown below.
  running_ = false;
  on_loop_.assert_held();
  loop_->assert_on_loop();
  peers_.clear();
  connecting_.clear();
  for (const auto& [_, token] : connect_ops_) hub_.inflight.end(token);
  connect_ops_.clear();
  inbound_.clear();
  for (const auto& [fd, _] : stats_clients_) loop_->remove_fd(fd);
  stats_clients_.clear();
  stats_listener_.reset();
  stats_port_ = 0;
  listener_.reset();
}

namespace {
/// Compact ClusterView JSON for the postmortem state snapshot: enough
/// to see who this node believed was alive and loaded at the crash.
std::string census_view_json(const obs::ClusterView& view) {
  std::string out = "{\"nodes\":[";
  bool first = true;
  for (const auto& n : view.nodes) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"id\":" + std::to_string(n.id.value) +
           ",\"incarnation\":" + std::to_string(n.incarnation) +
           ",\"load\":" + std::to_string(n.load) +
           ",\"groups\":" + std::to_string(n.active_groups) +
           ",\"replicas\":" + std::to_string(n.replica_records) +
           ",\"age_periods\":" + std::to_string(n.age_periods) + "}";
  }
  out += "],\"total_load\":" + std::to_string(view.total_load) +
         ",\"total_groups\":" + std::to_string(view.total_groups) +
         ",\"total_replicas\":" + std::to_string(view.total_replicas) +
         ",\"max_age_periods\":" + std::to_string(view.max_age_periods) +
         "}";
  return out;
}
}  // namespace

void ClashNode::schedule_postmortem_refresh() {
  loop_->call_after(config_.postmortem_refresh, [this] {
    on_loop_.assert_held();
    refresh_postmortem_cache();
    schedule_postmortem_refresh();
  });
}

void ClashNode::refresh_postmortem_cache() {
  std::string fresh = "{\"cached_at_us\":" + std::to_string(node_now_us());
  fresh += ",\"registry\":";
  fresh += hub_.registry.render_json(0);
  fresh += ",\"census\":";
  fresh += census_view_json(census_.view());
  fresh += ",\"ring_servers\":" + std::to_string(host_->ring().server_count());
  fresh += "}";
  const common::MutexLock lock(pm_cache_mu_);
  pm_cache_ = std::move(fresh);
}

std::string ClashNode::render_postmortem_source() {
  const std::int64_t now = node_now_us();
  std::string out = "{\"node\":" + std::to_string(config_.id.value);
  out += ",\"now_us\":" + std::to_string(now);
  out += ",\"flight\":";
  out += hub_.tracer.to_json();
  out += ",\"inflight\":";
  out += hub_.inflight.to_json(now);
  out += ",\"state\":";
  // try_lock, never lock: the refresh writer runs on the loop thread,
  // and the loop thread may be exactly what crashed.
  if (pm_cache_mu_.try_lock()) {
    out += pm_cache_.empty() ? "null" : pm_cache_;
    pm_cache_mu_.unlock();
  } else {
    out += "null";
  }
  out += "}";
  return out;
}

void ClashNode::schedule_load_check() {
  loop_->assert_on_loop();
  loop_->call_after(config_.load_check_interval, [this] {
    on_loop_.assert_held();
    host_->run_load_check();
    schedule_load_check();
  });
}

void ClashNode::schedule_membership_tick() {
  loop_->assert_on_loop();
  loop_->call_after(config_.protocol_period, [this] {
    on_loop_.assert_held();
    membership_->tick();
    schedule_membership_tick();
  });
}

void ClashNode::on_member_dead(ServerId id) {
  loop_->assert_on_loop();
  if (id == config_.id || !host_->ring().contains(id)) return;
  CLASH_WARN << to_string(config_.id) << ": member " << to_string(id)
             << " declared dead; removing from ring";
  hub_.tracer.record(obs::SpanKind::kMemberDead, config_.id.value,
                     SimTime(node_now_us()), SimDuration{0}, id.value);
  peers_.erase(id);
  drop_pending_connect(id, "member died");
  host_->member_died(id);
}

void ClashNode::on_member_joined(ServerId id) {
  if (host_->ring().contains(id)) return;
  CLASH_INFO << to_string(config_.id) << ": member " << to_string(id)
             << " rejoined; adding to ring";
  hub_.tracer.record(obs::SpanKind::kMemberJoined, config_.id.value,
                     SimTime(node_now_us()), SimDuration{0}, id.value);
  const std::size_t moved = host_->member_joined(id);
  if (moved > 0) {
    CLASH_INFO << to_string(config_.id) << ": handed " << moved
               << " group(s) back to rejoined " << to_string(id);
  }
}

void ClashNode::set_link_fault(ServerId peer, FaultInjector::Config cfg) {
  call_on_loop([&] {
    on_loop_.assert_held();
    auto& slot = link_faults_[peer];
    if (slot == nullptr) {
      slot = std::make_shared<FaultInjector>(cfg);
    } else {
      slot->configure(cfg);
    }
    const auto it = peers_.find(peer);
    if (it != peers_.end()) it->second->set_fault_injector(slot);
    return true;
  });
}

void ClashNode::clear_link_fault(ServerId peer) {
  call_on_loop([&] {
    on_loop_.assert_held();
    link_faults_.erase(peer);
    const auto it = peers_.find(peer);
    if (it != peers_.end()) it->second->set_fault_injector(nullptr);
    return true;
  });
}

std::size_t ClashNode::ring_server_count() {
  return call_on_loop([&] {
    on_loop_.assert_held();
    return host_->ring().server_count();
  });
}

MemberState ClashNode::member_state(ServerId id) {
  return call_on_loop([&] {
    on_loop_.assert_held();
    if (membership_ == nullptr) {
      return config_.members.count(id) > 0 ? MemberState::kAlive
                                           : MemberState::kDead;
    }
    return membership_->view().state_of(id);
  });
}

void ClashNode::on_listener_ready() {
  loop_->assert_on_loop();
  for (;;) {
    auto fd = accept_tcp(listener_);
    if (!fd.ok()) break;  // kWouldBlock or transient error
    adopt_peer(std::move(fd).value());
  }
}

void ClashNode::register_node_gauges() {
  // Callbacks are evaluated at scrape time only, and every scrape of
  // this hub runs on the loop thread (the endpoint handler and
  // scrape_text() both route there), so reading loop-owned state
  // needs no locks. Each callback witnesses the affinity token: a
  // scrape reaching this registry off the loop (e.g. hub().registry
  // .render_text() from a test thread) would otherwise race the loop's
  // writes — with the asserts it aborts in checked builds instead.
  auto& r = hub_.registry;
  r.gauge_callback("clash_node_peer_connections", [this] {
    on_loop_.assert_held();
    return double(peers_.size());
  });
  r.gauge_callback("clash_node_send_queue_bytes", [this] {
    on_loop_.assert_held();
    std::size_t total = 0;
    for (const auto& [_, conn] : peers_) {
      if (!conn->closed()) total += conn->send_queue_bytes();
    }
    return double(total);
  });
  r.gauge_callback("clash_node_active_groups", [this] {
    on_loop_.assert_held();
    return double(host_->server().table().active_count());
  });
  r.gauge_callback("clash_node_replica_records", [this] {
    on_loop_.assert_held();
    return double(host_->server().replica_count());
  });
  r.gauge_callback("clash_node_ring_servers", [this] {
    on_loop_.assert_held();
    return double(host_->ring().server_count());
  });
  // One gauge per field ClashServer counts, straight off its X-macro
  // list: the field reference aims at the server's live stats_ member,
  // which outlives every scrape (reset_stats() assigns in place).
  host_->server().stats().for_each_server_field(
      [&](const char* name, const std::uint64_t& field) {
        const std::uint64_t* ptr = &field;
        r.gauge_callback(std::string("clash_msgs_") + name,
                         [ptr] { return double(*ptr); });
      });
  // Corruption fences sit in two places, each counting its own
  // rejections once: the server (snapshot/append payloads) and the
  // membership driver (gossip frames).
  r.gauge_callback("clash_corrupt_rejected_total", [this] {
    on_loop_.assert_held();
    const std::uint64_t gossip =
        membership_ != nullptr ? membership_->corrupt_rejected() : 0;
    return double(host_->server().stats().corrupt_rejected + gossip);
  });
  // Cluster-wide series off the gossiped census: every node serves the
  // same converged numbers, so any one scrape target shows the whole
  // deployment. view() folds the table fresh per scrape (loop thread).
  r.gauge_callback("clash_cluster_nodes", [this] {
    return double(census_.view().nodes.size());
  });
  r.gauge_callback("clash_cluster_total_load", [this] {
    return census_.view().total_load;
  });
  r.gauge_callback("clash_cluster_active_groups", [this] {
    return double(census_.view().total_groups);
  });
  r.gauge_callback("clash_cluster_replica_records", [this] {
    return double(census_.view().total_replicas);
  });
  r.gauge_callback("clash_cluster_queries", [this] {
    return double(census_.view().total_queries);
  });
  r.gauge_callback("clash_cluster_streams", [this] {
    return double(census_.view().total_streams);
  });
  r.gauge_callback("clash_cluster_census_age_periods", [this] {
    return double(census_.view().max_age_periods);
  });
  r.gauge_callback("clash_cluster_top_group_bytes", [this] {
    const auto view = census_.view();
    return view.top_groups.empty()
               ? 0.0
               : double(view.top_groups.front().cost.total_bytes());
  });
  r.gauge_callback("clash_census_absorbed", [this] {
    return double(census_.absorbed());
  });
  r.gauge_callback("clash_census_stale_rejected", [this] {
    return double(census_.stale_rejected());
  });
  r.gauge_callback("clash_census_crc_rejected", [this] {
    return double(census_.crc_rejected());
  });
}

void ClashNode::start_stats_listener() {
  loop_->assert_on_loop();
  auto listener = listen_tcp(
      Endpoint{config_.listen.host, std::uint16_t(config_.stats_port)});
  if (!listener.ok()) {
    throw std::runtime_error("stats endpoint listen failed: " +
                             listener.error().message);
  }
  stats_listener_ = std::move(listener).value();
  const auto port = bound_port(stats_listener_);
  if (!port.ok()) throw std::runtime_error(port.error().message);
  stats_port_ = port.value();
  loop_->add_fd(stats_listener_.get(), EPOLLIN, [this](std::uint32_t) {
    on_loop_.assert_held();
    on_stats_ready();
  });
  CLASH_INFO << to_string(config_.id) << ": stats endpoint on "
             << config_.listen.host << ":" << stats_port_;
}

void ClashNode::on_stats_ready() {
  loop_->assert_on_loop();
  for (;;) {
    auto fd = accept_tcp(stats_listener_);
    if (!fd.ok()) break;
    Fd client = std::move(fd).value();
    set_nonblocking(client);
    const int raw = client.get();
    stats_clients_[raw].fd = std::move(client);
    loop_->add_fd(raw, EPOLLIN, [this, raw](std::uint32_t events) {
      on_loop_.assert_held();
      on_stats_client(raw, events);
    });
  }
}

void ClashNode::on_stats_client(int fd, std::uint32_t events) {
  loop_->assert_on_loop();
  const auto it = stats_clients_.find(fd);
  if (it == stats_clients_.end()) return;
  StatsClient& client = it->second;
  if (events & (EPOLLERR | EPOLLHUP)) {
    close_stats_client(fd);
    return;
  }
  if ((events & EPOLLIN) && client.out.empty()) {
    char buf[1024];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n > 0) {
        client.in.append(buf, std::size_t(n));
        continue;
      }
      if (n == 0) {
        close_stats_client(fd);
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_stats_client(fd);
      return;
    }
    // The endpoint is read-only and stateless, so any complete request
    // line is good enough — respond at the first newline (HTTP clients
    // and bare `nc` alike), or give up past 8 KiB. The path picks the
    // document: /trace and /healthz are special, everything else (and
    // a pathless bare newline) gets the metrics exposition.
    if (client.in.find('\n') == std::string::npos &&
        client.in.size() <= 8192) {
      return;
    }
    std::string body;
    const char* content_type = "text/plain; version=0.0.4";
    if (client.in.find(" /trace") != std::string::npos) {
      body = hub_.tracer.to_chrome_json();
      content_type = "application/json";
    } else if (client.in.find(" /flightrec") != std::string::npos) {
      // The live black box: event ring + in-flight op table, the same
      // payload a postmortem dump would carry for this node.
      const std::int64_t now = node_now_us();
      body = "{\"node\":" + std::to_string(config_.id.value) +
             ",\"now_us\":" + std::to_string(now) + ",\"flight\":" +
             hub_.tracer.to_json() + ",\"inflight\":" +
             hub_.inflight.to_json(now) + "}\n";
      content_type = "application/json";
    } else if (client.in.find(" /healthz") != std::string::npos) {
      const auto view = census_.view();
      body = "{\"status\":\"ok\",\"ring_servers\":" +
             std::to_string(host_->ring().server_count()) +
             ",\"trace_spans\":" + std::to_string(hub_.tracer.size()) +
             ",\"trace_dropped\":" +
             std::to_string(hub_.tracer.dropped()) +
             ",\"census_nodes\":" + std::to_string(view.nodes.size()) +
             ",\"census_max_age_periods\":" +
             std::to_string(view.max_age_periods) + "}\n";
      content_type = "application/json";
    } else {
      body = hub_.registry.render_text();
    }
    client.out = "HTTP/1.0 200 OK\r\nContent-Type: " +
                 std::string(content_type) +
                 "\r\nContent-Length: " + std::to_string(body.size()) +
                 "\r\nConnection: close\r\n\r\n" + body;
  }
  while (client.off < client.out.size()) {
    const ssize_t n = ::send(fd, client.out.data() + client.off,
                             client.out.size() - client.off, MSG_NOSIGNAL);
    if (n > 0) {
      client.off += std::size_t(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      loop_->modify_fd(fd, EPOLLOUT);  // resume when writable
      return;
    }
    close_stats_client(fd);
    return;
  }
  if (!client.out.empty()) close_stats_client(fd);  // fully served
}

void ClashNode::close_stats_client(int fd) {
  loop_->assert_on_loop();
  const auto it = stats_clients_.find(fd);
  if (it == stats_clients_.end()) return;
  loop_->remove_fd(fd);
  stats_clients_.erase(it);  // Fd destructor closes the socket
}

void ClashNode::adopt_peer(Fd fd) {
  // Inbound connections serve requests and peer messages; they are
  // dropped from the roster when the peer closes.
  auto conn_slot = std::make_shared<std::weak_ptr<Connection>>();
  auto conn = Connection::adopt(
      *loop_, std::move(fd),
      [this, conn_slot](std::span<const std::uint8_t> frame) {
        on_loop_.assert_held();
        if (const auto c = conn_slot->lock()) handle_frame(c, frame);
      },
      [this, conn_slot] {
        on_loop_.assert_held();
        if (const auto c = conn_slot->lock()) {
          std::erase_if(inbound_,
                        [&](const auto& entry) { return entry == c; });
        }
      });
  *conn_slot = conn;
  conn->set_obs(&hub_,
                std::chrono::duration_cast<std::chrono::microseconds>(
                    epoch_.time_since_epoch())
                    .count());
  inbound_.push_back(conn);
}

std::shared_ptr<Connection> ClashNode::adopt_outbound(ServerId to, Fd fd) {
  auto conn_slot = std::make_shared<std::weak_ptr<Connection>>();
  auto conn = Connection::adopt(
      *loop_, std::move(fd),
      [this, conn_slot](std::span<const std::uint8_t> frame) {
        on_loop_.assert_held();
        if (const auto c = conn_slot->lock()) handle_frame(c, frame);
      },
      [this, to] {
        on_loop_.assert_held();
        peers_.erase(to);
      });
  *conn_slot = conn;
  conn->set_obs(&hub_,
                std::chrono::duration_cast<std::chrono::microseconds>(
                    epoch_.time_since_epoch())
                    .count());
  // Resume paced snapshot transfers the moment the socket drains
  // instead of waiting for the next load check.
  conn->set_drain_handler([this] {
    on_loop_.assert_held();
    ClashServer& server = host_->server();
    if (server.has_pending_snapshots()) server.pump_snapshots();
  });
  if (const auto fault = link_faults_.find(to);
      fault != link_faults_.end()) {
    conn->set_fault_injector(fault->second);
  }
  peers_[to] = conn;
  return conn;
}

void ClashNode::begin_connect(ServerId to,
                              std::vector<std::uint8_t>&& frame) {
  const auto member = config_.members.find(to);
  if (member == config_.members.end()) {
    CLASH_WARN << to_string(config_.id) << ": dropping frame for "
               << to_string(to) << " (unknown address)";
    return;
  }
  auto res = connect_tcp_async(member->second);
  if (!res.ok()) {
    CLASH_WARN << to_string(config_.id) << ": connect to " << to_string(to)
               << " failed: " << res.error().message;
    return;
  }
  if (!res.value().in_progress) {
    adopt_outbound(to, std::move(res.value().fd))
        ->send_wire_frame(std::move(frame));
    return;
  }
  // Handshake in flight: park the frame, watch for EPOLLOUT, and put a
  // deadline on it. The loop keeps servicing every other peer — a
  // blackholed address can no longer stall the node.
  PendingConnect pending;
  pending.fd = std::move(res.value().fd);
  pending.queued.push_back(std::move(frame));
  const int raw_fd = pending.fd.get();
  loop_->assert_on_loop();
  pending.timeout_timer =
      loop_->call_after(config_.connect_timeout, [this, to] {
        on_loop_.assert_held();
        drop_pending_connect(to, "connect timeout");
      });
  connecting_.emplace(to, std::move(pending));
  connect_ops_[to] =
      hub_.inflight.begin(obs::OpKind::kConnect,
                          std::uint32_t(config_.id.value), "", to.value,
                          node_now_us());
  loop_->add_fd(raw_fd, EPOLLOUT, [this, to](std::uint32_t events) {
    on_loop_.assert_held();
    finish_connect(to, events);
  });
}

void ClashNode::finish_connect(ServerId to, std::uint32_t events) {
  const auto it = connecting_.find(to);
  if (it == connecting_.end()) return;
  (void)events;  // SO_ERROR distinguishes success from failure
  const int err = connect_result(it->second.fd);
  if (err != 0) {
    CLASH_WARN << to_string(config_.id) << ": connect to " << to_string(to)
               << " failed: " << std::strerror(err);
    drop_pending_connect(to, nullptr);
    return;
  }
  PendingConnect pending = std::move(it->second);
  connecting_.erase(it);
  if (const auto op = connect_ops_.find(to); op != connect_ops_.end()) {
    hub_.inflight.end(op->second);
    connect_ops_.erase(op);
  }
  loop_->assert_on_loop();
  loop_->cancel_timer(pending.timeout_timer);
  loop_->remove_fd(pending.fd.get());
  set_nodelay(pending.fd);
  const auto conn = adopt_outbound(to, std::move(pending.fd));
  for (auto& queued : pending.queued) {
    conn->send_wire_frame(std::move(queued));
  }
}

void ClashNode::drop_pending_connect(ServerId to, const char* reason) {
  const auto it = connecting_.find(to);
  if (it == connecting_.end()) return;
  if (reason != nullptr) {
    CLASH_WARN << to_string(config_.id) << ": abandoning connect to "
               << to_string(to) << " (" << reason << ", "
               << it->second.queued.size() << " frames dropped)";
  }
  loop_->assert_on_loop();
  loop_->cancel_timer(it->second.timeout_timer);
  loop_->remove_fd(it->second.fd.get());
  connecting_.erase(it);
  if (const auto op = connect_ops_.find(to); op != connect_ops_.end()) {
    hub_.inflight.end(op->second);
    connect_ops_.erase(op);
  }
}

void ClashNode::send_to_peer(ServerId to, std::vector<std::uint8_t>&& frame) {
  if (to == config_.id) {
    // Loopback without a socket round trip (skip the length prefix).
    const auto decoded = wire::decode_frame(
        std::span<const std::uint8_t>(frame).subspan(4));
    if (decoded.ok()) {
      const auto msg = wire::decode_message(decoded.value().payload);
      if (msg.ok()) host_->server().deliver(config_.id, msg.value());
    }
    return;
  }
  const auto it = peers_.find(to);
  if (it != peers_.end() && !it->second->closed()) {
    it->second->send_wire_frame(std::move(frame));
    return;
  }
  const auto pending = connecting_.find(to);
  if (pending != connecting_.end()) {
    if (pending->second.queued.size() >= kMaxQueuedPerConnect) {
      CLASH_WARN << to_string(config_.id) << ": dropping frame for "
                 << to_string(to) << " (connect queue full)";
      return;
    }
    pending->second.queued.push_back(std::move(frame));
    return;
  }
  begin_connect(to, std::move(frame));
}

void ClashNode::handle_frame(const std::shared_ptr<Connection>& conn,
                             std::span<const std::uint8_t> frame) {
  // A frame that fails to decode is dropped, not fatal: the length
  // prefix already delimited it, so the stream stays in sync and the
  // next frame parses normally. Closing here would let a single
  // corrupted payload (fault injection, bit rot) tear down an
  // otherwise healthy peer link — the codec fence plus the counter is
  // the right response.
  const auto decoded = wire::decode_frame(frame);
  if (!decoded.ok()) {
    CLASH_WARN << to_string(config_.id)
               << ": dropping bad frame: " << decoded.error().message;
    hub_.registry.counter("clash_net_decode_rejected_total").inc();
    return;
  }
  const auto& env = decoded.value().envelope;
  const auto msg = wire::decode_message(decoded.value().payload);
  if (!msg.ok()) {
    CLASH_WARN << to_string(config_.id)
               << ": dropping bad payload: " << msg.error().message;
    hub_.registry.counter("clash_net_decode_rejected_total").inc();
    return;
  }

  switch (env.kind) {
    case wire::FrameKind::kOneway:
      if (const auto* gossip = std::get_if<Gossip>(&msg.value())) {
        if (membership_ != nullptr) membership_->handle(env.sender, *gossip);
        break;
      }
      host_->server().deliver(env.sender, msg.value());
      break;
    case wire::FrameKind::kRequest: {
      const auto* obj = std::get_if<AcceptObject>(&msg.value());
      if (obj == nullptr) {
        CLASH_WARN << "request frame without AcceptObject";
        conn->close();
        return;
      }
      const AcceptObjectReply reply =
          host_->server().handle_accept_object(*obj);
      auto w = wire::begin_frame(wire::Envelope{
          wire::FrameKind::kResponse, env.request_id, config_.id});
      wire::encode_reply(w, reply);
      auto out = wire::finish_frame(std::move(w));
      if (store_ == nullptr) {
        conn->send_wire_frame(std::move(out));
        break;
      }
      // On a durable node a reply waits for the tick's commit, which
      // writes (and under kPerAppend syncs) the records of the tick's
      // puts. Sending it now could flush it first: the connection's
      // flush may already be deferred ahead of the commit. Every reply
      // parks, a probe's too, so each connection stays in order and
      // sends its tick's replies in one flush.
      if (parked_replies_.empty()) {
        loop_->defer([this] {
          on_loop_.assert_held();
          release_replies();
        });
      }
      parked_replies_.push_back(ParkedReply{conn, std::move(out)});
      break;
    }
    case wire::FrameKind::kResponse:
      // Server nodes never issue requests; ignore.
      break;
  }
}

void ClashNode::release_replies() {
  if (store_->commit_pending()) {
    // The first reply parked before the tick's first put, so this task
    // runs ahead of the commit that put deferred: follow it.
    loop_->defer([this] {
      on_loop_.assert_held();
      release_replies();
    });
    return;
  }
  for (auto& parked : parked_replies_) {
    if (const auto conn = parked.conn.lock()) {
      conn->send_wire_frame(std::move(parked.frame));
    }
  }
  parked_replies_.clear();
}

}  // namespace clash::net
