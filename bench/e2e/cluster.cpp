// Workload table, seeded inputs, and the 3-node loopback cluster.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <thread>

#include "clash/bootstrap.hpp"
#include "common/rng.hpp"
#include "e2e.hpp"
#include "net/node.hpp"
#include "wire/codec.hpp"

namespace e2e {

void pin_thread(std::size_t cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(int(cpu % std::thread::hardware_concurrency()), &set);
  ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
}

namespace {

using DM = ClashConfig::DurabilityMode;
using FP = ClashConfig::FsyncPolicy;

/// Requests in the pool; the measured stream cycles through it. Larger
/// than any nominal phase, so a phase never repeats a request.
constexpr std::size_t kPoolSize = std::size_t{1} << 17;
/// Rate each registered stream declares (load units). Load checks run
/// every 5 minutes, so it never triggers a split within a run.
constexpr double kStreamRate = 0.01;
/// Envelope sender of generator requests (not a node id).
constexpr ServerId kClientId{1000};

KeyGroup group_of(std::size_t index) {
  return KeyGroup::of(Key(std::uint64_t(index) << (kKeyWidth - kDepth),
                          kKeyWidth),
                      kDepth);
}

const std::vector<Workload>& workloads() {
  // Why each workload exists is in README.md.
  static const std::vector<Workload> kAll = {
      {"put_rf0", 0, DM::kNone, FP::kInterval, 65'536, 5'000, 64, 0, false},
      {"put_rf2", 2, DM::kNone, FP::kInterval, 65'536, 2'000, 64, 0, false},
      {"put_wal_fsync", 0, DM::kWalSnapshot, FP::kPerAppend, 4'096, 300, 8, 0,
       false},
      {"mixed_hot", 2, DM::kWalSnapshot, FP::kInterval, 65'536, 3'000, 64, 0.8,
       true},
  };
  return kAll;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

ClashConfig clash_config(const Workload& w) {
  ClashConfig cfg;
  cfg.key_width = kKeyWidth;
  cfg.initial_depth = kDepth;
  cfg.replication_factor = w.rf;
  // Explicit, so a change of the default mode cannot change the rf=2
  // workloads.
  cfg.replication_mode = ClashConfig::ReplicationMode::kLog;
  cfg.durability_mode = w.durability;
  cfg.fsync_policy = w.fsync;
  return cfg;
}

dht::ChordRing make_ring() {
  const net::NodeConfig defaults;
  dht::ChordRing ring(dht::ChordRing::Config{
      defaults.hash_bits, defaults.virtual_servers, defaults.hash_algo,
      defaults.ring_salt});
  for (std::size_t i = 0; i < kNodes; ++i) ring.add_server(ServerId{i});
  return ring;
}

std::size_t owner_of(const dht::ChordRing& ring, const Key& key) {
  return std::size_t(
      ring.map(ring.hasher().hash_key(shape(key, kDepth))).value);
}

// --- Seeded inputs --------------------------------------------------------

AcceptObject make_object(const Pool& pool, const Request& r) {
  AcceptObject obj;
  obj.key = pool.keys[r.source];
  obj.depth = r.depth;
  obj.kind = ObjectKind::kData;
  obj.source = ClientId{r.source};
  obj.stream_rate = kStreamRate;
  obj.probe_only = r.probe;
  return obj;
}

namespace {

std::vector<std::uint8_t> encode(const AcceptObject& obj, std::uint64_t id) {
  auto w = wire::begin_frame(
      wire::Envelope{wire::FrameKind::kRequest, id, kClientId});
  wire::encode_message(w, Message(obj));
  return wire::finish_frame(std::move(w));
}

}  // namespace

void encode_request(Pool& pool, std::size_t i) {
  pool.frames[i] = encode(make_object(pool, pool.requests[i]), i);
}

Pool make_pool(const Workload& w, std::uint64_t seed,
               const dht::ChordRing& ring) {
  Rng root(seed);
  Rng key_rng = root.split(1);
  Rng req_rng = root.split(2);
  Pool pool;
  std::vector<std::vector<std::uint32_t>> by_group(kGroups);
  pool.keys.reserve(w.population);
  for (std::size_t s = 0; s < w.population; ++s) {
    const Key key(key_rng.below(std::uint64_t{1} << kKeyWidth), kKeyWidth);
    pool.keys.push_back(key);
    by_group[key.prefix_value(kDepth)].push_back(std::uint32_t(s));
  }
  pool.population_frames.reserve(w.population);
  pool.population_by_node.resize(kNodes);
  for (std::size_t s = 0; s < w.population; ++s) {
    Request r;
    r.source = std::uint32_t(s);
    pool.population_frames.push_back(encode(make_object(pool, r), s));
    pool.population_by_node[owner_of(ring, pool.keys[s])].push_back(
        std::uint32_t(s));
  }

  // Zipf rank r is group r for every seed: which node owns the hot
  // groups moves the costs by a quarter, so the seed varies only the
  // draws, not the placement.
  const ZipfSampler zipf(kGroups, 0.99);

  pool.requests.resize(kPoolSize);
  pool.frames.resize(kPoolSize);
  pool.by_node.resize(kNodes);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    Request& r = pool.requests[i];
    if (w.zipf) {
      std::size_t g = zipf.sample(req_rng);
      while (by_group[g].empty()) g = (g + 1) % kGroups;
      r.source = by_group[g][req_rng.below(by_group[g].size())];
    } else {
      r.source = std::uint32_t(req_rng.below(w.population));
    }
    r.probe = w.read_frac > 0 && req_rng.uniform01() < w.read_frac;
    r.node = std::uint8_t(owner_of(ring, pool.keys[r.source]));
    encode_request(pool, i);
    pool.by_node[r.node].push_back(std::uint32_t(i));
  }
  return pool;
}

std::vector<std::int64_t> arrivals(std::uint64_t seed, std::uint64_t phase,
                                   double rate, double seconds) {
  Rng rng = Rng(seed).split(100 + phase);
  const double mean_ns = 1e9 / rate;
  const double end = seconds * 1e9;
  std::vector<std::int64_t> out;
  for (double t = rng.exponential(mean_ns); t < end;
       t += rng.exponential(mean_ns)) {
    out.push_back(std::int64_t(t));
  }
  return out;
}

// --- Cluster ----------------------------------------------------------------

Counters Counters::since(const Counters& earlier) const {
  const auto hist_delta = [](const obs::Histogram::Snapshot& now,
                             const obs::Histogram::Snapshot& then) {
    obs::Histogram::Snapshot d;
    if (now.count <= then.count) return d;
    d.count = now.count - then.count;
    d.sum = now.sum - then.sum;
    d.min = 0;  // unknown for the interval; percentile() clamps to it
    d.max = now.max;
    d.buckets = now.buckets;
    for (std::size_t i = 0; i < then.buckets.size(); ++i) {
      d.buckets[i] -= then.buckets[i];
    }
    return d;
  };
  Counters d;
  d.frames = frames - earlier.frames;
  d.bytes = bytes - earlier.bytes;
  d.frames_sent = frames_sent - earlier.frames_sent;
  d.flushes = flushes - earlier.flushes;
  d.tick = hist_delta(tick, earlier.tick);
  d.commit = hist_delta(commit, earlier.commit);
  return d;
}

Cluster::Cluster(const Workload& w, std::string data_dir)
    : w_(w), data_dir_(std::move(data_dir)), ring_(make_ring()) {
  // Learn free ports by binding port 0, then release them to the nodes.
  {
    std::vector<net::Fd> probes;
    for (std::size_t i = 0; i < kNodes; ++i) {
      auto l = net::listen_tcp(net::Endpoint{"127.0.0.1", 0});
      if (!l.ok()) throw std::runtime_error(l.error().message);
      const auto port = net::bound_port(l.value());
      if (!port.ok()) throw std::runtime_error(port.error().message);
      endpoints_.push_back(net::Endpoint{"127.0.0.1", port.value()});
      probes.push_back(std::move(l).value());
    }
  }
  std::map<ServerId, net::Endpoint> members;
  for (std::size_t i = 0; i < kNodes; ++i) {
    members[ServerId{i}] = endpoints_[i];
  }
  const ClashConfig clash = clash_config(w_);
  for (std::size_t i = 0; i < kNodes; ++i) {
    net::NodeConfig cfg;
    cfg.id = ServerId{i};
    cfg.listen = endpoints_[i];
    cfg.members = members;
    cfg.clash = clash;
    if (w_.durability != DM::kNone) {
      cfg.storage_dir = data_dir_ + "/node-" + std::to_string(i);
    }
    nodes_.push_back(std::make_unique<net::ClashNode>(cfg));
  }
  // Node threads inherit the starting thread's CPU.
  for (std::size_t i = 0; i < kNodes; ++i) {
    pin_thread(1 + i);
    nodes_[i]->start();
  }
  pin_thread(0);
  const auto entries =
      compute_bootstrap_entries(ring_, ring_.hasher(), clash);
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto it = entries.find(ServerId{i});
    if (it != entries.end()) nodes_[i]->install_entries(it->second);
  }
  if (w_.rf == 0) return;
  // Activation streams each group's first snapshot to its replica set;
  // wait until every holder has one, so puts never race it.
  const auto deadline = now_ns() + 10 * kTimeoutNs;
  for (std::size_t g = 0; g < kGroups; ++g) {
    const KeyGroup group = group_of(g);
    const auto holders = ring_.successors(
        ring_.hasher().hash_key(group.virtual_key()), w_.rf + 1);
    for (std::size_t h = 1; h < holders.size(); ++h) {
      auto& node = *nodes_[holders[h].value];
      while (!node.run_on_loop([&](ClashServer& s) {
        return s.replica_head(group).has_value();
      })) {
        if (now_ns() > deadline) {
          throw std::runtime_error("replica " + group.label() +
                                   " never installed");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
  }
}

Cluster::~Cluster() {
  for (auto& node : nodes_) node->stop();
  nodes_.clear();
  if (w_.durability != DM::kNone) {
    std::error_code ec;
    std::filesystem::remove_all(data_dir_, ec);
  }
}

Counters Cluster::counters() {
  Counters c;
  for (auto& node : nodes_) {
    const auto& reg = node->hub().registry;
    const auto sent = reg.counter_value("clash_net_frames_sent_total");
    c.frames_sent += sent;
    c.frames += sent + reg.counter_value("clash_net_frames_received_total");
    c.bytes += reg.counter_value("clash_net_bytes_sent_total") +
               reg.counter_value("clash_net_bytes_received_total");
    c.flushes += reg.counter_value("clash_net_flush_syscalls_total");
    c.tick.merge(reg.histogram_snapshot("clash_loop_tick_usec"));
    c.commit.merge(reg.histogram_snapshot("clash_repl_commit_usec"));
  }
  return c;
}

std::vector<std::string> Cluster::check(std::size_t population) {
  std::vector<std::string> out;
  std::size_t streams = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    auto& node = *nodes_[i];
    streams +=
        node.run_on_loop([](ClashServer& s) { return s.total_streams(); });
    const auto bad = node.run_on_loop(
        [](ClashServer& s) { return s.table().check_invariants(); });
    if (bad) out.push_back("node " + std::to_string(i) + ": " + *bad);
    for (std::size_t j = 0; j < kNodes; ++j) {
      if (node.member_state(ServerId{j}) != MemberState::kAlive) {
        out.push_back("node " + std::to_string(i) + " sees node " +
                      std::to_string(j) + " not alive");
      }
    }
  }
  if (streams != population) {
    out.push_back("total_streams " + std::to_string(streams) +
                  " != population " + std::to_string(population));
  }
  if (w_.rf == 0) return out;

  // Replication drains asynchronously (batched appends, paced
  // snapshots): poll until every replica head matches its owner's.
  std::vector<std::string> lag;
  const auto deadline = now_ns() + 10 * kTimeoutNs;
  do {
    lag.clear();
    for (std::size_t g = 0; g < kGroups; ++g) {
      const KeyGroup group = group_of(g);
      const auto holders = ring_.successors(
          ring_.hasher().hash_key(group.virtual_key()), w_.rf + 1);
      const auto head = nodes_[holders[0].value]->run_on_loop(
          [&](ClashServer& s) { return s.log_head(group); });
      for (std::size_t h = 1; h < holders.size(); ++h) {
        const auto rh = nodes_[holders[h].value]->run_on_loop(
            [&](ClashServer& s) { return s.replica_head(group); });
        if (!head || !rh || *head != *rh) {
          lag.push_back(group.label() + ": replica on node " +
                        std::to_string(holders[h].value) +
                        " differs from the owner's log head");
        }
      }
    }
    if (!lag.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  } while (!lag.empty() && now_ns() < deadline);
  out.insert(out.end(), lag.begin(), lag.end());
  return out;
}

}  // namespace e2e
