// Microbenchmarks (google-benchmark) for the hot code paths: key ops,
// ServerTable lookups, hashing, Chord routing, client resolution,
// split/merge cost, the kernels of a replicated put (the group state
// upsert, the ReplAppend codec round trip, and the owner's
// log-and-flush to its replica set), and continuous-query matching.
#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "clash/bootstrap.hpp"
#include "clash/client.hpp"
#include "clash/server_table.hpp"
#include "common/rng.hpp"
#include "common/sha1.hpp"
#include "dht/chord.hpp"
#include "net/node.hpp"
#include "repl/log.hpp"
#include "sim/cluster.hpp"
#include "storage/snapshot.hpp"
#include "wire/buffer_pool.hpp"
#include "wire/codec.hpp"

using namespace clash;

namespace {

void BM_Shape(benchmark::State& state) {
  Rng rng(1);
  const Key k(rng.next() & 0xFFFFFF, 24);
  unsigned d = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(shape(k, d % 25));
    ++d;
  }
}
BENCHMARK(BM_Shape);

void BM_KeyGroupContains(benchmark::State& state) {
  const KeyGroup g = KeyGroup::of(Key(0x123456, 24), 9);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.contains(Key(rng.next() & 0xFFFFFF, 24)));
  }
}
BENCHMARK(BM_KeyGroupContains);

void BM_Sha1Hash64(benchmark::State& state) {
  state.SetLabel(Sha1::compress_path());
  std::uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::hash64(v++));
  }
}
BENCHMARK(BM_Sha1Hash64);

// The portable compression, timed directly so a host whose CPU has the
// SHA extensions still measures the path other hosts run.
void BM_Sha1CompressPortable(benchmark::State& state) {
  std::uint32_t h[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u,
                        0xC3D2E1F0u};
  std::uint32_t block[16] = {};
  block[2] = 0x80000000u;
  block[15] = 64;
  std::uint64_t v = 0;
  for (auto _ : state) {
    block[0] = std::uint32_t(v >> 32);
    block[1] = std::uint32_t(v++);
    Sha1::compress_portable(h, block);
    benchmark::DoNotOptimize(h);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Sha1CompressPortable);

void BM_KeyHasher(benchmark::State& state) {
  const auto algo = state.range(0) == 0 ? dht::KeyHasher::Algo::kMix64
                                        : dht::KeyHasher::Algo::kSha1;
  const dht::KeyHasher hasher(32, algo);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher.hash_key(Key(rng.next() & 0xFFFFFF, 24)));
  }
}
BENCHMARK(BM_KeyHasher)->Arg(0)->Arg(1);

ServerTable make_table(std::size_t entries) {
  ServerTable t(24);
  Rng rng(7);
  while (t.size() < entries) {
    const unsigned depth = 1 + unsigned(rng.below(24));
    const KeyGroup g = KeyGroup::of(Key(rng.next() & 0xFFFFFF, 24), depth);
    if (t.find(g) != nullptr) continue;
    t.insert({g, false, ServerId{0}, ServerId{1}, false});
  }
  return t;
}

void BM_TableLongestPrefix(benchmark::State& state) {
  const auto t = make_table(std::size_t(state.range(0)));
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        t.longest_prefix_match(Key(rng.next() & 0xFFFFFF, 24)));
  }
}
BENCHMARK(BM_TableLongestPrefix)->Arg(8)->Arg(64)->Arg(512);

void BM_TableActiveLookup(benchmark::State& state) {
  ServerTable t(24);
  Rng rng(9);
  // Prefix-free actives: split a trie path.
  KeyGroup g = KeyGroup::root(24);
  for (int i = 0; i < state.range(0); ++i) {
    t.insert({g.right_child(), false, ServerId{0}, ServerId{}, true});
    g = g.left_child();
  }
  t.insert({g, false, ServerId{0}, ServerId{}, true});
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.active_entry_for(Key(rng.next() & 0xFFFFFF, 24)));
  }
}
BENCHMARK(BM_TableActiveLookup)->Arg(4)->Arg(16)->Arg(23);

// One e2e node's table: the bootstrap cascade to depth 6 (64 groups)
// over 3 servers on a ring built as a ClashNode builds it, keys uniform.
// A key either hits one of the node's active groups (one probe at depth
// 6) or misses the node.
void BM_TableActiveLookupBootstrap(benchmark::State& state) {
  ClashConfig cfg;
  cfg.key_width = 24;
  cfg.initial_depth = 6;
  const net::NodeConfig node;
  dht::ChordRing ring(dht::ChordRing::Config{
      node.hash_bits, node.virtual_servers, node.hash_algo, node.ring_salt});
  for (std::uint64_t i = 0; i < 3; ++i) ring.add_server(ServerId{i});
  ServerTable t(24);
  for (const auto& e :
       compute_bootstrap_entries(ring, ring.hasher(), cfg).at(ServerId{0})) {
    t.insert(e);
  }
  Rng rng(9);
  for (auto _ : state) {
    const Key k(rng.next() & 0xFFFFFF, 24);
    benchmark::DoNotOptimize(t.active_entry_for(k));
  }
  state.counters["entries"] = double(t.size());
  state.counters["active"] = double(t.active_count());
}
BENCHMARK(BM_TableActiveLookupBootstrap);

void BM_ChordLookup(benchmark::State& state) {
  dht::ChordRing::Config cfg;
  cfg.hash_bits = 32;
  dht::ChordRing ring(cfg);
  const auto n = std::uint64_t(state.range(0));
  for (std::uint64_t i = 0; i < n; ++i) ring.add_server(ServerId{i});
  Rng rng(10);
  std::uint64_t hops = 0, lookups = 0;
  for (auto _ : state) {
    const auto r = ring.lookup(dht::HashKey{rng.next() & 0xFFFFFFFF},
                               ServerId{rng.below(n)});
    hops += r.hops;
    ++lookups;
    benchmark::DoNotOptimize(r);
  }
  state.counters["avg_hops"] =
      benchmark::Counter(double(hops) / double(lookups));
}
BENCHMARK(BM_ChordLookup)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ClientResolve(benchmark::State& state) {
  sim::SimCluster::Config cfg;
  cfg.num_servers = 128;
  cfg.clash.key_width = 24;
  cfg.clash.initial_depth = 6;
  cfg.clash.capacity = 1e18;
  sim::SimCluster cluster(cfg);
  cluster.bootstrap();
  // Deepen the tree a bit.
  Rng splitter(11);
  for (int i = 0; i < 200; ++i) {
    const Key k(splitter.next() & 0xFFFFFF, 24);
    const auto g = cluster.find_active_group(k);
    if (!g || g->depth() >= 24) continue;
    (void)cluster.server(*cluster.find_owner(k)).force_split(*g);
  }
  ClashClient::Options opts;
  opts.use_cache = state.range(0) != 0;
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher(), opts, 5);
  Rng rng(12);
  // With cache: resolve the same small working set repeatedly.
  std::vector<Key> keys;
  for (int i = 0; i < 16; ++i) keys.emplace_back(rng.next() & 0xFFFFFF, 24);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.resolve(keys[i++ % keys.size()]));
  }
}
BENCHMARK(BM_ClientResolve)->Arg(0)->Arg(1);

void BM_SplitMergeCycle(benchmark::State& state) {
  sim::SimCluster::Config cfg;
  cfg.num_servers = 32;
  cfg.clash.key_width = 24;
  cfg.clash.initial_depth = 4;
  cfg.clash.capacity = 1e18;
  sim::SimCluster cluster(cfg);
  cluster.bootstrap();
  const Key k(0x800000, 24);
  for (auto _ : state) {
    const auto g = cluster.find_active_group(k);
    const auto owner = cluster.find_owner(k);
    (void)cluster.server(*owner).force_split(*g);
    // Merge straight back (children are cold): one load check on the
    // parent owner triggers consolidation.
    cluster.server(*owner).run_load_check();
    benchmark::DoNotOptimize(cluster.owner_index().size());
  }
}
BENCHMARK(BM_SplitMergeCycle);

// One put's group-state upsert, as the owner and every replica run it:
// re-register an existing source (new key and rate) in a 1,024-stream
// group, sources visited in a scattered order.
void BM_GroupStateUpsert(benchmark::State& state) {
  constexpr std::uint64_t kStreams = 1024;
  GroupState st;
  for (std::uint64_t i = 0; i < kStreams; ++i) {
    repl::GroupLog::apply(
        repl::LogOp::put_stream({ClientId{i}, Key(i, 24), 1.0}), st);
  }
  Rng rng(5);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const ClientId source{(i++ * 617) % kStreams};
    repl::GroupLog::apply(
        repl::LogOp::put_stream(
            {source, Key(rng.next() & 0xFFFFFF, 24), 1.0 + double(i % 3)}),
        st);
    benchmark::DoNotOptimize(st.stream_rate);
  }
}
BENCHMARK(BM_GroupStateUpsert);

// The same upsert at one e2e node's scale: about 21,800 streams over
// 21 groups (a third of 65,536 sources on 64 groups), each put from a
// random source. The state no longer fits in cache, so each upsert
// pays its misses; the 1024-stream case above stays cache-resident.
void BM_GroupStateUpsertNodeSized(benchmark::State& state) {
  constexpr std::uint64_t kStreams = 21800;
  constexpr std::uint64_t kGroups = 21;
  std::vector<GroupState> groups(kGroups);
  for (std::uint64_t i = 0; i < kStreams; ++i) {
    repl::GroupLog::apply(
        repl::LogOp::put_stream({ClientId{i}, Key(i, 24), 1.0}),
        groups[i % kGroups]);
  }
  Rng rng(5);
  for (auto _ : state) {
    const std::uint64_t i = rng.below(kStreams);
    GroupState& st = groups[i % kGroups];
    repl::GroupLog::apply(
        repl::LogOp::put_stream(
            {ClientId{i}, Key(rng.next() & 0xFFFFFF, 24), 1.0 + double(i % 3)}),
        st);
    benchmark::DoNotOptimize(st.stream_rate);
  }
}
BENCHMARK(BM_GroupStateUpsertNodeSized);

// Continuous-query matching: one record against one depth-6 group's
// query index. Half the queries are exact keys; the other half have
// scopes of depth 2 to 15, so some cover the whole group and some lie
// inside it; a third carry a predicate. Records are keys inside the
// group, cycled from a pre-drawn set.
void BM_GroupQueryMatch(benchmark::State& state) {
  const auto n = std::uint64_t(state.range(0));
  const std::uint64_t base = 0x600000;  // group 011000*, depth 6
  Rng rng(11);
  GroupState st;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Key key(base | (rng.next() & 0x3FFFF), 24);
    const unsigned depth = i % 2 == 0 ? 24 : 2 + unsigned(rng.below(14));
    std::vector<cq::Predicate> preds;
    if (i % 3 == 0) {
      preds.push_back(
          {0, cq::Predicate::Op::kGe, std::int64_t(rng.below(100))});
    }
    st.queries.insert(QueryInfo(QueryId{i}, key, depth, std::move(preds)));
  }
  std::vector<cq::Record> records;
  for (int i = 0; i < 1024; ++i) {
    records.push_back(cq::Record{Key(base | (rng.next() & 0x3FFFF), 24),
                                 {std::int64_t(rng.below(100))}});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(st.queries.match(records[i++ & 1023]));
  }
}
BENCHMARK(BM_GroupQueryMatch)->Arg(16)->Arg(1024);

// One snapshot file's encoding, read in place from a group's live
// state (half streams, half queries, a third of the queries with a
// predicate), as a checkpoint or baseline write pays it.
void BM_SnapshotEncode(benchmark::State& state) {
  const auto n = std::uint64_t(state.range(0));
  const KeyGroup group = KeyGroup::of(Key(0x600000, 24), 6);
  Rng rng(13);
  GroupState st;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Key key(0x600000 | (rng.next() & 0x3FFFF), 24);
    if (i % 2 == 0) {
      repl::GroupLog::apply(
          repl::LogOp::put_stream({ClientId{i}, key, 1.0}), st);
      continue;
    }
    std::vector<cq::Predicate> preds;
    if (i % 3 == 0) preds.push_back({0, cq::Predicate::Op::kGe, 7});
    repl::GroupLog::apply(repl::LogOp::put_query(QueryInfo(
                              QueryId{i}, key, 24, std::move(preds))),
                          st);
  }
  const storage::SnapshotView view{{group, repl::LogHead{3, n}, false,
                                    ServerId{1}},
                                   st};
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::encode_snapshot(view).size());
  }
}
BENCHMARK(BM_SnapshotEncode)->Arg(1024);

// The replication codec per batch: the owner encodes a two-entry
// ReplAppend, stamping its content fence; the replica decodes it,
// checking the fence, and reads the verdict.
void BM_ReplAppendRoundTrip(benchmark::State& state) {
  ReplAppend m;
  m.group = KeyGroup::of(Key(0x600000, 24), 6);
  m.owner = ServerId{3};
  m.epoch = 5;
  m.base_seq = 41;
  m.entries.push_back(
      repl::LogOp::put_stream({ClientId{9}, Key(0x601234, 24), 2.5}));
  m.entries.push_back(
      repl::LogOp::put_stream({ClientId{10}, Key(0x60ABCD, 24), 1.5}));
  const Message msg(std::move(m));
  for (auto _ : state) {
    wire::Writer w;
    wire::encode_message(w, msg);
    const auto decoded = wire::decode_message(w.data());
    benchmark::DoNotOptimize(std::get<ReplAppend>(decoded.value()).crc_ok);
  }
}
BENCHMARK(BM_ReplAppendRoundTrip);

// A transport that pays what ClashNode pays per message (one pooled
// frame encoding; a fan-out encodes once and copies the bytes) and
// counts the frames, with a dispatch tick the bench ends by hand.
class CountingEnv final : public ServerEnv {
 public:
  std::vector<ServerId> replicas;
  std::vector<std::function<void()>> deferred;
  std::uint64_t frames = 0;

  dht::LookupResult dht_lookup(dht::HashKey) override {
    return dht::LookupResult{ServerId{0}, 0};
  }
  std::vector<ServerId> replica_targets(dht::HashKey, unsigned) override {
    return replicas;
  }
  void send(ServerId, const Message& msg) override {
    recycle(wire::oneway_frame(ServerId{0}, msg));
  }
  void fan_out(std::span<const ServerId> to, const Message& msg) override {
    auto frame = wire::oneway_frame(ServerId{0}, msg);
    for (std::size_t i = 1; i < to.size(); ++i) {
      auto copy = wire::BufferPool::local().acquire();
      copy.assign(frame.begin(), frame.end());
      recycle(std::move(copy));
    }
    recycle(std::move(frame));
  }
  [[nodiscard]] SimTime now() const override { return SimTime{0}; }
  void defer(std::function<void()> fn) override {
    deferred.push_back(std::move(fn));
  }
  void end_tick() {
    for (auto& fn : deferred) fn();
    deferred.clear();
  }

 private:
  void recycle(std::vector<std::uint8_t>&& frame) {
    ++frames;
    wire::BufferPool::local().release(std::move(frame));
  }
};

// The owner's side of a replicated put, per two-put tick: accept both
// puts into one of the node's groups (log_op queues each), then the
// tick's flush sends the two-entry ReplAppend to two replicas. Hashed
// as a ClashNode hashes (SHA-1, 32 bits). Arg: groups owned (21 is one
// e2e node's share of 64; 1024 shows what the flush pays per group
// owned rather than per group logged).
void BM_ReplAppendFlush(benchmark::State& state) {
  const auto groups = std::uint64_t(state.range(0));
  const unsigned depth = groups <= 64 ? 6 : 10;
  const unsigned shift = 24 - depth;
  ClashConfig cfg;
  cfg.key_width = 24;
  cfg.initial_depth = depth;
  cfg.capacity = 1e18;
  cfg.replication_factor = 2;
  const net::NodeConfig node;
  CountingEnv env;
  env.replicas = {ServerId{1}, ServerId{2}};
  ClashServer server(ServerId{0}, cfg, env,
                     dht::KeyHasher(node.hash_bits, node.hash_algo,
                                    node.ring_salt));
  for (std::uint64_t g = 0; g < groups; ++g) {
    ServerTableEntry entry;
    entry.group = KeyGroup::of(Key(g << shift, 24), depth);
    entry.active = true;
    server.install_entry(entry);
  }
  env.end_tick();
  env.frames = 0;
  Rng rng(13);
  AcceptObject put;
  put.kind = ObjectKind::kData;
  put.stream_rate = 1.0;
  const std::uint64_t low = (std::uint64_t{1} << shift) - 1;
  // Every group logs once first, as every group of a live node has.
  for (std::uint64_t g = 0; g < groups; ++g) {
    put.source = ClientId{g};
    put.key = Key(g << shift, 24);
    (void)server.handle_accept_object(put);
    env.end_tick();
  }
  env.frames = 0;
  for (auto _ : state) {
    const std::uint64_t g = rng.below(groups);
    for (int i = 0; i < 2; ++i) {
      put.source = ClientId{rng.below(1024)};
      put.key = Key((g << shift) | (rng.next() & low), 24);
      benchmark::DoNotOptimize(server.handle_accept_object(put));
    }
    env.end_tick();
  }
  state.counters["frames_per_flush"] =
      benchmark::Counter(double(env.frames) / double(state.iterations()));
}
BENCHMARK(BM_ReplAppendFlush)->Arg(21)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
