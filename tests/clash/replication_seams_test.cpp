// The seams between the Section 5 protocol and the replication engine:
// every way a group becomes active on a server starts its log above any
// line it ran there before, writes a baseline snapshot and offers it to
// the replica set; every way a group leaves drops the replica set's
// copies and closes its log and in-flight ops. A replica record that
// goes mid-snapshot closes its assembly's in-flight op. A replica
// rejects an append whose bytes fail the content fence, whatever its
// CRC slot holds.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "clash/server.hpp"
#include "obs/hub.hpp"
#include "storage/backend.hpp"
#include "storage/snapshot.hpp"
#include "storage/store.hpp"
#include "wire/codec.hpp"

namespace clash {
namespace {

constexpr unsigned kWidth = 8;
const ServerId kSelf{0};
const ServerId kHolderA{1};
const ServerId kHolderB{2};
const ServerId kParent{5};
const ServerId kOwner{7};
const ServerId kAway{9};

/// Records sends and fan-outs, names one replica set for every group,
/// answers every DHT lookup with `lookup_owner`, and has its own clock
/// and hub.
class SeamEnv final : public ServerEnv {
 public:
  std::vector<std::pair<ServerId, Message>> sent;
  std::vector<std::pair<std::vector<ServerId>, Message>> fan_outs;
  ServerId lookup_owner = kSelf;
  SimTime t{0};
  obs::Hub hub;

  dht::LookupResult dht_lookup(dht::HashKey) override {
    return dht::LookupResult{lookup_owner, 0};
  }
  std::vector<ServerId> replica_targets(dht::HashKey, unsigned) override {
    return {kHolderA, kHolderB};
  }
  void send(ServerId to, const Message& msg) override {
    sent.emplace_back(to, msg);
  }
  void fan_out(std::span<const ServerId> to, const Message& msg) override {
    fan_outs.emplace_back(std::vector<ServerId>(to.begin(), to.end()), msg);
  }
  [[nodiscard]] SimTime now() const override { return t; }
  obs::Hub& obs() override { return hub; }

  void clear() {
    sent.clear();
    fan_outs.clear();
  }
  /// Open in-flight ops of `kind`, or of any kind on `group` when given.
  [[nodiscard]] std::size_t open_ops(obs::OpKind kind) const {
    std::size_t n = 0;
    for (const auto& op : hub.inflight.snapshot()) n += op.kind == kind;
    return n;
  }
  [[nodiscard]] std::size_t open_ops(const KeyGroup& group) const {
    std::size_t n = 0;
    for (const auto& op : hub.inflight.snapshot()) {
      n += op.group == group.label();
    }
    return n;
  }
  [[nodiscard]] bool offered(ServerId to, const KeyGroup& group) const {
    return std::any_of(sent.begin(), sent.end(), [&](const auto& s) {
      const auto* offer = std::get_if<SnapshotOffer>(&s.second);
      return s.first == to && offer != nullptr && offer->group == group;
    });
  }
  [[nodiscard]] bool dropped_at_set(const KeyGroup& group) const {
    return std::any_of(fan_outs.begin(), fan_outs.end(), [&](const auto& f) {
      const auto* drop = std::get_if<DropReplica>(&f.second);
      return drop != nullptr && drop->group == group &&
             f.first == std::vector<ServerId>{kHolderA, kHolderB};
    });
  }
};

ClashConfig seam_config() {
  ClashConfig cfg;
  cfg.key_width = kWidth;
  cfg.initial_depth = 0;
  cfg.capacity = 1e9;
  cfg.replication_factor = 2;
  cfg.durability_mode = ClashConfig::DurabilityMode::kWalSnapshot;
  cfg.ephemeral_groups = true;  // an emptied group leaves (gc departure)
  return cfg;
}

/// One server at rf 2 over an in-memory durable store.
struct Node {
  SeamEnv env;
  storage::MemBackend backend;
  storage::NodeStore store{backend,
                           storage::NodeStore::Config::from(seam_config())};
  ClashServer server{kSelf, seam_config(), env,
                     dht::KeyHasher(32, dht::KeyHasher::Algo::kMix64, 0)};

  Node() { server.set_storage(&store); }

  void install(const KeyGroup& g, bool root = false,
               ServerId parent = kSelf) {
    server.install_entry(ServerTableEntry{g, root, parent});
  }
  /// Register a stream on `key`: its ReplAppend stays unacked, so the
  /// group's kReplAppend op stays open.
  void put(std::uint64_t source, std::uint64_t key) {
    AcceptObject obj;
    obj.key = Key(key, kWidth);
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{source};
    obj.stream_rate = 1.0;
    ASSERT_TRUE(std::holds_alternative<AcceptObjectOk>(
        server.handle_accept_object(obj)));
  }
  /// `g` arrives by transfer on line 8, then leaves by handoff: its
  /// retired epoch here is 8.
  void prime(const KeyGroup& g) {
    AcceptKeyGroup in;
    in.group = g;
    in.parent = kParent;
    in.epoch = 7;
    server.deliver(kParent, in);
    ASSERT_EQ(server.log_head(g)->epoch, 8u);
    env.lookup_owner = kAway;
    ASSERT_EQ(server.handoff_groups(kAway), 1u);
    env.lookup_owner = kSelf;
  }
  /// Offer a two-chunk snapshot of `g` from kOwner at (20, 5) and
  /// deliver the first `delivered` chunks.
  void offer(const KeyGroup& g, std::uint32_t delivered) {
    const repl::LogHead head{20, 5};
    server.deliver(kOwner,
                   SnapshotOffer{g, kOwner, head, false, kParent, 2, 0});
    for (std::uint32_t i = 0; i < delivered; ++i) {
      server.deliver(kOwner, SnapshotChunk{g, head, i, 2, 0, {}, {}});
    }
  }
};

const KeyGroup kRoot = KeyGroup::root(kWidth);
const KeyGroup kLeft = kRoot.left_child();
const KeyGroup kRight = kRoot.right_child();

// The ways a replica record goes while its snapshot is mid-assembly.
void drop_by_message(Node& n) { n.server.deliver(kOwner, DropReplica{kLeft}); }
void drop_by_lease_expiry(Node& n) {
  const std::int64_t period = seam_config().load_check_period.usec;
  for (int i = 1; i <= 4; ++i) {
    n.env.t = SimTime(period * i);
    n.server.run_load_check();
  }
}
void drop_by_promotion(Node& n) {
  EXPECT_TRUE(n.server.promote_replica(kLeft));
}

TEST(ReplicaLifecycle, DroppedRecordClosesItsSnapshotAssembly) {
  struct Drop {
    const char* name;
    void (*drop)(Node&);
  };
  const Drop drops[] = {
      {"DropReplica", drop_by_message},
      {"lease expiry", drop_by_lease_expiry},
      {"promotion", drop_by_promotion},
  };
  for (const Drop& d : drops) {
    SCOPED_TRACE(d.name);
    Node n;
    n.offer(kLeft, 1);  // one of two chunks: the assembly stays open
    ASSERT_TRUE(n.server.has_replica(kLeft));
    ASSERT_EQ(n.env.open_ops(obs::OpKind::kSnapshotIn), 1u);
    d.drop(n);
    EXPECT_FALSE(n.server.has_replica(kLeft));
    EXPECT_EQ(n.env.open_ops(obs::OpKind::kSnapshotIn), 0u);
  }
}

// Arrival set-ups: each returns the highest epoch the arriving group
// has run on the node so far.
std::uint64_t retired_left(Node& n) {
  n.prime(kLeft);
  return 8;
}
std::uint64_t retired_left_under_root(Node& n) {
  n.prime(kLeft);
  n.install(kRoot, /*root=*/true);
  return 8;
}
std::uint64_t retired_right_under_root(Node& n) {
  n.prime(kRight);
  n.install(kRoot, /*root=*/true);
  return 8;
}
std::uint64_t root_split_in_two(Node& n) {
  n.prime(kRoot);
  n.install(kRoot, /*root=*/true);
  const std::uint64_t line = n.server.log_head(kRoot)->epoch;
  EXPECT_GT(line, 8u);
  EXPECT_TRUE(n.server.force_split(kRoot));  // both halves stay local
  return line;
}
std::uint64_t retired_left_with_record(Node& n) {
  n.prime(kLeft);
  n.offer(kLeft, 2);  // a complete record at (20, 5)
  return 20;
}

// The arrivals themselves.
void install_left(Node& n) { n.install(kLeft); }
void transfer_left(Node& n) {
  AcceptKeyGroup in;
  in.group = kLeft;
  in.parent = kParent;
  in.epoch = 3;  // below the retired line
  n.server.deliver(kParent, in);
}
void load_check(Node& n) { n.server.run_load_check(); }
void split_root(Node& n) { EXPECT_TRUE(n.server.force_split(kRoot)); }
void promote_left(Node& n) { EXPECT_TRUE(n.server.promote_replica(kLeft)); }

TEST(GroupSeams, EveryArrivalStartsALineAboveTheRetiredOneAndReplicates) {
  struct Arrival {
    const char* name;
    KeyGroup group;
    std::uint64_t (*setup)(Node&);
    void (*arrive)(Node&);
  };
  const Arrival arrivals[] = {
      {"install", kLeft, retired_left, install_left},
      {"transfer", kLeft, retired_left, transfer_left},
      {"merge", kRoot, root_split_in_two, load_check},
      {"split left", kLeft, retired_left_under_root, split_root},
      {"split right kept local", kRight, retired_right_under_root, split_root},
      {"promotion", kLeft, retired_left_with_record, promote_left},
  };
  for (const Arrival& a : arrivals) {
    SCOPED_TRACE(a.name);
    Node n;
    const std::uint64_t before = a.setup(n);
    n.env.clear();
    a.arrive(n);

    const ServerTableEntry* entry = n.server.table().find(a.group);
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(entry->active);
    const auto head = n.server.log_head(a.group);
    ASSERT_TRUE(head.has_value());
    EXPECT_GT(head->epoch, before);
    // The baseline on disk anchors the new line.
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(n.backend.read_file(storage::snapshot_path("snap", a.group),
                                    bytes));
    storage::SnapshotImage img;
    ASSERT_TRUE(storage::decode_snapshot(bytes, img));
    EXPECT_EQ(img.head.epoch, head->epoch);
    EXPECT_TRUE(n.env.offered(kHolderA, a.group));
    EXPECT_TRUE(n.env.offered(kHolderB, a.group));
  }
}

// Departure set-ups: the departing group is active with one unacked
// ReplAppend, so its kReplAppend op is open.
void left_with_stream(Node& n) {
  n.install(kLeft);
  n.put(1, 0x10);
}
void right_held_for_parent(Node& n) {
  n.install(kRight, /*root=*/false, kParent);
  n.put(1, 0x90);
}
void root_split_with_left_stream(Node& n) {
  n.install(kRoot, /*root=*/true);
  EXPECT_TRUE(n.server.force_split(kRoot));
  n.put(1, 0x10);
}
void root_with_stream(Node& n) {
  n.install(kRoot, /*root=*/true);
  n.put(1, 0x10);
}

// The departures themselves.
void remove_last_stream(Node& n) {
  n.server.remove_stream(ClientId{1}, Key(0x10, kWidth));
}
void reclaim_right(Node& n) {
  n.server.deliver(kParent, ReclaimKeyGroup{kRight});
}
void hand_off(Node& n) {
  n.env.lookup_owner = kAway;
  EXPECT_EQ(n.server.handoff_groups(kAway), 1u);
}

TEST(GroupSeams, EveryDepartureDropsTheReplicasAndClosesTheLog) {
  struct Departure {
    const char* name;
    KeyGroup group;
    void (*setup)(Node&);
    void (*depart)(Node&);
  };
  const Departure departures[] = {
      {"gc", kLeft, left_with_stream, remove_last_stream},
      {"reclaim", kRight, right_held_for_parent, reclaim_right},
      {"merge", kLeft, root_split_with_left_stream, load_check},
      {"handoff", kLeft, left_with_stream, hand_off},
      {"split", kRoot, root_with_stream, split_root},
  };
  for (const Departure& d : departures) {
    SCOPED_TRACE(d.name);
    Node n;
    d.setup(n);
    ASSERT_NE(n.server.group_log(d.group), nullptr);
    ASSERT_EQ(n.env.open_ops(obs::OpKind::kReplAppend), 1u);
    n.env.clear();
    d.depart(n);

    const ServerTableEntry* entry = n.server.table().find(d.group);
    EXPECT_TRUE(entry == nullptr || !entry->active);
    EXPECT_TRUE(n.env.dropped_at_set(d.group));
    EXPECT_EQ(n.server.group_log(d.group), nullptr);
    EXPECT_EQ(n.env.open_ops(d.group), 0u);
  }
}

TEST(ContentFence, ZeroedCrcSlotDoesNotBypassTheReplicaFence) {
  Node n;
  n.offer(kLeft, 2);  // a complete record at (20, 5)
  ASSERT_NE(n.server.replica_state(kLeft), nullptr);
  const ClientId source{1};
  ReplAppend m;
  m.group = kLeft;
  m.owner = kOwner;
  m.epoch = 20;
  m.base_seq = 5;
  m.entries.push_back(
      repl::LogOp::put_stream({source, Key(0x10, kWidth), 2.5}));
  wire::Writer w;
  wire::encode_message(w, Message(m));
  auto bytes = w.take();
  // Zero the CRC slot, then alter the stream rate: the entry ends the
  // payload, so the rate is its last 8 bytes, and the flip makes
  // 2.5 read 3.5.
  wire::store_u32_le(bytes.data() + 1, 0);
  bytes[bytes.size() - 2] ^= 0x08;
  const auto decoded = wire::decode_message(bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(std::get<ReplAppend>(decoded.value()).entries[0].stream.rate,
            3.5);

  const auto rejected = n.server.stats().corrupt_rejected;
  n.server.deliver(kOwner, decoded.value());
  EXPECT_EQ(n.server.stats().corrupt_rejected, rejected + 1);
  EXPECT_EQ(n.server.replica_head(kLeft), (repl::LogHead{20, 5}));
  const GroupState& state = *n.server.replica_state(kLeft);
  EXPECT_TRUE(state.streams.find(source) == state.streams.end());
}

}  // namespace
}  // namespace clash
