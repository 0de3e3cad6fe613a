// The owner's ReplAppend fan-out: one ServerEnv::fan_out call per
// flushed batch, naming the group's replica set without the owner,
// re-read from the ring on every batch, and per group (a split child
// replicates to its own set, not its parent's). A re-epoch sends the
// batch queued under the old line first; a transfer that supersedes a
// recovery session closes the whole session.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "clash/server.hpp"
#include "obs/hub.hpp"

namespace clash {
namespace {

constexpr unsigned kWidth = 8;
const ServerId kSelf{0};

/// Records sends and fan-outs separately, scripts the replica set per
/// ring position, queues deferred work until the test ends the tick
/// (so several ops can share one batch), and has its own clock and hub.
class RecordingEnv final : public ServerEnv {
 public:
  struct FanOut {
    std::vector<ServerId> to;
    Message msg;
  };
  std::vector<std::pair<ServerId, Message>> sent;
  std::vector<FanOut> fan_outs;
  std::map<std::uint64_t, std::vector<ServerId>> sets;  // by ring position
  std::vector<ServerId> default_set;
  std::vector<std::function<void()>> deferred;
  SimTime t{0};
  obs::Hub hub;

  dht::LookupResult dht_lookup(dht::HashKey) override {
    return dht::LookupResult{kSelf, 0};  // splits stay local
  }
  std::vector<ServerId> replica_targets(dht::HashKey h, unsigned) override {
    const auto it = sets.find(h.value);
    return it != sets.end() ? it->second : default_set;
  }
  void send(ServerId to, const Message& msg) override {
    sent.emplace_back(to, msg);
  }
  void fan_out(std::span<const ServerId> to, const Message& msg) override {
    fan_outs.push_back(FanOut{{to.begin(), to.end()}, msg});
  }
  [[nodiscard]] SimTime now() const override { return t; }
  obs::Hub& obs() override { return hub; }
  void defer(std::function<void()> fn) override {
    deferred.push_back(std::move(fn));
  }

  /// End the dispatch tick: run what the server deferred.
  void end_tick() {
    while (!deferred.empty()) {
      auto fns = std::exchange(deferred, {});
      for (auto& fn : fns) fn();
    }
  }

  /// Open in-flight ops of `kind`.
  [[nodiscard]] std::size_t open_ops(obs::OpKind kind) const {
    std::size_t n = 0;
    for (const auto& op : hub.inflight.snapshot()) n += op.kind == kind;
    return n;
  }

  /// The ReplAppend fan-outs recorded so far (and forget them all).
  std::vector<FanOut> take_appends() {
    std::vector<FanOut> out;
    for (auto& f : fan_outs) {
      if (std::holds_alternative<ReplAppend>(f.msg)) out.push_back(f);
    }
    fan_outs.clear();
    sent.clear();
    return out;
  }
};

ClashConfig rf2_config() {
  ClashConfig cfg;
  cfg.key_width = kWidth;
  cfg.initial_depth = 0;
  cfg.capacity = 1e9;
  cfg.replication_factor = 2;
  return cfg;
}

dht::KeyHasher hasher() {
  return dht::KeyHasher(32, dht::KeyHasher::Algo::kMix64, 0);
}

std::uint64_t pos_of(const KeyGroup& g) {
  return hasher().hash_key(g.virtual_key()).value;
}

struct Owner {
  RecordingEnv env;
  ClashServer server{kSelf, rf2_config(), env, hasher()};

  KeyGroup install_root() {
    ServerTableEntry entry;
    entry.group = KeyGroup::root(kWidth);
    entry.root = true;
    entry.active = true;
    server.install_entry(entry);
    env.end_tick();
    return entry.group;
  }

  void put(std::uint64_t source, std::uint64_t key) {
    AcceptObject obj;
    obj.key = Key(key, kWidth);
    obj.kind = ObjectKind::kData;
    obj.source = ClientId{source};
    obj.stream_rate = 1.0;
    (void)server.handle_accept_object(obj);
  }
};

TEST(ReplicaFanOut, OneCallPerBatchNamingTheNonSelfTargets) {
  Owner o;
  // A ring shorter than rf + 1 wraps back to the owner.
  o.env.default_set = {ServerId{3}, kSelf, ServerId{5}};
  const KeyGroup root = o.install_root();
  (void)o.env.take_appends();

  o.put(1, 0x12);
  o.put(2, 0x34);
  o.env.end_tick();
  auto appends = o.env.take_appends();
  ASSERT_EQ(appends.size(), 1u);
  EXPECT_EQ(appends[0].to, (std::vector<ServerId>{ServerId{3}, ServerId{5}}));
  const auto& batch = std::get<ReplAppend>(appends[0].msg);
  EXPECT_EQ(batch.group, root);
  EXPECT_EQ(batch.base_seq, 0u);
  EXPECT_EQ(batch.entries.size(), 2u);

  // The next tick's batch continues the line, again in one call.
  o.put(3, 0x56);
  o.env.end_tick();
  appends = o.env.take_appends();
  ASSERT_EQ(appends.size(), 1u);
  EXPECT_EQ(std::get<ReplAppend>(appends[0].msg).base_seq, 2u);
  EXPECT_EQ(std::get<ReplAppend>(appends[0].msg).entries.size(), 1u);

  // A tick that logged nothing sends nothing.
  o.env.end_tick();
  EXPECT_TRUE(o.env.take_appends().empty());
  for (const auto& [to, msg] : o.env.sent) {
    EXPECT_FALSE(std::holds_alternative<ReplAppend>(msg));
  }
}

TEST(ReplicaFanOut, RingChangeRetargetsTheNextBatch) {
  Owner o;
  o.env.default_set = {ServerId{3}, ServerId{5}};
  (void)o.install_root();
  o.put(1, 0x12);
  o.env.end_tick();
  auto appends = o.env.take_appends();
  ASSERT_EQ(appends.size(), 1u);
  EXPECT_EQ(appends[0].to, (std::vector<ServerId>{ServerId{3}, ServerId{5}}));

  // Server 5 leaves the ring; 6 is the new second successor. Only the
  // group's position is cached, never its targets.
  o.env.default_set = {ServerId{3}, ServerId{6}};
  o.put(2, 0x34);
  o.env.end_tick();
  appends = o.env.take_appends();
  ASSERT_EQ(appends.size(), 1u);
  EXPECT_EQ(appends[0].to, (std::vector<ServerId>{ServerId{3}, ServerId{6}}));
}

TEST(ReplicaFanOut, SplitChildUsesItsOwnReplicaSet) {
  Owner o;
  const KeyGroup root = KeyGroup::root(kWidth);
  const KeyGroup left = root.left_child();
  const KeyGroup right = root.right_child();
  // A left child expands to its parent's virtual key, so it sits at
  // the parent's ring position; the right child has its own.
  ASSERT_EQ(pos_of(root), pos_of(left));
  ASSERT_NE(pos_of(root), pos_of(right));
  o.env.sets[pos_of(root)] = {ServerId{1}, ServerId{2}};
  o.env.sets[pos_of(right)] = {ServerId{5}, ServerId{6}};
  (void)o.install_root();

  // The parent logs first, so its ring position is cached.
  o.put(1, 0x12);
  o.env.end_tick();
  auto appends = o.env.take_appends();
  ASSERT_EQ(appends.size(), 1u);
  EXPECT_EQ(appends[0].to, (std::vector<ServerId>{ServerId{1}, ServerId{2}}));

  // Splitting retires the parent's replicas at the parent's set.
  ASSERT_TRUE(o.server.force_split(root));
  o.env.end_tick();
  std::size_t drops = 0;
  for (const auto& f : o.env.fan_outs) {
    if (const auto* d = std::get_if<DropReplica>(&f.msg)) {
      EXPECT_EQ(d->group, root);
      EXPECT_EQ(f.to, (std::vector<ServerId>{ServerId{1}, ServerId{2}}));
      ++drops;
    }
  }
  EXPECT_EQ(drops, 1u);
  (void)o.env.take_appends();

  o.put(2, 0x80);  // right child "1"
  o.put(3, 0x01);  // left child "0"
  o.env.end_tick();
  appends = o.env.take_appends();
  ASSERT_EQ(appends.size(), 2u);
  std::map<KeyGroup, std::vector<ServerId>> by_group;
  for (const auto& f : appends) {
    by_group[std::get<ReplAppend>(f.msg).group] = f.to;
  }
  EXPECT_EQ(by_group[left], (std::vector<ServerId>{ServerId{1}, ServerId{2}}));
  EXPECT_EQ(by_group[right],
            (std::vector<ServerId>{ServerId{5}, ServerId{6}}));
}

TEST(ReplicaFanOut, ReEpochInsideATickSendsTheOldLineFirst) {
  Owner o;
  o.env.default_set = {ServerId{3}, ServerId{5}};
  const KeyGroup root = o.install_root();
  o.put(1, 0x12);
  o.env.end_tick();
  (void)o.env.take_appends();
  const std::uint64_t old_epoch = o.server.log_head(root)->epoch;

  // One more op queues under the old line, then a higher-epoch copy of
  // the group lands in the same tick and starts a new line.
  o.put(2, 0x34);
  AcceptKeyGroup higher;
  higher.group = root;
  higher.root = true;
  higher.epoch = old_epoch + 4;
  o.server.deliver(ServerId{7}, higher);
  const std::uint64_t new_epoch = o.server.log_head(root)->epoch;
  EXPECT_GT(new_epoch, higher.epoch);

  auto appends = o.env.take_appends();
  ASSERT_EQ(appends.size(), 1u);
  const auto& old_line = std::get<ReplAppend>(appends[0].msg);
  EXPECT_EQ(old_line.epoch, old_epoch);
  EXPECT_EQ(old_line.base_seq, 1u);
  EXPECT_EQ(old_line.entries.size(), 1u);
  o.env.end_tick();
  EXPECT_TRUE(o.env.take_appends().empty());

  o.put(3, 0x56);
  o.env.end_tick();
  appends = o.env.take_appends();
  ASSERT_EQ(appends.size(), 1u);
  const auto& new_line = std::get<ReplAppend>(appends[0].msg);
  EXPECT_EQ(new_line.epoch, new_epoch);
  EXPECT_EQ(new_line.base_seq, 0u);
  EXPECT_EQ(new_line.entries.size(), 1u);
}

TEST(ReplicaFanOut, TransferClosesTheRecoverySessionItSupersedes) {
  Owner o;
  o.env.default_set = {ServerId{3}, ServerId{5}};
  const KeyGroup g = KeyGroup::root(kWidth);
  const ServerId parent{9};

  o.env.t = SimTime{100};
  ASSERT_TRUE(o.server.begin_group_recovery(g));
  EXPECT_EQ(o.env.open_ops(obs::OpKind::kRecoveryPull), 1u);

  // A transfer of the group lands inside the grace window.
  AcceptKeyGroup transfer;
  transfer.group = g;
  transfer.parent = parent;
  o.server.deliver(parent, transfer);
  o.env.end_tick();
  EXPECT_EQ(o.env.open_ops(obs::OpKind::kRecoveryPull), 0u);

  // The group moves on (its parent reclaims it), a replica of it
  // arrives from its next owner, and that owner dies too.
  o.server.deliver(parent, ReclaimKeyGroup{g});
  ASSERT_EQ(o.server.table().find(g), nullptr);
  const repl::LogHead head{7, 0};
  SnapshotOffer offer;
  offer.group = g;
  offer.owner = ServerId{4};
  offer.head = head;
  offer.parent = parent;
  o.server.deliver(ServerId{4}, offer);
  SnapshotChunk chunk;
  chunk.group = g;
  chunk.head = head;
  o.server.deliver(ServerId{4}, chunk);
  o.env.end_tick();
  ASSERT_TRUE(o.server.has_replica(g));

  o.env.t = SimTime{500};
  ASSERT_TRUE(o.server.begin_group_recovery(g));
  o.env.t = SimTime{700};
  ASSERT_TRUE(o.server.promote_replica(g));
  EXPECT_EQ(o.env.open_ops(obs::OpKind::kRecoveryPull), 0u);

  // The failover span times the second session, not the cancelled one.
  std::size_t failovers = 0;
  for (const auto& span : o.env.hub.tracer.spans()) {
    if (span.kind != obs::SpanKind::kFailover) continue;
    ++failovers;
    EXPECT_EQ(span.start_us, 500);
    EXPECT_EQ(span.dur_us, 200);
  }
  EXPECT_EQ(failovers, 1u);
}

}  // namespace
}  // namespace clash
