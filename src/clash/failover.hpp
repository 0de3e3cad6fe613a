// NodeHost: one CLASH server, that server's ring, and the failover
// rule, hosted the same way by both transports (net::ClashNode owns
// one; sim::SimCluster owns one per server). The ring is the server's
// view of membership, and it changes only through member_died,
// member_joined and restore. Each changes the ring first and then runs
// the failover scan, so no caller can move a ring without failing over.
//
// The rule: adopt each replica record whose group the ring maps here
// and whose owner is off the ring. Every call rescans every record, and
// with replication off there are none to adopt.
//
// A ring is immutable once a host holds it. A host derives a new ring
// only when its own view changes, and hosts whose views agree share one
// (ChordRing::with / without).
#pragma once

#include <memory>
#include <set>

#include "clash/server.hpp"
#include "dht/chord.hpp"

namespace clash {

class NodeHost {
 public:
  using Ring = std::shared_ptr<const dht::ChordRing>;

  /// Hosts server `id` over `env`; `ring` is its initial view.
  NodeHost(ServerId id, const ClashConfig& cfg, ServerEnv& env, Ring ring);
  NodeHost(const NodeHost&) = delete;  // timers hold this

  [[nodiscard]] ClashServer& server() { return server_; }
  [[nodiscard]] const ClashServer& server() const { return server_; }
  [[nodiscard]] const dht::ChordRing& ring() const { return *ring_; }

  /// `id` left this server's view: drop it from the ring, then adopt
  /// what the rule allows. No-op for this server's own id or a member
  /// already off the ring.
  void member_died(ServerId id);
  /// `id` joined this server's view: add it to the ring, then hand it,
  /// with full state, the active groups the ring now maps to it.
  /// Returns the number of groups moved.
  std::size_t member_joined(ServerId id);
  /// Install the server's durable image as records naming itself as
  /// owner, then re-adopt those the ring maps here. Returns the number
  /// of groups restored.
  std::size_t restore();
  /// One LOAD_CHECK_PERIOD tick. Views re-merge one member at a time,
  /// which can leave a group away from its ring owner, or active on
  /// both sides: hand each active group the ring maps to another member
  /// over to it (the receiver's epoch fence merges the copies). Drop
  /// the replica records the ring no longer places here (a superseded
  /// line's copies). Then run the server's load check.
  void run_load_check();

 private:
  enum class Rule { kOwnerOffRing, kOwnerIsSelf };

  [[nodiscard]] dht::HashKey hash_of(const KeyGroup& group) const {
    return ring_->hasher().hash_key(group.virtual_key());
  }
  [[nodiscard]] bool adoptable(const KeyGroup& group, Rule rule) const;
  void scan(Rule rule);

  ServerEnv& env_;
  Ring ring_;
  SimDuration grace_;
  ClashServer server_;
};

}  // namespace clash
