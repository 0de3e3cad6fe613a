// MembershipView: one server's knowledge of the cluster (SWIM's member
// list). Every member carries an incarnation-numbered lifecycle state;
// conflicting rumours are resolved by the SWIM precedence rules, and
// every local change is queued for bounded piggybacked dissemination
// (each rumour rides on O(log S) outgoing gossip messages).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "clash/messages.hpp"
#include "common/types.hpp"

namespace clash::membership {

struct ViewConfig {
  /// Retransmit budget multiplier: each queued rumour is piggybacked on
  /// ceil(dissemination_factor * log2(n + 1)) outgoing messages (SWIM's
  /// lambda). Raising it trades bandwidth for faster/safer spread.
  double dissemination_factor = 3.0;
};

class MembershipView {
 public:
  MembershipView(ServerId self, ViewConfig cfg = {});

  [[nodiscard]] ServerId self() const { return self_; }
  [[nodiscard]] std::uint64_t self_incarnation() const { return self_inc_; }

  /// Install an initial member (bootstrap address book). Seeds start
  /// alive at incarnation 0 and are not gossiped (everyone has them).
  void add_seed(ServerId id);

  // --- Rumour application (SWIM 4.2 precedence) ----------------------
  /// Apply a received rumour. Returns true when it changed local
  /// knowledge (and was therefore queued for re-dissemination).
  /// Rumours about self that claim suspect/dead are refuted by bumping
  /// the local incarnation and gossiping a fresher alive.
  bool apply(const MemberUpdate& update);

  // --- Local failure-detector verdicts -------------------------------
  /// Probe failure: mark `id` suspect at its current incarnation.
  void suspect(ServerId id);
  /// Suspicion timeout: declare `id` dead.
  void declare_dead(ServerId id);

  // --- Dissemination --------------------------------------------------
  /// Up to `max` queued rumours to piggyback on one outgoing message,
  /// least-transmitted first; decrements their remaining budget.
  [[nodiscard]] std::vector<MemberUpdate> pick_updates(std::size_t max);

  [[nodiscard]] std::size_t pending_rumours() const { return queue_.size(); }

  // --- Events (drained by the driver) ---------------------------------
  /// Members declared dead (locally or via gossip) since the last call.
  [[nodiscard]] std::vector<ServerId> take_died();
  /// Members that joined or came back from the dead since the last call.
  [[nodiscard]] std::vector<ServerId> take_joined();

  // --- Introspection ---------------------------------------------------
  [[nodiscard]] bool knows(ServerId id) const;
  [[nodiscard]] MemberState state_of(ServerId id) const;
  [[nodiscard]] std::uint64_t incarnation_of(ServerId id) const;
  /// Non-dead members excluding self: the failure detector's targets.
  [[nodiscard]] std::vector<ServerId> probe_candidates() const;
  /// Members held dead (reconnect targets).
  [[nodiscard]] std::vector<ServerId> dead_members() const;
  /// Non-dead members including self: the ring the cluster should run.
  [[nodiscard]] std::vector<ServerId> living_members() const;
  [[nodiscard]] std::size_t member_count() const { return members_.size(); }

 private:
  struct MemberInfo {
    MemberState state = MemberState::kAlive;
    std::uint64_t incarnation = 0;
  };
  struct Rumour {
    MemberUpdate update;
    unsigned transmits_left = 0;
  };

  /// Queue (or supersede) a rumour for dissemination.
  void enqueue(const MemberUpdate& update);
  [[nodiscard]] unsigned transmit_budget() const;
  void record_transition(ServerId id, MemberState before, MemberState after);

  ServerId self_;
  ViewConfig cfg_;
  std::uint64_t self_inc_ = 0;
  std::map<ServerId, MemberInfo> members_;  // excludes self
  std::vector<Rumour> queue_;
  std::vector<ServerId> died_;
  std::vector<ServerId> joined_;
};

}  // namespace clash::membership
