#include "membership/view.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace clash::membership {

MembershipView::MembershipView(ServerId self, ViewConfig cfg)
    : self_(self), cfg_(cfg) {}

void MembershipView::add_seed(ServerId id) {
  if (id == self_ || !id.valid()) return;
  members_.try_emplace(id);
}

unsigned MembershipView::transmit_budget() const {
  const double n = double(members_.size() + 1);
  const double budget =
      std::ceil(cfg_.dissemination_factor * std::log2(n + 1.0));
  return std::max(1u, unsigned(budget));
}

void MembershipView::enqueue(const MemberUpdate& update) {
  for (auto& r : queue_) {
    if (r.update.subject == update.subject) {
      r.update = update;
      r.transmits_left = transmit_budget();
      return;
    }
  }
  queue_.push_back(Rumour{update, transmit_budget()});
}

void MembershipView::record_transition(ServerId id, MemberState before,
                                       MemberState after) {
  if (before != MemberState::kDead && after == MemberState::kDead) {
    died_.push_back(id);
  } else if (before == MemberState::kDead && after != MemberState::kDead) {
    joined_.push_back(id);
  }
}

bool MembershipView::apply(const MemberUpdate& update) {
  if (!update.subject.valid()) return false;

  // Rumours about self: alive at <= our incarnation is stale noise;
  // suspect/dead at >= our incarnation must be refuted with a fresher
  // alive (SWIM's incarnation bump), or routing would drop a live node.
  // A stale accusation is answered too, without a bump: its sender may
  // never have heard our last refutation (a healed partition).
  if (update.subject == self_) {
    if (update.state == MemberState::kAlive) return false;
    const bool refute = update.incarnation >= self_inc_;
    if (refute) self_inc_ = update.incarnation + 1;
    enqueue(MemberUpdate{self_, MemberState::kAlive, self_inc_});
    return refute;
  }

  const auto it = members_.find(update.subject);
  if (it == members_.end()) {
    // Unknown subject: alive/suspect introduces a join; a dead rumour
    // is still worth recording (and spreading) so late joiners do not
    // resurrect the member by accident.
    members_[update.subject] =
        MemberInfo{update.state, update.incarnation};
    if (update.state != MemberState::kDead) joined_.push_back(update.subject);
    enqueue(update);
    return true;
  }

  MemberInfo& info = it->second;
  bool wins = false;
  switch (update.state) {
    case MemberState::kAlive:
      // Alive needs a strictly newer incarnation: refuting a suspicion
      // (or a resurrection after death) requires the subject to bump.
      wins = update.incarnation > info.incarnation;
      break;
    case MemberState::kSuspect:
      wins = update.incarnation > info.incarnation ||
             (update.incarnation == info.incarnation &&
              info.state == MemberState::kAlive);
      break;
    case MemberState::kDead:
      // Death is incarnation-gated too: a dead rumour older than the
      // subject's current incarnation already lost to a refutation (or
      // restart) and must not re-kill it, or stale rumours circulating
      // in the gossip mesh would make a rejoin flap forever.
      wins = info.state != MemberState::kDead &&
             update.incarnation >= info.incarnation;
      break;
  }
  if (!wins) return false;

  record_transition(update.subject, info.state, update.state);
  info.state = update.state;
  info.incarnation = std::max(info.incarnation, update.incarnation);
  enqueue(MemberUpdate{update.subject, info.state, info.incarnation});
  return true;
}

void MembershipView::suspect(ServerId id) {
  const auto it = members_.find(id);
  if (it == members_.end() || it->second.state != MemberState::kAlive) return;
  it->second.state = MemberState::kSuspect;
  enqueue(MemberUpdate{id, MemberState::kSuspect, it->second.incarnation});
}

void MembershipView::declare_dead(ServerId id) {
  const auto it = members_.find(id);
  if (it == members_.end() || it->second.state == MemberState::kDead) return;
  record_transition(id, it->second.state, MemberState::kDead);
  it->second.state = MemberState::kDead;
  enqueue(MemberUpdate{id, MemberState::kDead, it->second.incarnation});
}

std::vector<MemberUpdate> MembershipView::pick_updates(std::size_t max) {
  // Least-transmitted first, so fresh rumours get on the wire before
  // nearly-exhausted ones.
  std::stable_sort(queue_.begin(), queue_.end(),
                   [](const Rumour& a, const Rumour& b) {
                     return a.transmits_left > b.transmits_left;
                   });
  std::vector<MemberUpdate> out;
  for (auto& r : queue_) {
    if (out.size() >= max) break;
    out.push_back(r.update);
    --r.transmits_left;
  }
  std::erase_if(queue_, [](const Rumour& r) { return r.transmits_left == 0; });
  return out;
}

std::vector<ServerId> MembershipView::take_died() {
  return std::exchange(died_, {});
}

std::vector<ServerId> MembershipView::take_joined() {
  return std::exchange(joined_, {});
}

bool MembershipView::knows(ServerId id) const {
  return id == self_ || members_.count(id) > 0;
}

MemberState MembershipView::state_of(ServerId id) const {
  if (id == self_) return MemberState::kAlive;
  const auto it = members_.find(id);
  return it == members_.end() ? MemberState::kDead : it->second.state;
}

std::uint64_t MembershipView::incarnation_of(ServerId id) const {
  if (id == self_) return self_inc_;
  const auto it = members_.find(id);
  return it == members_.end() ? 0 : it->second.incarnation;
}

std::vector<ServerId> MembershipView::probe_candidates() const {
  std::vector<ServerId> out;
  out.reserve(members_.size());
  for (const auto& [id, info] : members_) {
    if (info.state != MemberState::kDead) out.push_back(id);
  }
  return out;
}

std::vector<ServerId> MembershipView::dead_members() const {
  std::vector<ServerId> out;
  for (const auto& [id, info] : members_) {
    if (info.state == MemberState::kDead) out.push_back(id);
  }
  return out;
}

std::vector<ServerId> MembershipView::living_members() const {
  auto out = probe_candidates();
  out.push_back(self_);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace clash::membership
