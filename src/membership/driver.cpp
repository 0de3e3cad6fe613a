#include "membership/driver.hpp"

#include "wire/codec.hpp"

namespace clash::membership {

MembershipDriver::MembershipDriver(ServerId self, MembershipConfig cfg,
                                   MembershipEnv& env, std::uint64_t seed)
    : self_(self),
      cfg_(cfg),
      env_(env),
      view_(self, cfg.view),
      detector_(self, cfg.detector, seed) {}

void MembershipDriver::send(ServerId to, GossipKind kind,
                            std::uint64_t sequence, ServerId target) {
  Gossip msg;
  msg.kind = kind;
  msg.sequence = sequence;
  msg.target = target;
  // A member we hold suspect or dead hears our verdict first, so it
  // can refute with a bumped incarnation (the revival and the
  // partition-heal paths ride on this).
  std::size_t budget = cfg_.gossip_max_updates;
  if (budget > 0 && to != self_ && view_.knows(to) &&
      view_.state_of(to) != MemberState::kAlive) {
    msg.updates.push_back(
        MemberUpdate{to, view_.state_of(to), view_.incarnation_of(to)});
    --budget;
  }
  for (MemberUpdate& update : view_.pick_updates(budget)) {
    msg.updates.push_back(update);
  }
  if (census_ != nullptr) {
    msg.census = census_->pick_records(cfg_.census_max_records);
  }
  msg.checksum = wire::content_crc(msg);  // covers the census too
  env_.gossip_send(to, msg);
}

void MembershipDriver::drain_view_events() {
  for (const ServerId id : view_.take_died()) {
    detector_.forget(id);
    if (census_ != nullptr) census_->forget(id);
    if (const auto it = suspected_at_.find(id);
        it != suspected_at_.end()) {
      detect_periods_.record(period_ - it->second);
      suspected_at_.erase(it);
    }
    env_.on_member_dead(id);
  }
  for (const ServerId id : view_.take_joined()) {
    env_.on_member_joined(id);
  }
}

void MembershipDriver::tick() {
  affinity_.assert_held();
  ++period_;
  if (census_ != nullptr) census_->tick(view_.self_incarnation());

  // Relays whose target never acked are dead weight; the requester has
  // long since timed out on its own schedule.
  std::erase_if(relays_, [&](const auto& kv) {
    return period_ - kv.second.created_period >
           cfg_.detector.ping_timeout_periods +
               cfg_.detector.indirect_timeout_periods + 1;
  });

  // Start / expire suspicion timers. A member entering suspect state
  // (locally or via gossip) gets suspicion_periods to refute before it
  // is declared dead.
  for (const ServerId id : view_.probe_candidates()) {
    if (view_.state_of(id) == MemberState::kSuspect) {
      const auto [it, fresh] = suspected_at_.try_emplace(id, period_);
      if (fresh) {
        env_.on_member_suspected(id);
      } else if (period_ - it->second >= cfg_.suspicion_periods) {
        view_.declare_dead(id);
      }
    } else {
      suspected_at_.erase(id);
    }
  }
  drain_view_events();

  const auto actions = detector_.tick(view_.probe_candidates());
  for (const ServerId target : actions.unresponsive) {
    view_.suspect(target);
    if (suspected_at_.try_emplace(target, period_).second) {
      env_.on_member_suspected(target);
    }
  }
  for (const auto& ping : actions.pings) {
    send(ping.target, GossipKind::kPing, ping.sequence, ping.target);
  }
  for (const auto& [proxy, probe] : actions.ping_reqs) {
    send(proxy, GossipKind::kPingReq, probe.sequence, probe.target);
  }

  // Reconnect: a member held dead may only have been cut off (a healed
  // partition leaves each side holding the other dead, and nobody
  // probes the dead). Now and then ping one, round robin; if it is
  // alive, the exchange tells each side the other's verdict, and both
  // refute (see handle).
  if (period_ % kReconnectPeriods == 0) {
    const auto dead = view_.dead_members();
    if (!dead.empty()) {
      const ServerId to = dead[(period_ / kReconnectPeriods) % dead.size()];
      send(to, GossipKind::kPing, kUntrackedSequence, to);
    }
  }
}

void MembershipDriver::handle(ServerId from, const Gossip& msg) {
  affinity_.assert_held();
  // Corruption fence: a rumour batch damaged in flight but still
  // structurally valid could suspect (or kill) an arbitrary member at
  // an arbitrary incarnation — the worst possible garbage to install.
  // Reject the whole message on checksum mismatch; SWIM's probe
  // redundancy re-delivers the news on the next period.
  if (msg.checksum != 0 && msg.checksum != wire::content_crc(msg)) {
    ++corrupt_rejected_;
    return;
  }

  // Piggybacked rumours first: even a bare ack carries news.
  const std::uint64_t incarnation = view_.self_incarnation();
  for (const MemberUpdate& update : msg.updates) {
    view_.apply(update);
  }
  // Then the census payload, each record against its own CRC fence —
  // the frame fence above already passed, but a record relayed from a
  // third node carries the original publisher's proof, which survives
  // re-framing (and hand-built unchecksummed frames in tests).
  if (census_ != nullptr) {
    for (const NodeCensusRecord& rec : msg.census) {
      if (rec.checksum != 0 &&
          rec.checksum != wire::census_record_crc(rec)) {
        census_->count_crc_reject();
        continue;
      }
      // Death fence: a record for a member this view holds dead is an
      // echo still circulating in the epidemic. Without this check the
      // echoes re-install the tombstoned entry (each relay resets its
      // age), so a dead node's record would never leave the census.
      // Once the member refutes with a bumped incarnation it turns
      // alive here first, and its fresh records absorb normally.
      if (rec.node != self_ &&
          view_.state_of(rec.node) == MemberState::kDead) {
        continue;
      }
      census_->absorb(rec);
    }
  }
  drain_view_events();

  // Answer at once when the sender must hear from us: we just refuted
  // its verdict against us, or we still hold it suspect or dead (our
  // verdict rides first on the reply, see send). A ping's ack does
  // both anyway. Either side may be the only member that can still
  // reach the other (a reconnect exchange).
  if (msg.kind != GossipKind::kPing && from != self_ &&
      (view_.self_incarnation() != incarnation ||
       view_.state_of(from) != MemberState::kAlive)) {
    send(from, GossipKind::kAck, kUntrackedSequence, self_);
  }

  switch (msg.kind) {
    case GossipKind::kPing:
      send(from, GossipKind::kAck, msg.sequence, self_);
      break;
    case GossipKind::kPingReq: {
      // Probe the target on the requester's behalf; the relay entry
      // routes the target's ack back with the requester's sequence.
      const std::uint64_t relay_seq = kRelayBit | next_relay_sequence_++;
      relays_[relay_seq] = Relay{from, msg.sequence, period_};
      send(msg.target, GossipKind::kPing, relay_seq, msg.target);
      break;
    }
    case GossipKind::kAck: {
      const auto relay = relays_.find(msg.sequence);
      if (relay != relays_.end()) {
        send(relay->second.origin, GossipKind::kAck,
             relay->second.origin_sequence, msg.target);
        relays_.erase(relay);
        break;
      }
      detector_.acknowledge(msg.sequence);
      break;
    }
  }
}

}  // namespace clash::membership
