#include "clash/failover.hpp"

#include <algorithm>
#include <vector>

namespace clash {

NodeHost::NodeHost(ServerId id, const ClashConfig& cfg, ServerEnv& env,
                   Ring ring)
    : env_(env),
      ring_(std::move(ring)),
      grace_(cfg.recovery_grace),
      server_(id, cfg, env, ring_->hasher()) {}

void NodeHost::member_died(ServerId id) {
  if (id == server_.id() || !ring_->contains(id)) return;
  ring_ = ring_->without(id);
  scan(Rule::kOwnerOffRing);
}

std::size_t NodeHost::member_joined(ServerId id) {
  if (ring_->contains(id)) return 0;
  ring_ = ring_->with(id);
  return server_.handoff_groups(id);
}

std::size_t NodeHost::restore() {
  const std::size_t restored = server_.restore_from_storage();
  if (restored > 0) scan(Rule::kOwnerIsSelf);
  return restored;
}

void NodeHost::run_load_check() {
  std::set<ServerId> owners;
  for (const ServerTableEntry* e : server_.table().active_entries()) {
    owners.insert(ring_->map(hash_of(e->group)));
  }
  owners.erase(server_.id());
  for (const ServerId to : owners) (void)server_.handoff_groups(to);
  // A record outside the group's owner + replica set is a leftover of
  // a line that moved on (the owner's retirements reach only the set
  // its ring names now).
  for (const KeyGroup& group : server_.replica_groups()) {
    const auto set = ring_->successors(
        hash_of(group), server_.config().replication_factor + 1);
    if (std::find(set.begin(), set.end(), server_.id()) == set.end()) {
      server_.drop_replica(group);
    }
  }
  server_.run_load_check();
}

bool NodeHost::adoptable(const KeyGroup& group, Rule rule) const {
  const auto owner = server_.replica_owner(group);
  if (!owner || ring_->map(hash_of(group)) != server_.id()) {
    return false;
  }
  return rule == Rule::kOwnerIsSelf ? *owner == server_.id()
                                    : !ring_->contains(*owner);
}

void NodeHost::scan(Rule rule) {
  std::vector<KeyGroup> adopt;  // promoting erases records: collect first
  for (const KeyGroup& group : server_.replica_groups()) {
    if (adoptable(group, rule)) adopt.push_back(group);
  }
  for (const KeyGroup& group : adopt) {
    if (!server_.log_replication()) {  // no holder can be fresher
      (void)server_.promote_replica(group);
    } else if (server_.begin_group_recovery(group)) {  // not yet waiting
      // Holders stream a fresher suffix during the grace; re-check then:
      // the owner may be back, or the ring may have moved the group on.
      env_.call_after(grace_, [this, group, rule] {
        if (adoptable(group, rule)) {
          (void)server_.promote_replica(group);
        } else {
          server_.abandon_group_recovery(group);
        }
      });
    }
  }
}

}  // namespace clash
