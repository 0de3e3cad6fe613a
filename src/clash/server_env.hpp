// ServerEnv: the runtime services a ClashServer and its replication
// engine (repl::Replicator) run on. One implementation per substrate:
// the simulator, the unit-test envs, and the TCP deployment layer.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "clash/messages.hpp"
#include "common/sim_time.hpp"
#include "common/types.hpp"
#include "dht/dht.hpp"
#include "keys/key_group.hpp"
#include "obs/hub.hpp"

namespace clash {

/// Runtime services a ClashServer needs. Implementations count the
/// messages they carry (that is how the Figure 5 overheads are
/// measured).
class ServerEnv {
 public:
  virtual ~ServerEnv() = default;

  /// Route `h` through the DHT from this server; the implementation
  /// accounts for the O(log S) overlay hops.
  virtual dht::LookupResult dht_lookup(dht::HashKey h) = 0;

  /// The `n` servers after the owner of `h` on the ring (Chord's
  /// replica set). Empty when the substrate offers no replication.
  [[nodiscard]] virtual std::vector<ServerId> replica_targets(
      dht::HashKey h, unsigned n) {
    (void)h;
    (void)n;
    return {};
  }

  /// Deliver a protocol message to a peer server.
  virtual void send(ServerId to, const Message& msg) = 0;

  /// Deliver one message to each server in `to` (the owner's fan-out
  /// to a group's replica set). Each copy stays one counted, separately
  /// delivered message, so the Figure 5 overheads do not depend on how
  /// a transport encodes. The default sends per target, which the
  /// unit-test envs keep; ClashNode and the simulator encode the frame
  /// once and give each target a copy of the bytes.
  virtual void fan_out(std::span<const ServerId> to, const Message& msg) {
    for (const ServerId target : to) send(target, msg);
  }

  [[nodiscard]] virtual SimTime now() const = 0;

  /// How many more replication SnapshotChunk messages the transport is
  /// willing to carry toward `to` right now. The default (unlimited)
  /// suits the simulator, whose links have no send queue; the TCP
  /// layer derives the budget from the peer connection's outbound
  /// queue depth so huge snapshots never bury a socket, and
  /// ClashServer::pump_snapshots resumes paused transfers as the
  /// queue drains.
  [[nodiscard]] virtual std::size_t snapshot_chunk_budget(ServerId to) {
    (void)to;
    return std::numeric_limits<std::size_t>::max();
  }

  /// Run `fn` at the end of the current dispatch tick — the
  /// transport's write-coalescing boundary (ClashNode's loop tick,
  /// SimCluster's lane). ClashServer uses this to batch the tick's
  /// ReplAppend entries into one frame per group and to group-commit
  /// the tick's WAL records. The inline default serves the envs that
  /// have no tick: the unit-test envs (MockServerEnv and the
  /// replication and recovery test routers).
  virtual void defer(std::function<void()> fn) { fn(); }

  /// Run `fn` once `delay` has passed (the failover grace timer).
  /// ClashNode and SimCluster wait it out. The inline default, which
  /// skips the wait, serves the unit-test envs and
  /// bench/e2e/replay.cpp, which has a tick but no timers.
  virtual void call_after(SimDuration, std::function<void()> fn) { fn(); }

  /// Table-change notifications: `group` became / stopped being an
  /// active leaf on this server. Default no-ops; the simulator uses
  /// them to maintain a global owner index for exact metrics.
  virtual void on_group_activated(const KeyGroup& group) { (void)group; }
  virtual void on_group_deactivated(const KeyGroup& group) { (void)group; }

  /// Where this server's metrics and trace spans go. The default is
  /// the process-global hub (sim substrate, benches); net::ClashNode
  /// overrides with a node-private hub so its stats endpoint serves
  /// exactly one node's view.
  [[nodiscard]] virtual obs::Hub& obs() { return obs::Hub::global(); }
};

}  // namespace clash
