// Message/operation counters. The simulator aggregates these to produce
// the paper's Figure 5 (messages/sec/server by class) and the split/
// merge/depth statistics behind Figure 4.
#pragma once

#include <cstdint>

namespace clash {

// The single authoritative field list: declarations, arithmetic, and
// name-based iteration (for_each_named feeds the obs exposition) all
// expand from here, so adding a counter touches exactly this table.
#define CLASH_MESSAGE_STATS_FIELDS(X)                                        \
  /* Overlay routing cost: one unit per DHT forwarding hop. */               \
  X(dht_hops)                                                                \
  /* ACCEPT_OBJECT probes and their replies. */                              \
  X(object_probes)                                                           \
  X(object_replies)                                                          \
  /* Group-transfer control traffic. */                                      \
  X(keygroup_transfers)                                                      \
  X(keygroup_acks)                                                           \
  X(load_reports)                                                            \
  X(reclaim_requests)                                                        \
  X(reclaim_replies)                                                         \
  /* Migrated state, in STATE_TRANSFER message units. */                     \
  X(state_transfer_msgs)                                                     \
  /* Fault-tolerance extension traffic. */                                   \
  X(replications)                                                            \
  X(replica_drops)                                                           \
  /* Replication-log traffic (src/repl/, log mode only). */                  \
  X(repl_appends)                                                            \
  X(repl_acks)                                                               \
  X(snapshot_offers)                                                         \
  X(snapshot_chunks)                                                         \
  X(anti_entropy_probes)                                                     \
  X(anti_entropy_diffs)                                                      \
  /* SWIM membership traffic (pings, ping-reqs, acks). Kept out of           \
     control_messages() so Figure 5's message classes stay paper-exact;      \
     bench/abl_membership reports this overhead separately. */               \
  X(gossip_msgs)                                                             \
  /* Protocol events (not messages). */                                      \
  X(splits)                                                                  \
  X(merges)                                                                  \
  X(self_remaps)      /* right child mapped back to self */                  \
  X(merge_refusals)                                                          \
  X(depth_searches)   /* client resolution rounds */                         \
  X(search_restarts)  /* stale-range restarts under churn */                 \
  X(failovers)        /* groups promoted from replicas */                    \
  X(groups_lost)      /* failovers without replica state */                  \
  X(dropped_msgs)     /* sends to dead servers */                            \
  X(handoffs)         /* groups handed back on rejoin */                     \
  X(log_compactions)  /* owner-log cuts; local unless app deltas ship */     \
  X(link_drops)       /* messages eaten by the fault matrix */               \
  X(snapshot_aborts)  /* out-of-sync transfers nacked */                     \
  X(snapshot_offers_ignored) /* dup offers mid-transfer */                   \
  X(corrupt_drops)    /* in-flight corruption made the payload               \
                         undecodable (codec fence ate it) */                 \
  X(corrupt_rejected) /* decoded-valid corruption rejected by the            \
                         receiver's checksum/sanity fences */                \
  X(slow_evictions)   /* live-but-slow members excommunicated */             \
  /* Cost-census records delivered piggybacked on gossip frames. */          \
  X(census_records)                                                          \
  /* Encoded bytes of delivered server->server messages. Populated           \
     only when SimCluster::set_wire_metering is on (bench use); zero         \
     otherwise. */                                                           \
  X(wire_bytes)                                                              \
  /* Encoded bytes of the census payload inside delivered gossip             \
     frames — numerator of the census overhead gate. Wire-metering           \
     only, like wire_bytes. */                                               \
  X(census_bytes)

struct MessageStats {
#define CLASH_STATS_DECLARE(name) std::uint64_t name = 0;
  CLASH_MESSAGE_STATS_FIELDS(CLASH_STATS_DECLARE)
#undef CLASH_STATS_DECLARE

  /// Apply `f(a.field, b.field)` to every field pair — the one place
  /// the arithmetic operators walk the field list.
  template <typename A, typename B, typename F>
  static void zip(A& a, B& b, F&& f) {
#define CLASH_STATS_ZIP(name) f(a.name, b.name);
    CLASH_MESSAGE_STATS_FIELDS(CLASH_STATS_ZIP)
#undef CLASH_STATS_ZIP
  }

  /// Apply `f("field", value)` to every field (exposition, dumps).
  template <typename F>
  void for_each_named(F&& f) const {
#define CLASH_STATS_NAMED(name) f(#name, name);
    CLASH_MESSAGE_STATS_FIELDS(CLASH_STATS_NAMED)
#undef CLASH_STATS_NAMED
  }

  /// Total protocol messages excluding migrated state (Figure 5 case A).
  [[nodiscard]] std::uint64_t control_messages() const {
    return dht_hops + object_probes + object_replies + keygroup_transfers +
           keygroup_acks + load_reports + reclaim_requests + reclaim_replies +
           replications + replica_drops + replication_log_messages();
  }

  /// All traffic of the log-replication subsystem (appends + acks +
  /// snapshots + anti-entropy), reported separately by abl_failover.
  [[nodiscard]] std::uint64_t replication_log_messages() const {
    return repl_appends + repl_acks + snapshot_offers + snapshot_chunks +
           anti_entropy_probes + anti_entropy_diffs;
  }

  /// Total including state transfer (Figure 5 case B).
  [[nodiscard]] std::uint64_t total_messages() const {
    return control_messages() + state_transfer_msgs;
  }

  MessageStats& operator+=(const MessageStats& o) {
    zip(*this, o, [](std::uint64_t& l, std::uint64_t r) { l += r; });
    return *this;
  }

  friend MessageStats operator-(MessageStats a, const MessageStats& b) {
    zip(a, b, [](std::uint64_t& l, std::uint64_t r) { l -= r; });
    return a;
  }
};

/// Per-key-group resource metering — the Gray cost vector (Distributed
/// Computing Economics): what a group costs its owner in compute and
/// bytes, the signal utility-oriented placement will act on. Byte
/// fields are wire-model estimates (structural sizes), not re-encoded
/// payloads, so metering stays free on the hot path.
struct GroupCost {
  std::uint64_t puts = 0;           // objects accepted into the group
  std::uint64_t matches = 0;        // query matches fired
  std::uint64_t bytes_served = 0;   // put/match traffic served to clients
  std::uint64_t repl_bytes = 0;     // replication stream out (appends,
                                    // snapshots, anti-entropy diffs)
  std::uint64_t storage_bytes = 0;  // WAL appends + snapshot files

  GroupCost& operator+=(const GroupCost& o) {
    puts += o.puts;
    matches += o.matches;
    bytes_served += o.bytes_served;
    repl_bytes += o.repl_bytes;
    storage_bytes += o.storage_bytes;
    return *this;
  }
  [[nodiscard]] std::uint64_t total_bytes() const {
    return bytes_served + repl_bytes + storage_bytes;
  }
};

}  // namespace clash
