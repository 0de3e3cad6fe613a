// CLASH protocol messages (Section 5). Plain structs so the same
// handlers run under the simulator (direct dispatch), unit tests, and
// the TCP transport (via wire/codec).
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "clash/objects.hpp"
#include "clash/stats.hpp"
#include "common/types.hpp"
#include "keys/key.hpp"
#include "keys/key_group.hpp"
#include "repl/op.hpp"

namespace clash {

/// Client -> server. The client believes `key`'s group has depth
/// `depth`. `probe_only` resolves without storing (used by lookups).
struct AcceptObject {
  Key key{0, 24};
  unsigned depth = 0;
  ObjectKind kind = ObjectKind::kData;
  QueryId query_id{};     // valid when kind == kQuery
  double stream_rate = 0; // valid when kind == kData (sim rate model)
  ClientId source{};
  bool probe_only = false;
  /// Cross-node correlation id: 0 = untraced, otherwise every span this
  /// object's processing produces (ingest, match, commit, snapshot)
  /// carries the id, on every node it touches.
  std::uint64_t trace_id = 0;
};

/// Server -> client, cases (a) and (b) of Section 5: object accepted;
/// `depth` echoes the correct depth (== request depth in case (a)).
struct AcceptObjectOk {
  unsigned depth = 0;
};

/// Server -> client, case (c): not responsible; `dmin` is the longest
/// prefix match between the key and any ServerTable entry.
struct IncorrectDepth {
  unsigned dmin = 0;
};

/// Parent -> child: transfer responsibility for `group`. Receivers MUST
/// accept (they may immediately split further to shed). Carries the
/// migrated state, including an opaque application payload produced by
/// the AppHooks state-distribution API (Section 7: the game-middleware
/// extension).
struct AcceptKeyGroup {
  KeyGroup group;
  ServerId parent;  // who keeps the parent table entry
  /// Handoff transfers (ring re-admission) preserve the entry's root
  /// flag and lineage; splits always send root == false.
  bool root = false;
  /// Highest log epoch the sender used for the group (0 when it kept no
  /// log); the receiver starts its log strictly above it.
  std::uint64_t epoch = 0;
  std::vector<StreamInfo> streams;
  std::vector<QueryInfo> queries;
  std::vector<std::uint8_t> app_state;
};

struct AcceptKeyGroupAck {
  KeyGroup group;
};

/// Leaf -> server holding the parent entry: periodic load report
/// enabling bottom-up consolidation.
struct LoadReport {
  KeyGroup group;
  double load = 0;       // load units of this group at the reporting leaf
  bool is_leaf = true;   // false once the reporter split the group
};

/// Parent -> right child: reclaim `group` (consolidation). Child
/// accepts only if its entry is still an active leaf.
struct ReclaimKeyGroup {
  KeyGroup group;
};

/// Child -> parent: reclaim accepted; carries migrated-back state.
struct ReclaimAck {
  KeyGroup group;
  std::vector<StreamInfo> streams;
  std::vector<QueryInfo> queries;
  std::vector<std::uint8_t> app_state;
};

/// Child -> parent: reclaim refused (group was split further meanwhile).
struct ReclaimRefused {
  KeyGroup group;
};

/// Owner -> replica holder: the group is no longer active here (split
/// or merged away); discard the replica.
struct DropReplica {
  KeyGroup group;
};

// --- Replication & recovery (src/repl/) -------------------------------

/// Owner (or a repairing peer) -> replica holder: a contiguous log
/// suffix. Entries carry seqs (base_seq, base_seq + entries.size()]
/// under `epoch`; the receiver must sit at (epoch, >= base_seq) to
/// apply (overlap is skipped idempotently), otherwise it answers with
/// a ReplAck{ok: false} naming its real head so the sender can diff
/// it forward.
struct ReplAppend {
  KeyGroup group;
  ServerId owner;  // authoritative owner (may differ from the sender)
  std::uint64_t epoch = 0;
  std::uint64_t base_seq = 0;
  /// Correlation id of the traced operation (if any) in this batch;
  /// 0 = untraced. Lets the replica's apply span join the owner's trace.
  std::uint64_t trace_id = 0;
  std::vector<repl::LogOp> entries;
  /// CRC32 over the encoded content (wire::content_crc) — the
  /// receiver's fence against in-flight byte flips that still decode.
  /// 0 = unchecksummed (legacy senders / hand-built test messages):
  /// the fence is skipped, the epoch/seq gates still apply.
  std::uint32_t checksum = 0;
};

/// Replica -> sender: applied up to `head`. `ok == false` flags an
/// append that could not be applied; the head tells the sender where
/// to diff from.
struct ReplAck {
  KeyGroup group;
  repl::LogHead head;
  bool ok = true;
};

/// Owner (or repairing peer) -> holder: a full snapshot of the group at
/// `head` follows in `total_chunks` SnapshotChunk messages. Carries the
/// replica-record metadata (owner, root flag, lineage parent).
struct SnapshotOffer {
  KeyGroup group;
  ServerId owner;
  repl::LogHead head;
  bool root = false;
  ServerId parent{};
  std::uint32_t total_chunks = 1;
  /// Correlation id for the whole transfer; 0 = untraced.
  std::uint64_t trace_id = 0;
};

/// One slice of an announced snapshot: a batch of streams/queries plus
/// an application-state fragment (fragments concatenate in chunk
/// order). `app_deltas` is non-empty only for peer-built snapshots:
/// opaque application deltas logged after the app fragment was cut,
/// replayed in order at promotion.
struct SnapshotChunk {
  KeyGroup group;
  repl::LogHead head;
  std::uint32_t index = 0;
  std::uint32_t total = 1;
  /// Correlation id echoing the offer's; 0 = untraced.
  std::uint64_t trace_id = 0;
  std::vector<StreamInfo> streams;
  std::vector<QueryInfo> queries;
  std::vector<std::uint8_t> app_state;
  std::vector<std::vector<std::uint8_t>> app_deltas;
  /// Content CRC fence (see ReplAppend::checksum); 0 = unchecksummed.
  std::uint32_t checksum = 0;
};

/// One element of an anti-entropy (epoch, seq) vector.
struct GroupHead {
  KeyGroup group;
  repl::LogHead head;
};

/// Owner -> replica set (anti-entropy timer): "my active groups stand
/// at these heads". Holders that are behind answer AntiEntropyDiff;
/// up-to-date holders stay silent — the steady-state cost is one tiny
/// head vector per period instead of a full state snapshot.
struct AntiEntropyProbe {
  ServerId owner;
  std::vector<GroupHead> heads;
};

/// "I am behind": the receiver (owner or any fresher holder) responds
/// with the missing log suffix (ReplAppend) or a snapshot when the
/// suffix was compacted away. Also the failover pull — a promoting
/// heir sends its replica heads to the surviving holders and installs
/// only after the freshest peer repaired it.
struct AntiEntropyDiff {
  std::vector<GroupHead> behind;
};

// --- SWIM membership (src/membership/) --------------------------------

/// Member lifecycle states disseminated by the membership subsystem.
/// Ordering matters for update precedence: at equal incarnation,
/// kDead > kSuspect > kAlive.
enum class MemberState : std::uint8_t { kAlive = 0, kSuspect = 1, kDead = 2 };

/// One piggybacked membership rumour: `subject` was observed in `state`
/// at `incarnation`. Incarnations are bumped only by the subject itself
/// (to refute suspicion) and totally order conflicting rumours.
struct MemberUpdate {
  ServerId subject{};
  MemberState state = MemberState::kAlive;
  std::uint64_t incarnation = 0;
};

/// SWIM probe messages. Every gossip frame carries a bounded batch of
/// membership updates, so dissemination rides on the failure-detection
/// traffic instead of needing its own.
enum class GossipKind : std::uint8_t {
  kPing = 0,     // are you alive? (direct probe)
  kPingReq = 1,  // please probe `target` on my behalf (indirection)
  kAck = 2,      // `target` is alive; answers ping seq `sequence`
};

// --- Cost census (src/obs/census.*) -----------------------------------

/// One entry of a node's top-K cost ranking: the group and the Gray
/// cost vector its owner metered for it.
struct CensusGroupCost {
  KeyGroup group;
  GroupCost cost;
};

/// One node's periodic self-portrait, disseminated by piggybacking on
/// SWIM gossip exactly like MemberUpdate rumours. (incarnation, seq)
/// totally orders records per node: receivers keep the lexicographic
/// max and drop the rest, so stale records lose and replays are
/// harmless. The per-record CRC fences each record independently of the
/// enclosing Gossip checksum — a record relayed through many frames
/// keeps its own integrity proof.
struct NodeCensusRecord {
  ServerId node{};
  std::uint64_t incarnation = 0;
  std::uint64_t seq = 0;          // bumped by `node` on every refresh
  double load = 0;                // ServerTable load units
  std::uint32_t active_groups = 0;
  std::uint32_t replica_records = 0;
  std::uint64_t queries = 0;
  std::uint64_t streams = 0;
  GroupCost totals;               // sum over ALL groups, not just top-K
  std::vector<CensusGroupCost> top_groups;  // by total_bytes() desc
  /// CRC32 over the encoded record minus this field
  /// (wire::census_record_crc); 0 = unchecksummed.
  std::uint32_t checksum = 0;
};

struct Gossip {
  GossipKind kind = GossipKind::kPing;
  std::uint64_t sequence = 0;  // correlates acks with pending probes
  ServerId target{};           // kPingReq: node to probe; kAck: who acked
  std::vector<MemberUpdate> updates;
  /// Piggybacked cost-census records (obs::Census::pick_records), each
  /// with its own CRC fence. Bounded by MembershipConfig::
  /// census_max_records per frame; empty when no census is attached.
  std::vector<NodeCensusRecord> census;
  /// Content CRC fence (see ReplAppend::checksum); 0 = unchecksummed.
  /// Membership rumours are the highest-blast-radius payload to
  /// corrupt — a flipped incarnation or state could kill an innocent
  /// member cluster-wide — so gossip carries the fence too.
  std::uint32_t checksum = 0;
};

using Message =
    std::variant<AcceptObject, AcceptObjectOk, IncorrectDepth, AcceptKeyGroup,
                 AcceptKeyGroupAck, LoadReport, ReclaimKeyGroup, ReclaimAck,
                 ReclaimRefused, DropReplica, Gossip,
                 ReplAppend, ReplAck, SnapshotOffer, SnapshotChunk,
                 AntiEntropyProbe, AntiEntropyDiff>;

/// Reply to an ACCEPT_OBJECT.
using AcceptObjectReply = std::variant<AcceptObjectOk, IncorrectDepth>;

}  // namespace clash
