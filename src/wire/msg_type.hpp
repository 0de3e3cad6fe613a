// The wire discriminant of each protocol message. Every Message
// alternative (clash/messages.hpp) names its own as `kType`, so the
// codec derives both its encode and its decode dispatch from the
// variant: one tag per payload struct, one payload struct per tag.
#pragma once

#include <cstdint>

namespace clash::wire {

/// Message discriminants on the wire (stable across versions).
enum class MsgType : std::uint8_t {
  kAcceptObject = 1,
  kAcceptObjectOk = 2,
  kIncorrectDepth = 3,
  kAcceptKeyGroup = 4,
  kAcceptKeyGroupAck = 5,
  kLoadReport = 6,
  kReclaimKeyGroup = 7,
  kReclaimAck = 8,
  kReclaimRefused = 9,
  // 10 is retired (the removed lease-replication refresh): it decodes
  // as a protocol error and must never be reused for a new message.
  kDropReplica = 11,
  kGossip = 12,
  // Replication & recovery subsystem (src/repl/).
  kReplAppend = 13,
  kReplAck = 14,
  kSnapshotOffer = 15,
  kSnapshotChunk = 16,
  kAntiEntropyProbe = 17,
  kAntiEntropyDiff = 18,
};

}  // namespace clash::wire
