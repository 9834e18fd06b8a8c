// Order-state snapshots: what a live peer hands a rejoining incarnation.
//
// The crash-recovery model (fault plane v2) rebuilds a crashed process as a
// FRESH node with no stable storage: an amnesiac rejoin. Without help it can
// never re-deliver the history its dead incarnation saw, and several stacks
// stall outright (a rejoined merge subscriber waits forever for publisher
// sequence numbers it missed). The bootstrap plane (bootstrap.hpp) closes
// that gap with a state transfer: a live peer serializes its order state
// into a Snapshot, the rejoiner installs it, replays the delivery suffix it
// missed, and resumes as a full protocol participant.
//
// A Snapshot has four protocol-agnostic parts — the consensus decisions per
// scope, the reliable-multicast delivered set, the ids of every message the
// donor's order has fixed, and the donor's A-Deliver history in delivery
// order (the "suffix" the rejoiner replays) — plus one opaque,
// protocol-owned ProtocolState blob (clocks, pending tables, sequencer
// assignments, merge stream frontiers...). The plane only moves
// snapshots around; their content is the business of the stack that made
// them.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/consensus_value.hpp"
#include "common/ids.hpp"
#include "common/message.hpp"

namespace wanmc::bootstrap {

// Opaque per-protocol order state. Each protocol node subclasses this in
// its own translation unit (the donor and the rejoiner run the same class,
// so the concrete type never needs to cross a module boundary) and
// downcasts at install time. approxBytes feeds the snapshot-size metric:
// the simulator never serializes for real, so the estimate stands in for
// the bytes a wire transfer would move.
struct ProtocolState {
  virtual ~ProtocolState() = default;
  [[nodiscard]] virtual uint64_t approxBytes() const = 0;
};

// Decided consensus instances of one scope (group id, or a Rodrigues98
// per-message scope). Installed silently: the donor's ProtocolState already
// reflects every decision's effect, so re-firing decide callbacks at the
// rejoiner would double-apply them.
struct ConsensusScopeState {
  uint64_t scope = 0;
  std::vector<std::pair<uint64_t, ConsensusValue>> decisions;  // ascending
};

struct Snapshot {
  // Group of the donating process. Group-scoped blob pieces — group
  // clocks, R-Delivered working sets, proposal clocks — describe the
  // DONOR's group; installs only merge them when the donor is a groupmate
  // of the rejoiner (who alone has the donor's group consensus scope).
  GroupId donorGroup = kNoGroup;
  std::vector<ConsensusScopeState> consensus;
  // Messages the donor's reliable-multicast endpoint R-Delivered, installed
  // as silently-delivered so stale wire copies cannot re-enter the rejoined
  // protocol as fresh messages.
  std::vector<AppMsgPtr> rmDelivered;
  // Ascending ids of every message whose order the donor had fixed, batch
  // carriers and messages addressed elsewhere included (XcastNode's
  // ordered set). Merged into the rejoiner's set before its ProtocolState,
  // whose install prunes by them.
  std::vector<MsgId> ordered;
  // The donor's full A-Deliver history, in delivery order. The rejoiner
  // replays the entries addressed to its own group: its new incarnation
  // then owns a delivery sequence order-consistent with the donor's.
  std::vector<AppMsgPtr> suffix;
  std::shared_ptr<const ProtocolState> protocol;  // may be null

  [[nodiscard]] uint64_t approxBytes() const {
    // Rough wire-size model: ids and timestamps at 8 bytes, one AppMessage
    // at header + body. Only relative sizes matter (the metric tracks how
    // snapshot weight grows with history).
    uint64_t b = 0;
    for (const auto& cs : consensus) b += 16 + 24 * cs.decisions.size();
    for (const auto& m : rmDelivered) b += 24 + m->body.size();
    b += 8 * ordered.size();
    for (const auto& m : suffix) b += 24 + m->body.size();
    if (protocol) b += protocol->approxBytes();
    return b;
  }
};

// The surface a protocol stack exposes to the bootstrap plane. XcastNode
// implements it once for all stacks (consensus, rmcast, ordered ids and
// suffix replay) and delegates the protocol-specific blob to per-protocol
// virtuals.
class Participant {
 public:
  virtual ~Participant() = default;
  // Serialize this node's current order state. Called on a live donor; must
  // be a self-contained value copy (the rejoiner mutates its own tables).
  [[nodiscard]] virtual std::shared_ptr<const Snapshot> makeSnapshot() = 0;
  // Install a donor's snapshot and resume the protocol. Returns the number
  // of suffix entries replayed (for the metrics plane).
  virtual size_t installSnapshot(const Snapshot& s) = 0;
  // Raised while this incarnation waits for a snapshot: protocols hold
  // back proposal initiation (not message intake) until the install.
  virtual void setJoining(bool joining) = 0;
};

}  // namespace wanmc::bootstrap
