// Reliable multicast: R-MCast / R-Deliver (paper §2.2).
//
// Non-uniform reliable multicast is the substrate A1 and A2 are built on.
// The paper's accounting (Figure 1) charges the [6]-style oracle-based
// primitive d(k-1) inter-group messages and latency degree 1; this
// implementation matches both numbers: the sender sends m directly to every
// process in m.dest (d(k-1) inter-group packets when the sender's group is
// one of the k destinations) and receivers relay intra-group on first sight.
//
// Relay: first sight triggers an intra-group relay only. This guarantees
// agreement among correct processes *within* each group. Cross-group
// agreement when the sender crashes mid-send is deliberately left to the
// layer above: the paper's footnote 4 points out that A1's (TS, m)
// messages "also serve the purpose of propagating m", and A2 only ever
// R-MCasts within the sender's own group.
//
// Uniformity:
//  * kNonUniform (default) — R-Deliver on first sight (latency degree 1).
//  * kUniform — R-Deliver only once copies from a majority of the process's
//    own group have been seen (own relay counts). Delivery still happens at
//    latency degree 1 because the extra hops are intra-group ([6]'s
//    domain-based scheme). Used by the Fritzke-et-al. baseline, which the
//    paper contrasts with A1's non-uniform choice.
//
// Per message, a process keeps one Seen record at a stable address. A table
// indexed by message id (common/id_table.hpp) holds its position, not the
// record, since A2's rmcast sees only its own group's carriers. rmcast
// sends to an addressee list built once per destination set (MemberLists).
// The relay is sent on first sight only, to the own-group peer list; every
// later copy is one table lookup, plus, under kUniform until R-Deliver, a
// scan of the few own-group senders seen so far.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/id_table.hpp"
#include "common/ids.hpp"
#include "common/message.hpp"
#include "exec/context.hpp"

namespace wanmc::rmcast {

struct RmPayload final : Payload {
  AppMsgPtr msg;
  bool isRelay = false;
  // Set by rmcastOwnGroup: the copy travels within the sender's group only,
  // and every process it reaches is an addressee, whatever m->dest says.
  bool ownGroup = false;

  RmPayload(AppMsgPtr m, bool relay, bool own = false)
      : msg(std::move(m)), isRelay(relay), ownGroup(own) {}
  [[nodiscard]] Layer layer() const override {
    return Layer::kReliableMulticast;
  }
};

enum class Uniformity { kNonUniform, kUniform };

class ReliableMulticast {
 public:
  using DeliverCb = std::function<void(const AppMsgPtr&)>;

  ReliableMulticast(exec::Context& rt, ProcessId self,
                    Uniformity uniformity = Uniformity::kNonUniform);

  void onDeliver(DeliverCb cb) { deliverCbs_.push_back(std::move(cb)); }

  // R-MCast m to the processes of the groups in m->dest. The caller need
  // not be a member of any destination group.
  void rmcast(const AppMsgPtr& m);

  // R-MCast m to the caller's own group, whatever m->dest says (A2's
  // line 5).
  void rmcastOwnGroup(const AppMsgPtr& m);

  void onMessage(ProcessId from, const RmPayload& p);

  // Bootstrap plane (src/bootstrap/): a donor exports its R-Delivered
  // messages; the rejoining incarnation installs them as already-delivered
  // and already-relayed, SILENTLY (no deliver callbacks — the protocol
  // state travels separately in the snapshot). Stale wire copies of old
  // messages then dedupe here instead of re-entering the rejoined protocol
  // as fresh R-Delivers. The export is in message-id order.
  [[nodiscard]] std::vector<AppMsgPtr> snapshotDelivered() const {
    std::vector<AppMsgPtr> out;
    seen_.forEach([&](MsgId, uint32_t i) {
      const Seen& s = records_[i / kChunk][i % kChunk];
      if (s.delivered) out.push_back(s.msg);
    });
    return out;
  }
  // An installed entry counts as seen, so it is never relayed again.
  void installDelivered(const std::vector<AppMsgPtr>& msgs) {
    for (const AppMsgPtr& m : msgs) {
      Seen& s = seenOf(m->id).first;
      s.msg = m;
      s.delivered = true;
    }
  }

 private:
  // 48 bytes. Under kUniform an undelivered addressee's record lists the
  // distinct own-group processes other than itself that sent it a copy;
  // the list is released at R-Deliver, and a non-uniform stack never
  // fills it. No bitmask: Topology bounds no group's size.
  struct Seen {
    AppMsgPtr msg;
    std::vector<ProcessId> copiesFrom;
    bool addressee = false;  // fixed on first sight
    bool delivered = false;
  };

  // The record of message `id`, and whether this call created it.
  std::pair<Seen&, bool> seenOf(MsgId id);
  // One copy of m from `copyFrom`; `ownGroup` marks an rmcastOwnGroup
  // copy. The first sight relays m.
  void sight(const AppMsgPtr& m, ProcessId copyFrom, bool ownGroup);
  void relay(Seen& s, bool ownGroup);
  void maybeDeliver(Seen& s);

  exec::Context& rt_;
  ProcessId self_;
  Uniformity uniformity_;
  MemberLists castDests_;         // rmcast's addressees, minus self
  std::vector<ProcessId> peers_;  // own group minus self, ascending pid
  std::vector<DeliverCb> deliverCbs_;
  // Seen records in first-sight order, kChunk to an allocation: a deliver
  // callback may R-MCast while sight() still holds its record.
  static constexpr uint32_t kChunk = 64;
  std::vector<std::unique_ptr<Seen[]>> records_;
  uint32_t recordCount_ = 0;
  IdTable<uint32_t> seen_;  // message id -> record index
};

}  // namespace wanmc::rmcast
