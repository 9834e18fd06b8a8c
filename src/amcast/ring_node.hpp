// Baseline: Delporte-Gallet & Fauconnier, "Fault-tolerant genuine atomic
// multicast to multiple groups" (OPODIS 2000) — the paper's reference [4].
//
// The destination groups of m form a deterministic ring g1 < g2 < ... < gk
// (ascending group id). g1 runs consensus to define m's final timestamp and
// hands m over to g2; every subsequent group runs consensus to accept m (and
// pushes its clock past the timestamp) and forwards it; gk finally sends an
// acknowledgment to all destination groups, after which m may be delivered.
// Crucially, "before handling other messages, every group waits for the
// final acknowledgment from gk": each group processes its messages strictly
// one at a time, which is what makes the delivery order acyclic — and what
// makes the latency degree grow linearly in k:
//     1 (reach g1) + (k-1) (handovers) + 1 (ack)  =  k + 1.
// Inter-group message complexity is O(k d^2) (d^2 per handover hop, all
// members of a group forward to all members of the next, for fault
// tolerance). Figure 1a contrasts this with A1's degree 2 at O(k^2 d^2):
// the two algorithms sit on opposite sides of a latency/bandwidth tradeoff.
//
// A message's state (candidate, agreed entry, forwarded and acked marks)
// leaves at its A-Delivery; a later copy of any kind, gk's other acks
// included, stops at XcastNode::ordered().
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>

#include "common/consensus_value.hpp"
#include "core/stack_node.hpp"

namespace wanmc::amcast {

struct RingPayload final : Payload {
  enum class Kind : uint8_t { kStart, kHandover, kAck };
  Kind kind = Kind::kStart;
  AppMsgPtr msg;
  uint64_t ts = 0;  // final timestamp (handover / ack)

  RingPayload(Kind k, AppMsgPtr m, uint64_t t)
      : kind(k), msg(std::move(m)), ts(t) {}
  [[nodiscard]] Layer layer() const override { return Layer::kProtocol; }
};

class RingNode final : public core::XcastNode {
 public:
  RingNode(exec::Context& rt, ProcessId pid, const core::StackConfig& cfg);

  void xcast(const AppMsgPtr& m) override;

 protected:
  void onProtocolMessage(ProcessId from, const PayloadPtr& p) override;

  // Bootstrap snapshot surface: clock, candidate set, the group-agreed
  // processing queue and its forwarded/acked bookkeeping.
  [[nodiscard]] std::shared_ptr<bootstrap::ProtocolState>
  snapshotProtocolState() const override;
  void installProtocolState(const bootstrap::Snapshot& s) override;
  void resumeAfterInstall() override;

 private:
  struct Cand {
    AppMsgPtr msg;
    bool defined = false;  // true once a timestamp travels with it
    uint64_t ts = 0;
  };

  struct BootState final : bootstrap::ProtocolState {
    uint64_t K = 1;
    uint64_t propK = 1;
    std::map<MsgId, Cand> candidates;
    std::deque<MsgId> queue;
    std::map<MsgId, Cand> agreed;
    std::set<MsgId> acked;
    std::set<MsgId> forwarded;
    [[nodiscard]] uint64_t approxBytes() const override;
  };

  [[nodiscard]] static GroupId firstGroup(const AppMessage& m) {
    return m.dest.groups().front();
  }
  // Group after `g` on m's ring, or kNoGroup when g == gk.
  [[nodiscard]] static GroupId nextGroup(const AppMessage& m, GroupId g);

  void noteCandidate(const AppMsgPtr& m, bool defined, uint64_t ts);
  void tryPropose();
  void drainDecisions();
  void handleDecided(uint64_t k, const A1EntrySet& entries);
  // The head of the process queue may now be forwardable / deliverable.
  void pumpQueue();

  consensus::ConsensusService* groupConsensus_ = nullptr;

  uint64_t K_ = 1;
  uint64_t propK_ = 1;
  std::map<MsgId, Cand> candidates_;          // not yet agreed by the group
  std::deque<MsgId> queue_;                   // group-agreed processing order
  std::map<MsgId, Cand> agreed_;              // decided messages + final ts
  std::set<MsgId> acked_;
  std::set<MsgId> forwarded_;
  MemberLists peers_{topology(), pid()};  // kStart: g1's members minus self
  MemberLists ackDests_{topology()};  // gk's ack: m's addressees outside gk
};

}  // namespace wanmc::amcast
