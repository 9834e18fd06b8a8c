// Algorithm A2 — atomic broadcast with latency degree 1 (paper §5).
//
// Processes execute a sequence of rounds. In round K:
//   1. inside each group, consensus defines the group's *bundle*: the set of
//      messages R-Delivered but not yet A-Delivered (possibly empty);
//   2. every process sends its group's bundle to all processes of the other
//      groups and waits for one bundle per remote group;
//   3. the union of all bundles is A-Delivered in a deterministic order.
//
// The protocol is *proactive*: rounds run even when nothing was broadcast —
// that is what buys latency degree 1 (Theorem 5.1), which no quiescent or
// genuine-multicast algorithm can achieve (Prop. 3.1-3.3). It is still
// *quiescent* (Prop. A.9): a round that delivers nothing does not raise
// Barrier, and a process only starts round K if it has undelivered messages
// or K <= Barrier. Prediction mistakes are tolerated: a bundle received for
// round x raises Barrier to x, which restarts rounds on groups that had
// stopped — those runs pay latency degree 2 (Theorem 5.2), matching the
// quiescence lower bound. A process stops after the first round that
// delivers nothing, the paper's rule; §5.3's remark that other prediction
// strategies "could be used" is not implemented.
//
// The same node is the non-genuine multicast of the paper's introduction
// (ProtocolKind::kViaBcast): every process orders every message, and
// XcastNode::adeliver A-Delivers it at its addressees only.
//
// A message leaves RDELIVERED \ ADELIVERED at its A-Delivery and a round's
// bundles leave when the round completes. Every member of a group ships
// the same bundle, so a copy that arrives for a completed round is dropped.
#pragma once

#include <cstdint>
#include <map>

#include "common/consensus_value.hpp"
#include "core/stack_node.hpp"

namespace wanmc::abcast {

// (K, msgSet) of line 15: a group's bundle for round K.
struct BundlePayload final : Payload {
  uint64_t round = 0;
  MsgBundle msgs;
  GroupId fromGroup = kNoGroup;

  BundlePayload(uint64_t r, MsgBundle b, GroupId g)
      : round(r), msgs(std::move(b)), fromGroup(g) {}
  [[nodiscard]] Layer layer() const override { return Layer::kProtocol; }
};

class A2Node : public core::XcastNode {
 public:
  A2Node(exec::Context& rt, ProcessId pid, const core::StackConfig& cfg);

  // A-BCast m (Task 1, lines 4-5): R-MCast m to the sender's own group.
  void xcast(const AppMsgPtr& m) override;

  // Introspection for tests / benches.
  [[nodiscard]] uint64_t round() const { return K_; }
  [[nodiscard]] uint64_t barrier() const { return barrier_; }
  [[nodiscard]] uint64_t roundsExecuted() const { return roundsExecuted_; }
  [[nodiscard]] uint64_t usefulRounds() const { return usefulRounds_; }
  [[nodiscard]] bool quiescentNow() const {
    // True when this process would not start another round on its own.
    return rdelivered_.empty() && K_ > barrier_ && propK_ <= K_;
  }

 protected:
  void onProtocolMessage(ProcessId from, const PayloadPtr& p) override;

  // Bootstrap snapshot surface: round/barrier clocks, the
  // RDELIVERED-minus-ADELIVERED working set and the buffered bundles; the
  // group's decisions travel in the snapshot's consensus part, ADELIVERED
  // in its ordered ids.
  [[nodiscard]] std::shared_ptr<bootstrap::ProtocolState>
  snapshotProtocolState() const override;
  void installProtocolState(const bootstrap::Snapshot& s) override;
  void resumeAfterInstall() override;

 private:
  struct BootState final : bootstrap::ProtocolState {
    uint64_t K = 1;
    uint64_t propK = 1;
    uint64_t barrier = 0;
    std::map<MsgId, AppMsgPtr> rdelivered;
    std::map<uint64_t, std::map<GroupId, MsgBundle>> msgs;
    [[nodiscard]] uint64_t approxBytes() const override;
  };

  // Task 4 guard (line 11).
  void tryPropose();
  void drainDecisions();
  // Lines 15-23, entered when the decision for round K_ is available.
  void handleDecided(uint64_t k, const MsgBundle& bundle);
  // Line 16: complete round K_ once one bundle per group is present.
  void tryCompleteRound();

  consensus::ConsensusService* groupConsensus_ = nullptr;

  uint64_t K_ = 1;
  uint64_t propK_ = 1;
  uint64_t barrier_ = 0;
  // RDELIVERED \ ADELIVERED, by id; ADELIVERED is XcastNode::ordered.
  std::map<MsgId, AppMsgPtr> rdelivered_;
  // Msgs: round -> group -> bundle, for rounds K_ and above.
  std::map<uint64_t, std::map<GroupId, MsgBundle>> msgs_;
  bool awaitingBundles_ = false;  // decided round K_, waiting for line 16
  MemberLists otherGroups_{topology()};  // line 15's addressees

  uint64_t roundsExecuted_ = 0;
  uint64_t usefulRounds_ = 0;
};

}  // namespace wanmc::abcast
