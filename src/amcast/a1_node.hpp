// Algorithm A1 — genuine atomic multicast for WANs (paper §4, Algorithm A1).
//
// Every message m moves through four stages:
//   s0  each destination group runs consensus to fix its timestamp proposal
//       (the proposal is the consensus instance number k = the group clock);
//   s1  groups exchange proposals via (TS, m) messages; the final timestamp
//       is the maximum proposal;
//   s2  groups whose proposal was below the maximum run a second consensus
//       to push their clock past the final timestamp;
//   s3  m is A-Delivered once its (ts, id) is minimal among all pending
//       messages (ADeliveryTest, paper lines 3-7).
//
// A1's contribution over Fritzke et al. [5] is stage skipping:
//   * a message addressed to a single group jumps s0 -> s3 (one consensus);
//   * a group whose proposal equals the final timestamp skips s2 (its clock
//     is already past the final timestamp after line 31).
// [5] is the same code without the skips (A1Variant::kFritzke98), which
// makes A1 vs [5] an apples-to-apples comparison of consensus instances and
// intra-group traffic, the exact savings §4.1/§6 claim.
//
// Latency degree: 2 for messages multicast to >= 2 groups (Theorem 4.1,
// optimal by Prop. 3.1/3.2); 0/1 for single-group messages depending on
// whether the sender belongs to the destination group.
//
// The pending table carries two indexes, kept in step by setPending and
// erasePending: every entry by (ts, id), so ADeliveryTest reads the
// minimum instead of scanning, and the ids of the s0/s2 entries, in id
// order, which is exactly the canonical proposal a new instance takes.
// Decisions arrive as shared values (common/consensus_value.hpp); the
// decision buffer holds them without copying. The A-Delivered ids, which
// every R-Deliver, decided entry and (TS, m) copy checks and which grow
// for the whole run, are a hash set; the snapshot orders them. The (TS, m)
// fan-out reuses one member list per destination set (MemberLists).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/consensus_value.hpp"
#include "core/stack_node.hpp"

namespace wanmc::amcast {

// (TS, m) message of line 24: the sending group's timestamp proposal. It
// also propagates m itself (paper footnote 4): a process that never
// R-Delivered m learns it from the first (TS, m) it receives.
struct TsPayload final : Payload {
  AppMsgPtr msg;
  uint64_t ts = 0;
  GroupId fromGroup = kNoGroup;

  TsPayload(AppMsgPtr m, uint64_t t, GroupId g)
      : msg(std::move(m)), ts(t), fromGroup(g) {}
  [[nodiscard]] Layer layer() const override { return Layer::kProtocol; }
  [[nodiscard]] std::string debugString() const override {
    return "TS(m" + std::to_string(msg->id) + "," + std::to_string(ts) +
           ",g" + std::to_string(fromGroup) + ")";
  }
};

// The two stacks this class runs. They differ in two ways that only ever
// change together:
//   kA1        stage skipping (single-group messages jump s0 -> s3, and a
//              group whose own proposal is the maximum skips s2, line 35)
//              over non-uniform reliable multicast;
//   kFritzke98 [5]: no stage skipping, over uniform reliable multicast.
//              Uniformity comes from majority-of-own-group copies via
//              INTRA-group relays ([6]'s domain-based scheme), which keeps
//              the primitive at latency degree 1 and hence [5] at degree 2,
//              exactly as Figure 1a accounts it.
enum class A1Variant { kA1, kFritzke98 };

class A1Node final : public core::XcastNode {
 public:
  A1Node(exec::Context& rt, ProcessId pid, const core::StackConfig& cfg,
         A1Variant variant);

  // A-MCast m to the groups in m->dest (Task 1, lines 8-9).
  void xcast(const AppMsgPtr& m) override;

  // Introspection for tests / benches.
  [[nodiscard]] uint64_t clock() const { return K_; }
  [[nodiscard]] uint64_t consensusInstancesDecided() const {
    return instancesDecided_;
  }
  [[nodiscard]] size_t pendingCount() const { return pending_.size(); }
  // Messages with timestamp proposals on record; empty once every pending
  // message is A-Delivered.
  [[nodiscard]] size_t stampTableSize() const { return tsProposals_.size(); }
  [[nodiscard]] const consensus::ConsensusService& groupConsensus() const {
    return *groupConsensus_;
  }

 protected:
  void onProtocolMessage(ProcessId from, const PayloadPtr& p) override;

  // Bootstrap snapshot surface (core/stack_node.hpp): the full A1 ordering
  // state — group clock, pending table, stamp proposals, decision buffer.
  [[nodiscard]] std::shared_ptr<bootstrap::ProtocolState>
  snapshotProtocolState() const override;
  void installProtocolState(const bootstrap::Snapshot& s) override;
  void resumeAfterInstall() override;

 private:
  struct Pend {
    AppMsgPtr msg;
    Stage stage = Stage::s0;
    uint64_t ts = 0;
  };

  // Donor and rejoiner are the same class, so the blob round-trips as a
  // private nested type; nobody else can see inside it.
  struct BootState final : bootstrap::ProtocolState {
    uint64_t K = 1;
    uint64_t propK = 1;
    std::map<MsgId, Pend> pending;
    std::set<MsgId> adelivered;
    std::map<MsgId, std::map<GroupId, uint64_t>> tsProposals;
    std::map<consensus::Instance, ConsensusValue> decisionBuffer;
    [[nodiscard]] uint64_t approxBytes() const override;
  };

  // Adds or updates a pending entry; the only writers of pending_, so
  // the two indexes never drift from it.
  void setPending(MsgId id, const AppMsgPtr& m, Stage stage, uint64_t ts);
  void erasePending(MsgId id);

  // Lines 10-13: first sight of m via R-Deliver or (TS, m).
  void noteMessage(const AppMsgPtr& m);
  // Line 14-17: propose all pending s0/s2 messages to the next instance.
  void tryPropose();
  // Lines 18-32: handle the decision of instance k.
  void onDecided(consensus::Instance k, const ConsensusValue& v);
  void drainDecisions();
  void handleDecided(consensus::Instance k, const A1EntrySet& entries);
  // Lines 33-40: all remote proposals for a stage-s1 message are in.
  void checkStage1(MsgId id);
  // Lines 3-7.
  void adeliveryTest();

  bool stageSkipping_;  // kA1
  consensus::ConsensusService* groupConsensus_ = nullptr;

  uint64_t K_ = 1;      // this group's clock == next consensus instance
  uint64_t propK_ = 1;  // lowest instance we may still propose to
  std::map<MsgId, Pend> pending_;
  std::set<std::pair<uint64_t, MsgId>> pendingByTs_;  // every entry
  std::set<MsgId> proposable_;                        // s0/s2 entries
  std::unordered_set<MsgId> adelivered_;
  // Remote (and own) timestamp proposals per pending message, per group.
  std::map<MsgId, std::map<GroupId, uint64_t>> tsProposals_;
  // Decisions that arrived before our clock reached their instance.
  std::map<consensus::Instance, ConsensusValue> decisionBuffer_;
  uint64_t instancesDecided_ = 0;
  // The (TS, m) fan-out lists: the members of m.dest minus our group.
  MemberLists tsDests_{topology()};
};

}  // namespace wanmc::amcast
