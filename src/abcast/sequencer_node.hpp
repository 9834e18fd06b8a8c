// Baselines: sequencer-based total order for WANs.
//
//  * Sousa, Pereira, Moura & Oliveira, "Optimistic total order in wide area
//    networks" (SRDS 2002) — the paper's reference [12]. Non-uniform: the
//    sender broadcasts m to everyone (optimistic delivery on receipt, one
//    inter-group delay); a sequencer broadcasts sequence numbers; the FINAL
//    delivery — the one Figure 1b accounts — happens on receipt of the
//    sequence number: latency degree 2, O(n) messages per message. Each
//    SEQ also carries m, so a data copy lost together with its sender
//    (the sender's retransmissions die with it) cannot stall delivery.
//
//  * Vicente & Rodrigues, "An indulgent uniform total order algorithm with
//    optimistic delivery" (SRDS 2002) — reference [13]. Uniform: in
//    parallel with the sequencer's number, every process echoes m to every
//    process; the final delivery additionally waits until a majority of
//    processes is known to hold m, which makes the order stable across
//    crashes. The echo runs in parallel with the sequencing hop, so the
//    latency degree stays 2, but the echo costs O(n^2) messages.
//
// Both are implemented by one node parameterized on Mode; the sequencer
// fails over to the lowest unsuspected process id.
//
// A process keeps one record per message it has not A-Delivered (payload,
// sequence number, processes known to hold it) and an sn -> id index; both
// entries leave at the A-Delivery, and a later copy of any kind stops at
// XcastNode::ordered().
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "core/stack_node.hpp"

namespace wanmc::abcast {

struct SeqPayload final : Payload {
  enum class Kind : uint8_t { kData, kSeq, kEcho };
  Kind kind = Kind::kData;
  AppMsgPtr msg;    // kData / kEcho, and kSeq in [12]
  MsgId msgId = 0;  // kSeq / kEcho
  uint64_t sn = 0;  // kSeq

  SeqPayload(Kind k, AppMsgPtr m, MsgId id, uint64_t s)
      : kind(k), msg(std::move(m)), msgId(id), sn(s) {}
  [[nodiscard]] Layer layer() const override { return Layer::kProtocol; }
};

enum class SequencerMode {
  kOptimisticNonUniform,  // Sousa et al. [12]
  kUniformEcho,           // Vicente & Rodrigues [13]
};

class SequencerNode final : public core::XcastNode {
 public:
  SequencerNode(exec::Context& rt, ProcessId pid,
                const core::StackConfig& cfg, SequencerMode mode);

  void xcast(const AppMsgPtr& m) override;

  // Optimistic deliveries (on data receipt) for the optimism benches: the
  // tentative order that [12]/[13] expose to the application early.
  [[nodiscard]] const std::vector<MsgId>& optimisticOrder() const {
    return optimistic_;
  }

 protected:
  void onProtocolMessage(ProcessId from, const PayloadPtr& p) override;

  // Bootstrap snapshot surface: the records and the two clocks. Carries the
  // sequencer handoff: nextSn is past every assignment the donor has seen,
  // so a recovered process that becomes (or returns as) sequencer never
  // reuses a number.
  [[nodiscard]] std::shared_ptr<bootstrap::ProtocolState>
  snapshotProtocolState() const override;
  void installProtocolState(const bootstrap::Snapshot& s) override;
  void resumeAfterInstall() override;

 private:
  struct Rec {
    AppMsgPtr msg;               // null: sn known, payload still in flight
    std::optional<uint64_t> sn;  // empty: not sequenced yet
    std::set<ProcessId> holders;  // [13]'s stability test counts them
  };

  struct BootState final : bootstrap::ProtocolState {
    std::map<MsgId, Rec> pending;
    uint64_t nextSn = 0;
    uint64_t nextDeliver = 0;
    [[nodiscard]] uint64_t approxBytes() const override;
  };

  [[nodiscard]] ProcessId currentSequencer() const;
  [[nodiscard]] const std::vector<ProcessId>& everyoneElse() {
    return peers_.of(topology().allGroups());
  }
  void noteData(const AppMsgPtr& m, ProcessId holder);
  void maybeSequence();
  void tryFinalDeliver();

  SequencerMode mode_;
  std::map<MsgId, Rec> pending_;  // by id: every message not A-Delivered
  std::map<uint64_t, MsgId> bySn_;  // sn -> id, for records in pending_
  uint64_t nextSn_ = 0;  // above every sn this process has seen
  uint64_t nextDeliver_ = 0;
  std::vector<MsgId> optimistic_;
  MemberLists peers_{topology(), pid()};
};

}  // namespace wanmc::abcast
