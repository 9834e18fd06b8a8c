// Timestamp-vote atomic multicast: Skeen's algorithm (as described by
// Birman & Joseph, TOCS'87), reference [2], and the Rodrigues, Guerraoui &
// Schiper baseline, "Scalable atomic multicast" (IC3N 1998), reference
// [10]. One node serves both (SkeenVariant); they share the vote mechanism
// and differ in how the largest vote becomes m's final timestamp.
//
// Shared protocol (the classic three-step Skeen):
//   1. the sender sends m to every destination process;
//   2. every destination process votes with its logical clock and sends the
//      vote back to the sender... in the decentralized variant used here
//      (and by the paper's accounting), to ALL destination processes;
//   3. m's final timestamp is the maximum vote; messages are delivered in
//      (timestamp, id) order, held back while any known message could still
//      get a smaller final timestamp.
//
// kSkeen87, the original genuine atomic multicast for FAILURE-FREE systems:
// each destination process takes the maximum itself once it holds every
// destination process's vote. The paper's §1: "A corollary of this result
// is that Skeen's algorithm ... designed for failure-free systems, is also
// optimal — a result that has apparently been left unnoticed by the
// scientific community for more than 20 years." This variant exists to
// exhibit that corollary: with per-PROCESS logical clocks and no consensus
// at all, the protocol still needs one delay to spread m and one to gather
// the timestamp votes — latency degree 2, exactly the genuine lower bound
// of Prop. 3.1/3.2. NOT fault-tolerant: a crashed destination process
// blocks every message it was supposed to vote on. The fault-tolerant
// descendants in this library (A1, Fritzke, and kRodrigues98 below) make
// the final timestamp an agreed value; keeping this ancestor around makes
// the lineage measurable.
//
// kRodrigues98: once a process has the votes it proposes the maximum to a
// consensus instance run ACROSS the destination processes, one per
// message. That cross-group consensus is the protocol's WAN weakness,
// called out in the paper's related work: with the early consensus of
// [11] it costs 2 extra inter-group delays, for a total latency degree of
//     1 (multicast) + 1 (vote exchange) + 2 (cross-group consensus) = 4
// and O(k^2 d^2) inter-group messages.
//
// Vote quorum (kRodrigues98): [10] uses a majority of every destination
// group. We wait for every *unsuspected* destination process instead
// (identical in the failure-free runs Figure 1 accounts for); this makes
// each process's own vote a lower bound on the decided timestamp, which
// gives a simple and airtight hold-back rule. Under kSkeen87 the bound
// holds because the maximum ranges over every destination process.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/stack_node.hpp"

namespace wanmc::amcast {

struct SkeenPayload final : Payload {
  enum class Kind : uint8_t { kData, kVote };
  Kind kind = Kind::kData;
  AppMsgPtr msg;
  uint64_t ts = 0;  // the vote
  // Whose vote `ts` is. kNoProcess (the default): the network sender's
  // own. Set explicitly when a kRodrigues98 process RELAYS its collected
  // vote map to a recovered amnesiac rejoin — the relay carries votes cast
  // by third parties.
  ProcessId voter = kNoProcess;

  SkeenPayload(Kind k, AppMsgPtr m, uint64_t t, ProcessId v = kNoProcess)
      : kind(k), msg(std::move(m)), ts(t), voter(v) {}
  [[nodiscard]] Layer layer() const override { return Layer::kProtocol; }
};

// kSkeen87 [2]: each process decides the maximum vote itself.
// kRodrigues98 [10]: the maximum goes to a cross-group consensus.
enum class SkeenVariant { kSkeen87, kRodrigues98 };

class SkeenNode final : public core::XcastNode {
 public:
  // kRodrigues98: message m's consensus runs under scope kScopeBase + m.id,
  // one scope per message, above every group-id scope (< 64).
  static constexpr uint64_t kScopeBase = 1u << 20;

  SkeenNode(exec::Context& rt, ProcessId pid, const core::StackConfig& cfg,
            SkeenVariant variant);

  void xcast(const AppMsgPtr& m) override;

 protected:
  void onProtocolMessage(ProcessId from, const PayloadPtr& p) override;
  consensus::ConsensusService* onUnknownConsensusScope(
      ProcessId from, const consensus::ConsensusPayload& cp) override;

  // Bootstrap snapshot surface. Decided outcomes are adopted directly. A
  // kRodrigues98 rejoiner votes afresh on every message it learns of: the
  // per-message consensus scopes of a dead incarnation are gone,
  // noteMessage recreates them, and consensus fixes one outcome whatever
  // the proposals. A kSkeen87 rejoiner must not vote twice: peers that
  // decided on its dead incarnation's vote keep it, the others would take
  // the new one, and the final timestamps would diverge. It records
  // messages while joining but holds its own vote; the install adopts the
  // dead incarnation's vote where the donor holds one, and
  // resumeAfterInstall casts the votes still owed — which is exactly what
  // unblocks peers stuck waiting on the crashed process's vote.
  [[nodiscard]] std::shared_ptr<bootstrap::ProtocolState>
  snapshotProtocolState() const override;
  void installProtocolState(const bootstrap::Snapshot& s) override;
  void resumeAfterInstall() override;

 private:
  struct Pend {
    AppMsgPtr msg;
    uint64_t myVote = 0;  // 0 until this process votes (votes start at 1)
    std::map<ProcessId, uint64_t> votes;
    bool proposed = false;  // kRodrigues98: the maximum went to consensus
    bool decided = false;
    uint64_t finalTs = 0;
  };

  struct BootState final : bootstrap::ProtocolState {
    uint64_t clock = 1;
    std::map<MsgId, Pend> pending;
    [[nodiscard]] uint64_t approxBytes() const override;
  };

  void noteMessage(const AppMsgPtr& m);
  void castVote(Pend& p);
  void maybeDecide(MsgId id);
  void decide(MsgId id, uint64_t finalTs);
  void tryDeliver();
  consensus::ConsensusService& serviceFor(const AppMsgPtr& m);

  const SkeenVariant variant_;
  uint64_t clock_ = 1;
  std::map<MsgId, Pend> pending_;
  MemberLists peers_{topology(), pid()};  // m's addressees minus this process
  // kRodrigues98: consensus packets that raced ahead of their kData/kVote
  // introduction.
  std::vector<std::pair<ProcessId, std::shared_ptr<const Payload>>>
      earlyConsensus_;
};

}  // namespace wanmc::amcast
