// Baseline: Rodrigues, Guerraoui & Schiper, "Scalable atomic multicast"
// (IC3N 1998) — the paper's reference [10].
//
// A Skeen-style protocol where the *addressees* (processes, not groups)
// timestamp the message: every destination process votes with its logical
// clock, votes are exchanged among all destination processes, and once a
// process has the votes it proposes the maximum to a consensus instance run
// ACROSS the destination processes. That cross-group consensus is the
// protocol's WAN weakness, called out in the paper's related work: with the
// early consensus of [11] it costs 2 extra inter-group delays, for a total
// latency degree of
//     1 (multicast) + 1 (vote exchange) + 2 (cross-group consensus) = 4
// and O(k^2 d^2) inter-group messages.
//
// Vote quorum: [10] uses a majority of every destination group. We wait for
// every *unsuspected* destination process instead (identical in the
// failure-free runs Figure 1 accounts for); this makes each process's own
// vote a lower bound on the decided timestamp, which gives a simple and
// airtight hold-back rule.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/consensus_value.hpp"
#include "core/stack_node.hpp"

namespace wanmc::amcast {

struct RodriguesPayload final : Payload {
  enum class Kind : uint8_t { kData, kVote };
  Kind kind = Kind::kData;
  AppMsgPtr msg;
  uint64_t ts = 0;  // the vote
  // Whose vote `ts` is. kNoProcess (the default, and every pre-PR6
  // packet): the network sender's own. Set explicitly when a process
  // RELAYS its collected vote map to a recovered amnesiac rejoin — the
  // relay carries votes cast by third parties.
  ProcessId voter = kNoProcess;

  RodriguesPayload(Kind k, AppMsgPtr m, uint64_t t,
                   ProcessId v = kNoProcess)
      : kind(k), msg(std::move(m)), ts(t), voter(v) {}
  [[nodiscard]] Layer layer() const override { return Layer::kProtocol; }
  [[nodiscard]] std::string debugString() const override {
    return std::string(kind == Kind::kData ? "rod-data(m" : "rod-vote(m") +
           std::to_string(msg->id) + "," + std::to_string(ts) +
           (voter == kNoProcess ? "" : ",v" + std::to_string(voter)) + ")";
  }
};

class RodriguesNode final : public core::XcastNode {
 public:
  // Message m's consensus runs under scope kScopeBase + m.id: one scope
  // per message, above every group-id scope (< 64).
  static constexpr uint64_t kScopeBase = 1u << 20;

  RodriguesNode(exec::Context& rt, ProcessId pid,
                const core::StackConfig& cfg);

  void xcast(const AppMsgPtr& m) override;

 protected:
  void onProtocolMessage(ProcessId from, const PayloadPtr& p) override;
  consensus::ConsensusService* onUnknownConsensusScope(
      ProcessId from, const consensus::ConsensusPayload& cp) override;

  // Bootstrap snapshot surface. Decided outcomes are adopted directly (the
  // per-message consensus scopes of a dead incarnation are gone); undecided
  // entries re-enter through noteMessage, which recreates the scope and
  // casts this incarnation's own vote.
  [[nodiscard]] std::shared_ptr<bootstrap::ProtocolState>
  snapshotProtocolState() const override;
  void installProtocolState(const bootstrap::Snapshot& s) override;
  void resumeAfterInstall() override;

 private:
  struct Pend {
    AppMsgPtr msg;
    uint64_t myVote = 0;
    std::map<ProcessId, uint64_t> votes;
    bool proposed = false;
    bool decided = false;
    uint64_t finalTs = 0;
  };

  struct BootState final : bootstrap::ProtocolState {
    uint64_t clock = 1;
    std::map<MsgId, Pend> pending;
    std::set<MsgId> delivered;
    std::map<MsgId, AppMsgPtr> knownMsgs;
    [[nodiscard]] uint64_t approxBytes() const override;
  };

  void noteMessage(const AppMsgPtr& m);
  void maybePropose(MsgId id);
  void onDecided(MsgId id, uint64_t finalTs);
  void tryDeliver();
  consensus::ConsensusService& serviceFor(const AppMsgPtr& m);

  uint64_t clock_ = 1;
  std::map<MsgId, Pend> pending_;
  std::set<MsgId> delivered_;
  std::map<MsgId, AppMsgPtr> knownMsgs_;  // for scope -> members resolution
  // Consensus packets that raced ahead of their kData/kVote introduction.
  std::vector<std::pair<ProcessId, std::shared_ptr<const Payload>>>
      earlyConsensus_;
};

}  // namespace wanmc::amcast
