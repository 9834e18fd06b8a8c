// Skeen's algorithm (as described by Birman & Joseph, TOCS'87) — the
// original genuine atomic multicast for FAILURE-FREE systems, reference [2].
//
// The paper's §1: "A corollary of this result is that Skeen's algorithm ...
// designed for failure-free systems, is also optimal — a result that has
// apparently been left unnoticed by the scientific community for more than
// 20 years." This implementation exists to exhibit that corollary: with
// per-PROCESS logical clocks and no consensus at all, the protocol still
// needs one delay to spread m and one to gather the timestamp votes —
// latency degree 2, exactly the genuine lower bound of Prop. 3.1/3.2.
//
// Protocol (classic three-step Skeen):
//   1. the sender sends m to every destination process;
//   2. every destination process votes with its logical clock and sends the
//      vote back to the sender... in the decentralized variant used here
//      (and by the paper's accounting), to ALL destination processes;
//   3. m's final timestamp is the maximum vote; messages are delivered in
//      (timestamp, id) order, held back while any known message could still
//      get a smaller final timestamp.
//
// NOT fault-tolerant: a crashed destination process blocks every message it
// was supposed to vote on. The fault-tolerant descendants in this library
// (A1, Fritzke, Rodrigues) replace the per-process votes with per-group
// agreement; keeping this ancestor around makes the lineage measurable.
#pragma once

#include <cstdint>
#include <map>
#include <set>

#include "core/stack_node.hpp"

namespace wanmc::amcast {

struct SkeenPayload final : Payload {
  enum class Kind : uint8_t { kData, kVote };
  Kind kind = Kind::kData;
  AppMsgPtr msg;
  uint64_t ts = 0;

  SkeenPayload(Kind k, AppMsgPtr m, uint64_t t)
      : kind(k), msg(std::move(m)), ts(t) {}
  [[nodiscard]] Layer layer() const override { return Layer::kProtocol; }
  [[nodiscard]] std::string debugString() const override {
    return std::string(kind == Kind::kData ? "skeen-data(m" : "skeen-vote(m") +
           std::to_string(msg->id) + "," + std::to_string(ts) + ")";
  }
};

class SkeenNode final : public core::XcastNode {
 public:
  SkeenNode(exec::Context& rt, ProcessId pid, const core::StackConfig& cfg);

  void xcast(const AppMsgPtr& m) override;

 protected:
  void onProtocolMessage(ProcessId from, const PayloadPtr& p) override;

  // Bootstrap snapshot surface. A rejoiner adopts the dead incarnation's
  // vote where one exists (so its maximum matches its peers') and casts a
  // fresh vote otherwise — which is exactly what unblocks peers stuck
  // waiting on the crashed process's vote.
  [[nodiscard]] std::shared_ptr<bootstrap::ProtocolState>
  snapshotProtocolState() const override;
  void installProtocolState(const bootstrap::Snapshot& s) override;
  void resumeAfterInstall() override;

 private:
  struct Pend {
    AppMsgPtr msg;
    uint64_t myVote = 0;
    std::map<ProcessId, uint64_t> votes;
    bool decided = false;
    uint64_t finalTs = 0;
  };

  struct BootState final : bootstrap::ProtocolState {
    uint64_t clock = 1;
    std::map<MsgId, Pend> pending;
    std::set<MsgId> delivered;
    [[nodiscard]] uint64_t approxBytes() const override;
  };

  void noteMessage(const AppMsgPtr& m);
  void maybeDecide(MsgId id);
  void tryDeliver();

  uint64_t clock_ = 1;
  std::map<MsgId, Pend> pending_;
  std::set<MsgId> delivered_;
  MemberLists peers_{topology(), pid()};  // m's addressees minus this process
};

}  // namespace wanmc::amcast
