// Uniform consensus, instance-numbered: Propose(k, v) / Decide(k, v).
//
// The paper assumes consensus is solvable inside every group (§2.1) and its
// Figure-1 accounting uses Schiper's early consensus [11]: latency degree 2
// and 2kd(kd-1) messages when run across k groups of d processes.
// ConsensusService is that protocol: rotating-coordinator, early-deciding.
// In the first round the coordinator broadcasts its own proposal without
// collecting estimates, everyone lock-broadcasts an ACK, and a process
// decides on a majority of ACKs: two message delays in the failure-free
// case, matching [11]'s latency degree of 2. Later rounds collect
// estimates and pick the most recently locked one (classic indulgent
// locking), so uniform agreement holds under f < n/2 crashes and
// arbitrary suspicion noise.
//
// Crash-recovery: a member that comes back is a fresh, amnesiac
// incarnation. As a round-1 coordinator it would stay silent, alive and
// unsuspected, about every instance its dead incarnation knew. When the
// failure detector reports a fresh incarnation (onRetraction with
// freshIncarnation), the service marks that member: instances waiting in
// a round 1 it coordinates move to round 2 at once, and enterRound passes
// over such a round 1 as it passes over a suspected coordinator. This is
// safe because abandoning a round always is: round 2's coordinator adopts
// the most recently locked estimate, so a value the dead incarnation may
// have decided survives. The mark ends at the member's first round-1
// PROPOSE, which shows that it coordinates again.
//
// Values are shared, never copied (common/consensus_value.hpp): the value a
// process proposes is the one object every payload, estimate, acked value
// and decision refers to.
//
// A process keeps two tables of instances. The working table (hashed)
// holds the instances it has not decided: its own estimate and, per round,
// the estimates and ACKs it collected, in plain vectors searched linearly
// (a round holds at most one entry per group member). The decided table,
// indexed by instance (common/id_table.hpp), holds every decision. Deciding
// erases the instance from the working table, and its round state with it,
// so that table stays as small as the number of instances in flight however
// long the run; copies that arrive afterwards stop at the decided table and
// write nothing. The group stacks (A1, A2, Delporte00) read their decisions
// there, through decision(), each in its own clock order.
//
// The service runs over whatever member set it is given. The atomic
// multicast / broadcast algorithms instantiate it per group (intra-group
// traffic only, hence latency-degree contribution 0); the Rodrigues-et-al.
// baseline instantiates it across groups, where the 2 inter-group delays
// and the O((kd)^2) messages show up exactly as in Figure 1a.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/consensus_value.hpp"
#include "common/id_table.hpp"
#include "common/ids.hpp"
#include "common/message.hpp"
#include "fd/failure_detector.hpp"
#include "exec/context.hpp"

namespace wanmc::consensus {

using Instance = uint64_t;

struct ConsensusPayload final : Payload {
  enum class Type : uint8_t { kEstimate, kPropose, kAck, kNack, kDecide };

  uint64_t scope = 0;  // which service on the node this packet belongs to
  Instance instance = 0;
  uint32_t round = 0;
  Type type = Type::kEstimate;
  ConsensusValue value;
  uint32_t estRound = 0;  // round in which `value` was last locked

  [[nodiscard]] Layer layer() const override { return Layer::kConsensus; }
  [[nodiscard]] std::string debugString() const override;
};

class ConsensusService final {
 public:
  using DecideCb = std::function<void(Instance, const ConsensusValue&)>;

  // `roundTimeout` > 0 arms a per-round progress timer (armRoundTimer):
  // required for liveness under crash-RECOVERY, where a round's
  // coordinator can be alive (so never suspected) yet amnesiac about the
  // instance and silent forever. The rejoin skip above covers round 1
  // whenever the detector reports the new incarnation; the timer covers
  // the rest: rounds >= 2, a rejoin that one member's heartbeats reveal a
  // beat before another's, and a two-member group, whose majority needs
  // the rejoiner. 0 (the default) relies purely on failure-detector
  // suspicion, the pre-v2 behavior.
  ConsensusService(exec::Context& rt, ProcessId self,
                   std::vector<ProcessId> members, fd::FailureDetector* fd,
                   uint64_t scope, SimTime roundTimeout = 0);

  ConsensusService(const ConsensusService&) = delete;
  ConsensusService& operator=(const ConsensusService&) = delete;

  void propose(Instance k, ConsensusValue v);
  void onMessage(ProcessId from, const ConsensusPayload& p);

  void onDecide(DecideCb cb) { decideCbs_.push_back(std::move(cb)); }

  // The decision of instance k, installed ones included; null while k is
  // undecided here. The pointer stays valid: no decision is ever erased.
  [[nodiscard]] const ConsensusValue* decision(Instance k) const {
    const Decision* d = decided_.find(k);
    return d == nullptr ? nullptr : &d->value;
  }

  // Bootstrap plane (src/bootstrap/): the decided-instance table is part of
  // a donor's snapshot, and a rejoining incarnation installs it SILENTLY —
  // no decide callbacks fire, because the donated protocol state already
  // reflects the effect of every decision below the donor's clock; a group
  // stack reads those above it through decision() once its clock gets
  // there. An installed decision is not one this incarnation reached: a
  // copy of such an instance still runs it (ACKs a PROPOSE, relays a
  // DECIDE) without firing a callback. The install also
  // arms the decision retransmission (onMessage): the rejoiner can answer
  // stragglers stuck in instances it never personally ran.
  // decisions() lists them in instance order, for the snapshot; nothing
  // on the ordering path calls it.
  using DecisionList = std::vector<std::pair<Instance, ConsensusValue>>;
  [[nodiscard]] DecisionList decisions() const;
  void installDecisions(const DecisionList& ds);

  // Instances in the working table: those this process has joined or heard
  // of but not decided. 0 once every instance it took part in is decided.
  [[nodiscard]] size_t activeInstances() const { return instances_.size(); }

 private:
  struct Estimate {
    ProcessId from = kNoProcess;
    ConsensusValue value;
    uint32_t estRound = 0;
  };
  struct RoundState {
    uint32_t number = 0;
    // Collected by the coordinator of a round > 1; round 1 collects none.
    std::vector<Estimate> estimates;  // one per sender
    std::vector<ProcessId> acks;      // distinct senders
    bool proposalSent = false;
    bool ackSent = false;
  };
  struct InstanceState {
    bool joined = false;     // proposed locally or adopted a proposal
    ConsensusValue estimate;
    uint32_t estRound = 0;
    uint32_t round = 1;      // current round as a participant
    std::vector<RoundState> rounds;
    // Round r's state, created on first use. Valid until the next round
    // is created.
    RoundState& roundState(uint32_t r);
  };
  struct Decision {
    ConsensusValue value;
    // Decided by this incarnation. false: only installed from a snapshot,
    // so copies of the instance are still handled as if undecided.
    bool here = false;
  };

  [[nodiscard]] size_t majority() const { return members_.size() / 2 + 1; }
  [[nodiscard]] ProcessId coordinator(Instance k, uint32_t round) const {
    return members_[(k + round - 1) % members_.size()];
  }
  void broadcast(const std::shared_ptr<const ConsensusPayload>& p) {
    rt_.multicast(self_, members_, p);  // one send event (paper §2.3)
  }
  void sendToCoord(Instance k, uint32_t r,
                   const std::shared_ptr<const ConsensusPayload>& p) {
    rt_.send(self_, coordinator(k, r), p);
  }

  void enterRound(Instance k, InstanceState& st, uint32_t r);
  void coordinatorMaybePropose(Instance k, InstanceState& st, uint32_t r);
  // Decides k with v: moves k from the working table to the decided one,
  // fires the callbacks unless the decision was installed, and relays it.
  void decide(Instance k, uint32_t r, ConsensusValue v);
  // Whether enterRound passes over `round`, coordinated by c: a suspected
  // coordinator, and in round 1 a rejoined one.
  [[nodiscard]] bool passOver(ProcessId c, uint32_t round) const;
  // A fresh incarnation of member p (FailureDetector::onRetraction).
  void onRejoin(ProcessId p);
  // Moves every joined instance whose current round is at most lastRound
  // and coordinated by p on to the next round, in instance order.
  void leaveRoundsOf(ProcessId p, uint32_t lastRound);
  void armRoundTimer(Instance k, uint32_t r);

  exec::Context& rt_;
  ProcessId self_;
  std::vector<ProcessId> members_;
  fd::FailureDetector* fd_;
  uint64_t scope_;
  SimTime roundTimeout_ = 0;
  std::unordered_map<Instance, InstanceState> instances_;  // undecided here
  IdTable<Decision> decided_;
  std::vector<DecideCb> decideCbs_;
  // Members whose fresh incarnation has not yet sent a round-1 PROPOSE.
  std::vector<ProcessId> rejoined_;
};

// The service has one kind. The tag and the factory remain for
// benchmark/probes.cpp, which builds its consensus probe through
// makeConsensus(ConsensusKind::kEarly, ...).
enum class ConsensusKind { kEarly };

std::unique_ptr<ConsensusService> makeConsensus(
    ConsensusKind kind, exec::Context& rt, ProcessId self,
    std::vector<ProcessId> members, fd::FailureDetector* fd, uint64_t scope,
    SimTime roundTimeout = 0);

}  // namespace wanmc::consensus
