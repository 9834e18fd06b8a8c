#include "consensus/consensus.hpp"

#include <algorithm>
#include <cassert>

namespace wanmc::consensus {

std::string ConsensusPayload::debugString() const {
  const char* t = "?";
  switch (type) {
    case Type::kEstimate: t = "EST"; break;
    case Type::kPropose: t = "PROP"; break;
    case Type::kAck: t = "ACK"; break;
    case Type::kNack: t = "NACK"; break;
    case Type::kDecide: t = "DEC"; break;
  }
  return std::string(t) + "(k=" + std::to_string(instance) +
         ",r=" + std::to_string(round) + "," + valueDebugString(value) + ")";
}

namespace {

std::shared_ptr<const ConsensusPayload> makePayload(
    uint64_t scope, Instance k, uint32_t round, ConsensusPayload::Type type,
    ConsensusValue value = {}, uint32_t estRound = 0) {
  auto p = std::make_shared<ConsensusPayload>();
  p->scope = scope;
  p->instance = k;
  p->round = round;
  p->type = type;
  p->value = std::move(value);
  p->estRound = estRound;
  return p;
}

}  // namespace

ConsensusService::ConsensusService(exec::Context& rt, ProcessId self,
                                   std::vector<ProcessId> members,
                                   fd::FailureDetector* fd, uint64_t scope,
                                   SimTime roundTimeout)
    : rt_(rt),
      self_(self),
      members_(std::move(members)),
      fd_(fd),
      scope_(scope),
      roundTimeout_(roundTimeout) {
  if (fd_ != nullptr)
    fd_->onSuspicion([this](ProcessId p) { onSuspicion(p); });
}

bool ConsensusService::maybeRetransmitDecision(ProcessId from, Instance k) {
  if (roundTimeout_ == 0) return false;
  auto it = decided_.find(k);
  if (it == decided_.end()) return false;
  rt_.send(self_, from,
           makePayload(scope_, k, 0, ConsensusPayload::Type::kDecide,
                       it->second));
  return true;
}

void ConsensusService::propose(Instance k, ConsensusValue v) {
  auto& st = state(k);
  if (st.joined || st.decidedFlag) return;  // one proposal per instance
  st.joined = true;
  st.estimate = std::move(v);
  st.estRound = 0;
  enterRound(k, st.round);
}

void ConsensusService::enterRound(Instance k, uint32_t r) {
  auto& st = state(k);
  if (st.decidedFlag || !st.joined) return;
  // Bound the fast-forward: after a full rotation we are our own coordinator
  // and never suspect ourselves, so this loop always terminates.
  for (uint32_t round = r;; ++round) {
    st.round = round;
    const ProcessId c = coordinator(k, round);
    if (fd_ != nullptr && c != self_ && fd_->suspects(c)) continue;
    if (round == 1) {
      // Early decision: the first-round coordinator broadcasts its own
      // proposal without collecting estimates. No lock can exist yet, so
      // this is safe, and it is what buys the two-delay fast path.
      if (c == self_ && !st.rounds[1].proposalSent) {
        st.rounds[1].proposalSent = true;
        broadcast(makePayload(scope_, k, 1, ConsensusPayload::Type::kPropose,
                              st.estimate, st.estRound));
      }
    } else {
      sendToCoord(k, round,
                  makePayload(scope_, k, round,
                              ConsensusPayload::Type::kEstimate, st.estimate,
                              st.estRound));
      coordinatorMaybePropose(k, round);  // self-coordinated rounds
    }
    break;
  }
  armRoundTimer(k, st.round);
}

void ConsensusService::armRoundTimer(Instance k, uint32_t r) {
  // Progress under crash-recovery: a round's coordinator can be alive —
  // so the detector never suspects it — yet an amnesiac rejoin that knows
  // nothing of this instance and proposes nothing, ever. Round changes
  // are always safe in an indulgent protocol (the locking rule protects
  // agreement), so after `roundTimeout_` of no decision we move on as if
  // the coordinator had been suspected. Unarmed (0) outside recovery
  // runs: every pre-v2 schedule is preserved exactly.
  if (roundTimeout_ == 0) return;
  rt_.timer(self_, roundTimeout_, [this, k, r]() {
    auto& st = state(k);
    if (st.decidedFlag || !st.joined || st.round != r) return;  // stale
    enterRound(k, r + 1);
  });
}

void ConsensusService::coordinatorMaybePropose(Instance k, uint32_t r) {
  if (r <= 1) return;  // round 1 never collects estimates
  auto& st = state(k);
  if (st.decidedFlag) return;
  if (coordinator(k, r) != self_) return;
  auto& rs = st.rounds[r];
  if (rs.proposalSent || rs.estimates.size() < majority()) return;
  // Pick the most recently locked estimate (indulgent locking rule).
  const Estimate* best = nullptr;
  ProcessId bestPid = kNoProcess;
  for (const auto& [pid, est] : rs.estimates) {
    if (best == nullptr || est.estRound > best->estRound ||
        (est.estRound == best->estRound && pid < bestPid)) {
      best = &est;
      bestPid = pid;
    }
  }
  assert(best != nullptr);
  rs.proposalSent = true;
  broadcast(makePayload(scope_, k, r, ConsensusPayload::Type::kPropose,
                        best->value, r));
}

void ConsensusService::maybeDecideOnAcks(Instance k, uint32_t r) {
  auto& st = state(k);
  if (st.decidedFlag) return;
  const auto& rs = st.rounds[r];
  if (rs.acks.size() < majority()) return;
  decide(k, r, rs.ackedValue);
}

void ConsensusService::decide(Instance k, uint32_t r, ConsensusValue v) {
  auto& st = state(k);
  st.decidedFlag = true;
  // No round state is read once the instance is decided: release it, and
  // copies that arrive later write nothing (they cannot change the
  // outcome). `v` is held by value because it may live in a released round.
  st.rounds.clear();
  st.estimate = {};
  // Decide BEFORE relaying: the decide event must not inherit the Lamport
  // tick of the (possibly inter-group) relay broadcast.
  if (decided_.emplace(k, v).second)
    for (const auto& cb : decideCbs_) cb(k, v);
  broadcast(makePayload(scope_, k, r, ConsensusPayload::Type::kDecide,
                        std::move(v)));
}

void ConsensusService::onMessage(ProcessId from, const ConsensusPayload& p) {
  auto& st = state(p.instance);
  switch (p.type) {
    case ConsensusPayload::Type::kEstimate: {
      // A straggler still campaigning in an instance we decided is an
      // amnesiac rejoin catching up: hand it the decision (recovery runs
      // only — see maybeRetransmitDecision).
      if (maybeRetransmitDecision(from, p.instance) || st.decidedFlag) break;
      auto& rs = st.rounds[p.round];
      rs.estimates[from] = Estimate{p.value, p.estRound};
      // Amnesiac join (recovery runs): an estimate for an instance we
      // hold no state for means our dead incarnation took part and the
      // quorum may INCLUDE us (it does when every member is needed).
      // Adopt the estimate — value and lock tag travel together, so the
      // locking rule stays intact — and enter the round so the
      // coordinator can count us toward its majority.
      if (roundTimeout_ != 0 && !st.joined && !st.decidedFlag) {
        st.joined = true;
        st.estimate = p.value;
        st.estRound = p.estRound;
        enterRound(p.instance, std::max(st.round, p.round));
      }
      coordinatorMaybePropose(p.instance, p.round);
      break;
    }
    case ConsensusPayload::Type::kPropose: {
      if (st.decidedFlag || p.round < st.round) {
        // Timeout-driven round advances (recovery runs) can leave cohorts
        // permanently one round apart: the ahead side silently rejects
        // every lower-round proposal and no round ever collects a
        // majority. Tell the stale proposer which round we are in; it
        // catches up (kNack handler) and the rounds re-synchronize.
        if (roundTimeout_ != 0 && !st.decidedFlag && p.round < st.round)
          rt_.send(self_, from,
                   makePayload(scope_, p.instance, st.round,
                               ConsensusPayload::Type::kNack));
        return;
      }
      st.round = p.round;
      st.joined = true;  // adopting a proposal joins the instance
      st.estimate = p.value;
      st.estRound = p.round;
      auto& rs = st.rounds[p.round];
      if (!rs.ackSent) {
        rs.ackSent = true;
        // Lock-broadcast: every process tells every process it locked v, so
        // that all members can decide two delays after the proposal.
        broadcast(makePayload(scope_, p.instance, p.round,
                              ConsensusPayload::Type::kAck, p.value));
      }
      // The adoption path bypasses enterRound: keep the progress timer
      // armed for the round we locked in (stale firings no-op).
      armRoundTimer(p.instance, p.round);
      break;
    }
    case ConsensusPayload::Type::kAck: {
      if (st.decidedFlag) break;
      auto& rs = st.rounds[p.round];
      rs.acks.insert(from);
      rs.ackedValue = p.value;
      maybeDecideOnAcks(p.instance, p.round);
      break;
    }
    case ConsensusPayload::Type::kNack:
      // Round catch-up (recovery runs): a peer rejected our proposal
      // because it is already in a higher round — join that round instead
      // of discovering it one timeout at a time. Round jumps are always
      // safe; only the locking rule guards agreement.
      if (roundTimeout_ != 0 && st.joined && !st.decidedFlag &&
          p.round > st.round)
        enterRound(p.instance, p.round);
      break;
    case ConsensusPayload::Type::kDecide:
      if (!st.decidedFlag) decide(p.instance, p.round, p.value);
      break;
  }
}

void ConsensusService::onSuspicion(ProcessId p) {
  // Any undecided instance whose current coordinator just got suspected
  // moves on to the next round (whether or not we already acked: if the
  // coordinator crashed mid-broadcast only a minority may have acked, and
  // everyone must regroup under the next coordinator).
  for (auto& [k, st] : instances_) {
    if (st.decidedFlag || !st.joined) continue;
    if (coordinator(k, st.round) == p) enterRound(k, st.round + 1);
  }
}

std::unique_ptr<ConsensusService> makeConsensus(
    ConsensusKind /*kind*/, exec::Context& rt, ProcessId self,
    std::vector<ProcessId> members, fd::FailureDetector* fd, uint64_t scope,
    SimTime roundTimeout) {
  return std::make_unique<ConsensusService>(rt, self, std::move(members), fd,
                                            scope, roundTimeout);
}

}  // namespace wanmc::consensus
