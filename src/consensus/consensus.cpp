#include "consensus/consensus.hpp"

#include <algorithm>
#include <cassert>

namespace wanmc::consensus {

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
  if (fd_ == nullptr) return;
  fd_->onSuspicion([this](ProcessId p) { leaveRoundsOf(p, UINT32_MAX); });
  fd_->onRetraction([this](ProcessId p, bool fresh) {
    if (fresh) onRejoin(p);
  });
}

ConsensusService::RoundState& ConsensusService::InstanceState::roundState(
    uint32_t r) {
  for (RoundState& rs : rounds)
    if (rs.number == r) return rs;
  RoundState& rs = rounds.emplace_back();
  rs.number = r;
  return rs;
}

ConsensusService::DecisionList ConsensusService::decisions() const {
  DecisionList out;
  decided_.forEach(
      [&](Instance k, const Decision& d) { out.emplace_back(k, d.value); });
  return out;
}

void ConsensusService::installDecisions(const DecisionList& ds) {
  for (const auto& [k, v] : ds)
    if (auto [d, added] = decided_.tryEmplace(k); added) d.value = v;
}

void ConsensusService::propose(Instance k, ConsensusValue v) {
  if (const Decision* d = decided_.find(k); d != nullptr && d->here) return;
  auto& st = instances_[k];
  if (st.joined) return;  // one proposal per instance
  st.joined = true;
  st.estimate = std::move(v);
  st.estRound = 0;
  enterRound(k, st, st.round);
}

void ConsensusService::enterRound(Instance k, InstanceState& st, uint32_t r) {
  if (!st.joined) return;
  // Bound the fast-forward: after a full rotation we are our own coordinator
  // and never suspect ourselves, so this loop always terminates.
  for (uint32_t round = r;; ++round) {
    st.round = round;
    const ProcessId c = coordinator(k, round);
    if (passOver(c, round)) continue;
    if (round == 1) {
      // Early decision: the first-round coordinator broadcasts its own
      // proposal without collecting estimates. No lock can exist yet, so
      // this is safe, and it is what buys the two-delay fast path.
      if (c == self_) {
        RoundState& rs = st.roundState(1);
        if (!rs.proposalSent) {
          rs.proposalSent = true;
          broadcast(makePayload(scope_, k, 1, ConsensusPayload::Type::kPropose,
                                st.estimate, st.estRound));
        }
      }
    } else {
      sendToCoord(k, round,
                  makePayload(scope_, k, round,
                              ConsensusPayload::Type::kEstimate, st.estimate,
                              st.estRound));
      coordinatorMaybePropose(k, st, round);  // self-coordinated rounds
    }
    break;
  }
  armRoundTimer(k, st.round);
}

void ConsensusService::armRoundTimer(Instance k, uint32_t r) {
  // Progress under crash-recovery: a round's coordinator can be alive —
  // so the detector never suspects it — yet an amnesiac rejoin that knows
  // nothing of this instance and proposes nothing, ever. The rejoin skip
  // (onRejoin) spares most such waits; this timer covers the rest (see
  // the constructor's comment). Round changes are always safe in an
  // indulgent protocol (the locking rule protects agreement), so after
  // `roundTimeout_` of no decision we move on as if the coordinator had
  // been suspected. Unarmed (0) outside recovery runs: every pre-v2
  // schedule is preserved exactly.
  if (roundTimeout_ == 0) return;
  rt_.timer(self_, roundTimeout_, [this, k, r]() {
    auto it = instances_.find(k);
    if (it == instances_.end()) return;  // decided since
    InstanceState& st = it->second;
    if (!st.joined || st.round != r) return;  // stale
    enterRound(k, st, r + 1);
  });
}

void ConsensusService::coordinatorMaybePropose(Instance k, InstanceState& st,
                                               uint32_t r) {
  if (r <= 1) return;  // round 1 never collects estimates
  if (coordinator(k, r) != self_) return;
  RoundState& rs = st.roundState(r);
  if (rs.proposalSent || rs.estimates.size() < majority()) return;
  // Pick the most recently locked estimate (indulgent locking rule).
  const Estimate* best = nullptr;
  for (const Estimate& est : rs.estimates) {
    if (best == nullptr || est.estRound > best->estRound ||
        (est.estRound == best->estRound && est.from < best->from))
      best = &est;
  }
  assert(best != nullptr);
  rs.proposalSent = true;
  broadcast(makePayload(scope_, k, r, ConsensusPayload::Type::kPropose,
                        best->value, r));
}

void ConsensusService::decide(Instance k, uint32_t r, ConsensusValue v) {
  // No round state is read once the instance is decided: release it.
  instances_.erase(k);
  auto [d, fresh] = decided_.tryEmplace(k);
  if (fresh) d.value = v;
  d.here = true;  // an installed decision is now ours too
  // Decide BEFORE relaying: the decide event must not inherit the Lamport
  // tick of the (possibly inter-group) relay broadcast.
  if (fresh)
    for (const auto& cb : decideCbs_) cb(k, v);
  broadcast(makePayload(scope_, k, r, ConsensusPayload::Type::kDecide,
                        std::move(v)));
}

void ConsensusService::onMessage(ProcessId from, const ConsensusPayload& p) {
  if (const Decision* d = decided_.find(p.instance)) {
    // Decision retransmission (armed with the round timeout): an estimate
    // for an instance we decided means the sender is stuck in a round the
    // rest of us finished long ago — an amnesiac rejoin catching up.
    // Reply with the decision. Gated on roundTimeout_ so runs without
    // recovery keep their exact pre-v2 message traffic.
    if (p.type == ConsensusPayload::Type::kEstimate && roundTimeout_ != 0) {
      rt_.send(self_, from,
               makePayload(scope_, p.instance, 0,
                           ConsensusPayload::Type::kDecide, d->value));
      return;
    }
    // Any other copy for an instance decided here cannot change the
    // outcome: it writes nothing and recreates no working state.
    if (d->here) return;
  }
  auto& st = instances_[p.instance];
  switch (p.type) {
    case ConsensusPayload::Type::kEstimate: {
      auto& ests = st.roundState(p.round).estimates;
      auto e = std::find_if(ests.begin(), ests.end(),
                            [&](const Estimate& x) { return x.from == from; });
      if (e == ests.end())
        ests.push_back(Estimate{from, p.value, p.estRound});
      else
        *e = Estimate{from, p.value, p.estRound};
      // Amnesiac join (recovery runs): an estimate for an instance we
      // hold no state for means our dead incarnation took part and the
      // quorum may INCLUDE us (it does when every member is needed).
      // Adopt the estimate — value and lock tag travel together, so the
      // locking rule stays intact — and enter the round so the
      // coordinator can count us toward its majority.
      if (roundTimeout_ != 0 && !st.joined) {
        st.joined = true;
        st.estimate = p.value;
        st.estRound = p.estRound;
        enterRound(p.instance, st, std::max(st.round, p.round));
      }
      coordinatorMaybePropose(p.instance, st, p.round);
      break;
    }
    case ConsensusPayload::Type::kPropose: {
      // A round-1 PROPOSE for an instance still open here shows that a
      // rejoined member coordinates again.
      if (p.round == 1) std::erase(rejoined_, from);
      if (p.round < st.round) {
        // Timeout-driven round advances (recovery runs) can leave cohorts
        // permanently one round apart: the ahead side silently rejects
        // every lower-round proposal and no round ever collects a
        // majority. Tell the stale proposer which round we are in; it
        // catches up (kNack handler) and the rounds re-synchronize.
        if (roundTimeout_ != 0)
          rt_.send(self_, from,
                   makePayload(scope_, p.instance, st.round,
                               ConsensusPayload::Type::kNack));
        return;
      }
      st.round = p.round;
      st.joined = true;  // adopting a proposal joins the instance
      st.estimate = p.value;
      st.estRound = p.round;
      RoundState& rs = st.roundState(p.round);
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
      RoundState& rs = st.roundState(p.round);
      if (std::find(rs.acks.begin(), rs.acks.end(), from) == rs.acks.end())
        rs.acks.push_back(from);
      // The ACK that completes the majority gives the decided value.
      if (rs.acks.size() >= majority()) decide(p.instance, p.round, p.value);
      break;
    }
    case ConsensusPayload::Type::kNack:
      // Round catch-up (recovery runs): a peer rejected our proposal
      // because it is already in a higher round — join that round instead
      // of discovering it one timeout at a time. Round jumps are always
      // safe; only the locking rule guards agreement.
      if (roundTimeout_ != 0 && st.joined && p.round > st.round)
        enterRound(p.instance, st, p.round);
      break;
    case ConsensusPayload::Type::kDecide:
      decide(p.instance, p.round, p.value);
      break;
  }
}

bool ConsensusService::passOver(ProcessId c, uint32_t round) const {
  if (c == self_) return false;
  if (fd_ != nullptr && fd_->suspects(c)) return true;
  return round == 1 && std::find(rejoined_.begin(), rejoined_.end(), c) !=
                           rejoined_.end();
}

void ConsensusService::onRejoin(ProcessId p) {
  if (std::find(members_.begin(), members_.end(), p) == members_.end())
    return;
  if (std::find(rejoined_.begin(), rejoined_.end(), p) == rejoined_.end())
    rejoined_.push_back(p);
  leaveRoundsOf(p, 1);
}

void ConsensusService::leaveRoundsOf(ProcessId p, uint32_t lastRound) {
  // Any undecided instance whose current round, if at most lastRound, is
  // coordinated by p moves on to the next round (whether or not we already
  // acked: if the coordinator crashed mid-broadcast only a minority may
  // have acked, and everyone must regroup under the next coordinator).
  // Rounds are entered in instance order.
  std::vector<Instance> moving;
  // wanmc-lint: allow(D2): collect then sort
  for (const auto& [k, st] : instances_)
    if (st.joined && st.round <= lastRound && coordinator(k, st.round) == p)
      moving.push_back(k);
  std::sort(moving.begin(), moving.end());
  for (Instance k : moving) {
    InstanceState& st = instances_.at(k);
    enterRound(k, st, st.round + 1);
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
