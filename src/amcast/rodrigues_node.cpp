#include "amcast/rodrigues_node.hpp"

#include <algorithm>
#include <cassert>

namespace wanmc::amcast {

RodriguesNode::RodriguesNode(exec::Context& rt, ProcessId pid,
                             const core::StackConfig& cfg)
    : core::XcastNode(rt, pid, cfg) {
  // Votes and consensus run ACROSS the destination groups, so suspicion of
  // REMOTE processes matters here — unlike the group-scoped stacks. Widen
  // the detector to every other group: the oracle is global already (this
  // is a no-op), and the heartbeat detector adds one inter-group lane per
  // remote group, closing the PR 1 gap where a remote crash under
  // HeartbeatFd went unnoticed and the vote quorum hung forever.
  for (GroupId g = 0; g < topology().numGroups(); ++g)
    if (g != gid()) fd().addRemoteGroup(g, topology().members(g));

  // A crash can be the event that completes a vote quorum: maybePropose
  // waits for every unsuspected destination process, so a new suspicion
  // must re-evaluate every pending message or the survivors hang.
  fd().onSuspicion([this](ProcessId) {
    std::vector<MsgId> ids;
    ids.reserve(pending_.size());
    for (const auto& [id, p] : pending_) ids.push_back(id);
    for (MsgId id : ids) maybePropose(id);
  });

  // And the dual, for the retraction side of fault plane v2: once a
  // suspicion is retracted (the process recovered, or a healed partition
  // let its heartbeats through again), the vote quorum waits on that
  // process AGAIN — but it may have missed the kData while unreachable
  // and then it will never vote. Re-introduce every pending message it
  // owes a vote on; noteMessage dedups at the receiver, so this is
  // idempotent for a process that merely timed out spuriously.
  //
  // Which messages it owes depends on WHY the suspicion ended. A
  // rehabilitated process (healed partition, premature timeout — same
  // incarnation) kept its state: only messages it never voted on can be
  // missing, and kData is enough. A FRESH incarnation lost every pending
  // message AND every vote it had collected — including for messages it
  // voted on before dying, which the pre-PR6 handler skipped, stranding
  // the rejoin (its buffered consensus packets wait forever on a kData
  // that never comes). For those, relay our whole COLLECTED VOTE MAP
  // (every vote is broadcast to all destination processes, so a correct
  // process's map is complete): the rejoin re-notes the message off the
  // first relayed vote, re-votes, completes its vote set from the relay
  // alone — even for messages other peers already delivered and will
  // never mention again — and proposes; an already-decided instance
  // answers the proposal with its decision (maybeRetransmitDecision).
  // Re-sending only kData, or only our own vote, deadlocks the rejoin
  // instead: it can never complete the vote set of a message whose other
  // voters moved on, never proposes, never hears the decision, and its
  // delivery queue stalls behind the undecidable entry forever.
  fd().onRetraction([this](ProcessId p, bool fresh) {
    const GroupId pg = topology().group(p);
    for (const auto& [id, pend] : pending_) {
      if (!pend.msg->dest.contains(pg)) continue;
      if (fresh) {
        for (const auto& [voter, ts] : pend.votes)
          send(p, std::make_shared<const RodriguesPayload>(
                      RodriguesPayload::Kind::kVote, pend.msg, ts, voter));
      } else if (pend.votes.count(p) == 0) {
        send(p, std::make_shared<const RodriguesPayload>(
                    RodriguesPayload::Kind::kData, pend.msg, 0));
      }
    }
  });
}

void RodriguesNode::xcast(const AppMsgPtr& m) {
  assert(!m->dest.empty());
  recordXcast(m);
  auto data = std::make_shared<const RodriguesPayload>(
      RodriguesPayload::Kind::kData, m, 0);
  std::vector<ProcessId> tos;
  for (ProcessId q : topology().membersOf(m->dest))
    if (q != pid()) tos.push_back(q);
  sendToMany(tos, data);
  if (m->dest.contains(gid())) noteMessage(m);
}

consensus::ConsensusService& RodriguesNode::serviceFor(const AppMsgPtr& m) {
  if (auto* svc = findConsensus(kScopeBase + m->id)) return *svc;
  return addConsensus(kScopeBase + m->id, topology().membersOf(m->dest));
}

void RodriguesNode::noteMessage(const AppMsgPtr& m) {
  if (!m->dest.contains(gid())) return;
  if (delivered_.count(m->id) || pending_.count(m->id)) return;

  Pend& p = pending_[m->id];
  p.msg = m;
  p.myVote = clock_++;
  p.votes[pid()] = p.myVote;
  knownMsgs_[m->id] = m;

  // One consensus instance per message, across the destination processes.
  auto& svc = serviceFor(m);
  svc.onDecide([this, id = m->id](consensus::Instance,
                                  const ConsensusValue& v) {
    onDecided(id, v.get<uint64_t>());
  });

  auto vote = std::make_shared<const RodriguesPayload>(
      RodriguesPayload::Kind::kVote, m, p.myVote);
  std::vector<ProcessId> voteTos;
  for (ProcessId q : topology().membersOf(m->dest))
    if (q != pid()) voteTos.push_back(q);
  sendToMany(voteTos, vote);

  // Replay consensus packets that arrived before we knew the message.
  auto early = std::move(earlyConsensus_);
  earlyConsensus_.clear();
  for (auto& [from, payload] : early) onMessage(from, payload);

  maybePropose(m->id);
}

void RodriguesNode::onProtocolMessage(ProcessId from, const PayloadPtr& p) {
  const auto* rp = dynamic_cast<const RodriguesPayload*>(p.get());
  assert(rp != nullptr);
  noteMessage(rp->msg);
  if (rp->kind == RodriguesPayload::Kind::kVote) {
    auto it = pending_.find(rp->msg->id);
    if (it != pending_.end()) {
      // Relayed votes (amnesiac catch-up) carry an explicit voter; a
      // normal vote is the sender's own.
      const ProcessId voter = rp->voter == kNoProcess ? from : rp->voter;
      it->second.votes[voter] = rp->ts;
      // Keep the local clock ahead of every vote seen: later messages then
      // vote (and decide) above everything already ordered.
      clock_ = std::max(clock_, rp->ts + 1);
      maybePropose(rp->msg->id);
    }
  }
}

consensus::ConsensusService* RodriguesNode::onUnknownConsensusScope(
    ProcessId from, const consensus::ConsensusPayload& cp) {
  // A consensus packet for a message we have not seen yet (possible under
  // heavy jitter): buffer it; noteMessage replays it once m arrives.
  earlyConsensus_.push_back(
      {from, std::make_shared<consensus::ConsensusPayload>(cp)});
  return nullptr;
}

void RodriguesNode::maybePropose(MsgId id) {
  if (joining()) return;  // rejoin in progress: no proposal initiation
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pend& p = it->second;
  if (p.proposed || p.decided) return;

  // Wait for a vote from every unsuspected destination process, and at
  // least a majority of every destination group.
  for (GroupId g : p.msg->dest.groups()) {
    size_t have = 0;
    for (ProcessId q : topology().members(g)) {
      if (p.votes.count(q)) {
        ++have;
      } else if (!fd().suspects(q)) {
        return;  // still waiting for a live voter
      }
    }
    if (have < static_cast<size_t>(topology().groupSize(g)) / 2 + 1) return;
  }

  uint64_t maxVote = 0;
  for (const auto& [q, v] : p.votes) maxVote = std::max(maxVote, v);
  p.proposed = true;
  serviceFor(p.msg).propose(1, maxVote);
}

void RodriguesNode::onDecided(MsgId id, uint64_t finalTs) {
  auto it = pending_.find(id);
  if (it == pending_.end() || it->second.decided) return;
  it->second.decided = true;
  it->second.finalTs = finalTs;
  clock_ = std::max(clock_, finalTs + 1);
  tryDeliver();
}

void RodriguesNode::tryDeliver() {
  if (joining()) return;  // decisions buffer in pending_; delivery waits
  // Deliver decided messages in (finalTs, id) order, held back by any
  // pending message whose final timestamp could still be smaller. Our own
  // vote is a lower bound on every final timestamp (the decision is a
  // maximum over a vote set that includes every unsuspected process).
  for (;;) {
    const Pend* best = nullptr;
    MsgId bestId = 0;
    for (const auto& [id, p] : pending_) {
      const uint64_t bound = p.decided ? p.finalTs : p.myVote;
      if (best == nullptr ||
          std::pair(bound, id) <
              std::pair(best->decided ? best->finalTs : best->myVote,
                        bestId)) {
        best = &p;
        bestId = id;
      }
    }
    if (best == nullptr || !best->decided) return;

    AppMsgPtr m = best->msg;
    delivered_.insert(bestId);
    pending_.erase(bestId);
    adeliver(m);
  }
}

// ---------------------------------------------------------------------------
// Bootstrap snapshot surface.
// ---------------------------------------------------------------------------

uint64_t RodriguesNode::BootState::approxBytes() const {
  uint64_t b = 8;
  for (const auto& [id, p] : pending)
    b += 48 + p.msg->body.size() + 16 * p.votes.size();
  b += 8 * delivered.size() + 16 * knownMsgs.size();
  return b;
}

std::shared_ptr<bootstrap::ProtocolState>
RodriguesNode::snapshotProtocolState() const {
  auto s = std::make_shared<BootState>();
  s->clock = clock_;
  s->pending = pending_;
  s->delivered = delivered_;
  s->knownMsgs = knownMsgs_;
  return s;
}

void RodriguesNode::installProtocolState(const bootstrap::Snapshot& snap) {
  const auto* s = dynamic_cast<const BootState*>(snap.protocol.get());
  if (s == nullptr) return;
  // Clock first: every vote this incarnation casts below must land above
  // everything the donor has already ordered.
  clock_ = std::max(clock_, s->clock);
  delivered_.insert(s->delivered.begin(), s->delivered.end());
  for (const auto& [id, m] : s->knownMsgs) knownMsgs_.emplace(id, m);

  for (const auto& [id, dp] : s->pending) {
    if (delivered_.count(id)) continue;
    if (pending_.count(id) == 0) {
      // First sight via the snapshot: noteMessage recreates the per-message
      // consensus scope and casts OUR vote (the donor's myVote is its own).
      noteMessage(dp.msg);
    }
    auto it = pending_.find(id);
    if (it == pending_.end()) continue;  // not an addressee
    Pend& p = it->second;
    for (const auto& [voter, ts] : dp.votes) p.votes.emplace(voter, ts);
    if (dp.decided && !p.decided) {
      p.decided = true;
      p.finalTs = dp.finalTs;
      clock_ = std::max(clock_, dp.finalTs + 1);
    }
  }
  // Entries the donor delivered may still linger locally (vote intake
  // during the joining window): drop them, the suffix replay covers them.
  for (MsgId id : s->delivered) pending_.erase(id);
}

void RodriguesNode::resumeAfterInstall() {
  std::vector<MsgId> ids;
  ids.reserve(pending_.size());
  for (const auto& [id, p] : pending_) ids.push_back(id);
  for (MsgId id : ids) maybePropose(id);
  tryDeliver();
}

}  // namespace wanmc::amcast
