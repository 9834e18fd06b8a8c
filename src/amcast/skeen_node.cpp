#include "amcast/skeen_node.hpp"

#include <algorithm>
#include <cassert>

#include "common/consensus_value.hpp"

namespace wanmc::amcast {

namespace {

uint64_t maxVote(const std::map<ProcessId, uint64_t>& votes) {
  uint64_t max = 0;
  for (const auto& [q, v] : votes) max = std::max(max, v);
  return max;
}

}  // namespace

SkeenNode::SkeenNode(exec::Context& rt, ProcessId pid,
                     const core::StackConfig& cfg, SkeenVariant variant)
    : core::XcastNode(rt, pid, cfg), variant_(variant) {
  // Skeen87 is failure-free: it neither widens the detector (which would
  // add heartbeat lanes) nor reacts to it.
  if (variant_ == SkeenVariant::kSkeen87) return;

  // Votes and consensus run ACROSS the destination groups, so suspicion of
  // REMOTE processes matters here — unlike the group-scoped stacks. Widen
  // the detector to every other group: the oracle is global already (this
  // is a no-op), and the heartbeat detector adds one inter-group lane per
  // remote group; without it a remote crash under HeartbeatFd would go
  // unnoticed and the vote quorum would hang forever.
  for (GroupId g = 0; g < topology().numGroups(); ++g)
    if (g != gid()) fd().addRemoteGroup(g, topology().members(g));

  // A crash can be the event that completes a vote quorum: maybeDecide
  // waits for every unsuspected destination process, so a new suspicion
  // must re-evaluate every pending message or the survivors hang.
  fd().onSuspicion([this](ProcessId) {
    std::vector<MsgId> ids;
    ids.reserve(pending_.size());
    for (const auto& [id, p] : pending_) ids.push_back(id);
    for (MsgId id : ids) maybeDecide(id);
  });

  // And the dual, for the retraction side of the fault plane: once a
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
  // voted on before dying; skipping those strands the rejoin (its
  // buffered consensus packets wait forever on a kData that never
  // comes). For those, relay our whole COLLECTED VOTE MAP (every vote is
  // broadcast to all destination processes, so a correct process's map
  // is complete): the rejoin re-notes the message off the first relayed
  // vote, re-votes, completes its vote set from the relay alone — even
  // for messages other peers already delivered and will never mention
  // again — and proposes; an already-decided instance answers the
  // proposal with its decision (maybeRetransmitDecision). Re-sending only
  // kData, or only our own vote, deadlocks the rejoin instead: it can
  // never complete the vote set of a message whose other voters moved on,
  // never proposes, never hears the decision, and its delivery queue
  // stalls behind the undecidable entry forever.
  fd().onRetraction([this](ProcessId p, bool fresh) {
    const GroupId pg = topology().group(p);
    for (const auto& [id, pend] : pending_) {
      if (!pend.msg->dest.contains(pg)) continue;
      if (fresh) {
        for (const auto& [voter, ts] : pend.votes)
          send(p, std::make_shared<const SkeenPayload>(
                      SkeenPayload::Kind::kVote, pend.msg, ts, voter));
      } else if (pend.votes.count(p) == 0) {
        send(p, std::make_shared<const SkeenPayload>(
                    SkeenPayload::Kind::kData, pend.msg, 0));
      }
    }
  });
}

void SkeenNode::xcast(const AppMsgPtr& m) {
  assert(!m->dest.empty());
  recordXcast(m);
  auto data = std::make_shared<const SkeenPayload>(SkeenPayload::Kind::kData,
                                                   m, 0);
  sendToMany(peers_.of(m->dest), data);
  if (m->dest.contains(gid())) noteMessage(m);
}

consensus::ConsensusService& SkeenNode::serviceFor(const AppMsgPtr& m) {
  if (auto* svc = findConsensus(kScopeBase + m->id)) return *svc;
  return addConsensus(kScopeBase + m->id, topology().membersOf(m->dest));
}

void SkeenNode::onProtocolMessage(ProcessId from, const PayloadPtr& p) {
  const auto* sp = dynamic_cast<const SkeenPayload*>(p.get());
  assert(sp != nullptr);
  noteMessage(sp->msg);
  if (sp->kind != SkeenPayload::Kind::kVote) return;
  auto it = pending_.find(sp->msg->id);
  if (it == pending_.end()) return;
  // A Skeen87 decision already holds every destination process's vote: a
  // later one can only be a recovered process's second vote, which must
  // move neither the entry nor the clock.
  if (variant_ == SkeenVariant::kSkeen87 && it->second.decided) return;
  // Relayed votes (amnesiac catch-up) carry an explicit voter; a normal
  // vote is the sender's own.
  it->second.votes[sp->voter == kNoProcess ? from : sp->voter] = sp->ts;
  // Keep the local clock ahead of every vote seen: later messages then
  // vote (and decide) above everything already ordered.
  clock_ = std::max(clock_, sp->ts + 1);
  maybeDecide(sp->msg->id);
}

consensus::ConsensusService* SkeenNode::onUnknownConsensusScope(
    ProcessId from, const consensus::ConsensusPayload& cp) {
  // A consensus packet (kRodrigues98) for a message we have not seen yet
  // (possible under heavy jitter): buffer it; noteMessage replays it once
  // m arrives.
  earlyConsensus_.push_back(
      {from, std::make_shared<consensus::ConsensusPayload>(cp)});
  return nullptr;
}

void SkeenNode::noteMessage(const AppMsgPtr& m) {
  if (!m->dest.contains(gid())) return;
  if (ordered(m->id) || pending_.count(m->id)) return;
  Pend& p = pending_[m->id];
  p.msg = m;
  if (variant_ == SkeenVariant::kRodrigues98) {
    // One consensus instance per message, across the destination
    // processes.
    serviceFor(m).onDecide(
        [this, id = m->id](consensus::Instance, const ConsensusValue& v) {
          decide(id, v.get<uint64_t>());
        });
  } else if (joining()) {
    return;  // its dead incarnation may have voted: see installProtocolState
  }
  castVote(p);

  // Replay consensus packets that arrived before we knew the message.
  auto early = std::move(earlyConsensus_);
  earlyConsensus_.clear();
  for (auto& [from, payload] : early) onMessage(from, payload);

  maybeDecide(m->id);
}

void SkeenNode::castVote(Pend& p) {
  p.myVote = clock_++;
  p.votes[pid()] = p.myVote;
  // Decentralized vote exchange: every destination process learns every
  // vote, so everyone computes the same maximum without a round trip
  // through the sender.
  sendToMany(peers_.of(p.msg->dest),
             std::make_shared<const SkeenPayload>(SkeenPayload::Kind::kVote,
                                                  p.msg, p.myVote));
}

void SkeenNode::maybeDecide(MsgId id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pend& p = it->second;

  if (variant_ == SkeenVariant::kSkeen87) {
    // Failure-free model: wait for the vote of EVERY destination process,
    // this one's included (a joining process holds its own back).
    if (p.myVote == 0) return;
    for (ProcessId q : peers_.of(p.msg->dest))
      if (p.votes.count(q) == 0) return;
    decide(id, maxVote(p.votes));
    return;
  }

  if (joining()) return;  // rejoin in progress: no proposal initiation
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
  p.proposed = true;
  serviceFor(p.msg).propose(1, maxVote(p.votes));
}

void SkeenNode::decide(MsgId id, uint64_t finalTs) {
  auto it = pending_.find(id);
  if (it == pending_.end() || it->second.decided) return;
  it->second.decided = true;
  it->second.finalTs = finalTs;
  clock_ = std::max(clock_, finalTs + 1);
  tryDeliver();
}

void SkeenNode::tryDeliver() {
  if (joining()) return;  // decisions buffer in pending_; delivery waits
  // Deliver decided messages in (finalTs, id) order, held back by any
  // pending message whose final timestamp could still be smaller. Our own
  // vote is a lower bound on every final timestamp (see the header).
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
    pending_.erase(bestId);
    adeliver(m);
  }
}

// ---------------------------------------------------------------------------
// Bootstrap snapshot surface.
// ---------------------------------------------------------------------------

uint64_t SkeenNode::BootState::approxBytes() const {
  uint64_t b = 8;
  for (const auto& [id, p] : pending)
    b += 48 + p.msg->body.size() + 16 * p.votes.size();
  return b;
}

std::shared_ptr<bootstrap::ProtocolState> SkeenNode::snapshotProtocolState()
    const {
  auto s = std::make_shared<BootState>();
  s->clock = clock_;
  s->pending = pending_;
  return s;
}

void SkeenNode::installProtocolState(const bootstrap::Snapshot& snap) {
  const auto* s = dynamic_cast<const BootState*>(snap.protocol.get());
  if (s == nullptr) return;
  // Clock first: every vote this incarnation casts must land above
  // everything the donor has already ordered.
  clock_ = std::max(clock_, s->clock);

  for (const auto& [id, dp] : s->pending) {
    if (ordered(id)) continue;
    // First sight via the snapshot: noteMessage records m (a Rodrigues98
    // rejoiner also recreates its consensus scope and casts OUR vote; the
    // donor's myVote is its own).
    noteMessage(dp.msg);
    auto it = pending_.find(id);
    if (it == pending_.end()) continue;  // not an addressee
    Pend& p = it->second;
    for (const auto& [voter, ts] : dp.votes) p.votes.emplace(voter, ts);
    // A process still without a vote (Skeen87 holds it while joining)
    // adopts the one its dead incarnation cast, which peers hold, instead
    // of casting a conflicting fresh one.
    if (p.myVote == 0)
      if (auto v = p.votes.find(pid()); v != p.votes.end())
        p.myVote = v->second;
    if (dp.decided) decide(id, dp.finalTs);
  }
  // Entries the donor delivered may still linger locally (vote intake
  // during the joining window): drop them, the suffix replay covers them.
  for (MsgId id : snap.ordered) pending_.erase(id);
}

void SkeenNode::resumeAfterInstall() {
  std::vector<MsgId> ids;
  ids.reserve(pending_.size());
  for (auto& [id, p] : pending_) {
    ids.push_back(id);
    if (p.myVote == 0) castVote(p);  // a vote Skeen87 held while joining
  }
  for (MsgId id : ids) maybeDecide(id);
  tryDeliver();
}

}  // namespace wanmc::amcast
