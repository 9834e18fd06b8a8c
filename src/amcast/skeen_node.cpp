#include "amcast/skeen_node.hpp"

#include <algorithm>
#include <cassert>

namespace wanmc::amcast {

SkeenNode::SkeenNode(exec::Context& rt, ProcessId pid,
                     const core::StackConfig& cfg)
    : core::XcastNode(rt, pid, cfg) {}

void SkeenNode::xcast(const AppMsgPtr& m) {
  assert(!m->dest.empty());
  recordXcast(m);
  auto data = std::make_shared<const SkeenPayload>(SkeenPayload::Kind::kData,
                                                   m, 0);
  sendToMany(peers_.of(m->dest), data);
  if (m->dest.contains(gid())) noteMessage(m);
}

void SkeenNode::onProtocolMessage(ProcessId from, const PayloadPtr& p) {
  const auto* sp = dynamic_cast<const SkeenPayload*>(p.get());
  assert(sp != nullptr);
  noteMessage(sp->msg);
  if (sp->kind == SkeenPayload::Kind::kVote) {
    auto it = pending_.find(sp->msg->id);
    if (it != pending_.end() && !it->second.decided) {
      it->second.votes[from] = sp->ts;
      clock_ = std::max(clock_, sp->ts + 1);
      maybeDecide(sp->msg->id);
    }
  }
}

void SkeenNode::noteMessage(const AppMsgPtr& m) {
  if (!m->dest.contains(gid())) return;
  if (delivered_.count(m->id) || pending_.count(m->id)) return;
  Pend& p = pending_[m->id];
  p.msg = m;
  p.myVote = clock_++;
  p.votes[pid()] = p.myVote;
  // Decentralized vote exchange: every destination process learns every
  // vote, so everyone computes the same maximum without a round trip
  // through the sender.
  auto vote = std::make_shared<const SkeenPayload>(SkeenPayload::Kind::kVote,
                                                   m, p.myVote);
  sendToMany(peers_.of(m->dest), vote);
  maybeDecide(m->id);
}

void SkeenNode::maybeDecide(MsgId id) {
  Pend& p = pending_.at(id);
  // Failure-free model: wait for the vote of EVERY destination process.
  // Every pending entry already holds this process's own vote (noteMessage
  // casts it, installProtocolState adopts it), so the peers are the rest.
  for (ProcessId q : peers_.of(p.msg->dest))
    if (p.votes.count(q) == 0) return;
  uint64_t max = 0;
  for (const auto& [q, v] : p.votes) max = std::max(max, v);
  p.decided = true;
  p.finalTs = max;
  clock_ = std::max(clock_, max + 1);
  tryDeliver();
}

void SkeenNode::tryDeliver() {
  if (joining()) return;  // votes buffer in pending_; delivery waits
  // Deliver decided messages in (finalTs, id) order. An undecided message
  // holds everything with a larger (bound, id) back; our own vote is a
  // lower bound on its final timestamp (the maximum includes it).
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

uint64_t SkeenNode::BootState::approxBytes() const {
  uint64_t b = 8;
  for (const auto& [id, p] : pending)
    b += 48 + p.msg->body.size() + 16 * p.votes.size();
  return b + 8 * delivered.size();
}

std::shared_ptr<bootstrap::ProtocolState> SkeenNode::snapshotProtocolState()
    const {
  auto s = std::make_shared<BootState>();
  s->clock = clock_;
  s->pending = pending_;
  s->delivered = delivered_;
  return s;
}

void SkeenNode::installProtocolState(const bootstrap::Snapshot& snap) {
  const auto* s = dynamic_cast<const BootState*>(snap.protocol.get());
  if (s == nullptr) return;
  clock_ = std::max(clock_, s->clock);
  delivered_.insert(s->delivered.begin(), s->delivered.end());

  for (const auto& [id, dp] : s->pending) {
    if (delivered_.count(id)) continue;
    if (pending_.count(id) == 0) {
      if (auto v = dp.votes.find(pid()); v != dp.votes.end()) {
        // The dead incarnation voted on m before crashing: adopt that vote
        // (peers hold it) instead of casting a conflicting fresh one.
        Pend& p = pending_[id];
        p.msg = dp.msg;
        p.myVote = v->second;
      } else {
        // Peers are stuck waiting for this process's vote: cast it.
        noteMessage(dp.msg);
      }
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
  for (MsgId id : s->delivered) pending_.erase(id);
}

void SkeenNode::resumeAfterInstall() {
  std::vector<MsgId> ids;
  ids.reserve(pending_.size());
  for (const auto& [id, p] : pending_) ids.push_back(id);
  for (MsgId id : ids)
    if (pending_.count(id)) maybeDecide(id);
  tryDeliver();
}

}  // namespace wanmc::amcast
