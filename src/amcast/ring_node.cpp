#include "amcast/ring_node.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace wanmc::amcast {

RingNode::RingNode(exec::Context& rt, ProcessId pid,
                   const core::StackConfig& cfg)
    : core::XcastNode(rt, pid, cfg) {
  groupConsensus_ = &addGroupConsensus();
  groupConsensus_->onDecide(
      [this](consensus::Instance, const ConsensusValue&) { drainDecisions(); });
}

GroupId RingNode::nextGroup(const AppMessage& m, GroupId g) {
  auto ring = m.dest.groups();  // ascending group ids
  for (size_t i = 0; i + 1 < ring.size(); ++i)
    if (ring[i] == g) return ring[i + 1];
  return kNoGroup;
}

void RingNode::xcast(const AppMsgPtr& m) {
  assert(!m->dest.empty());
  recordXcast(m);
  const GroupId g1 = firstGroup(*m);
  auto start =
      std::make_shared<const RingPayload>(RingPayload::Kind::kStart, m, 0);
  sendToMany(peers_.of(GroupSet::single(g1)), start);
  if (gid() == g1) noteCandidate(m, /*defined=*/false, 0);
}

void RingNode::onProtocolMessage(ProcessId /*from*/, const PayloadPtr& p) {
  const auto* rp = dynamic_cast<const RingPayload*>(p.get());
  assert(rp != nullptr);
  switch (rp->kind) {
    case RingPayload::Kind::kStart:
      noteCandidate(rp->msg, /*defined=*/false, 0);
      break;
    case RingPayload::Kind::kHandover:
      noteCandidate(rp->msg, /*defined=*/true, rp->ts);
      break;
    case RingPayload::Kind::kAck:
      // Every member of gk acks: the copies after the first find m ordered.
      if (ordered(rp->msg->id)) break;
      acked_.insert(rp->msg->id);
      pumpQueue();
      break;
  }
}

void RingNode::noteCandidate(const AppMsgPtr& m, bool defined, uint64_t ts) {
  if (ordered(m->id) || agreed_.count(m->id) || candidates_.count(m->id))
    return;
  candidates_[m->id] = Cand{m, defined, ts};
  tryPropose();
}

void RingNode::tryPropose() {
  if (joining()) return;  // rejoin in progress: no proposal initiation
  if (propK_ > K_) return;
  A1EntrySet set;
  for (const auto& [id, c] : candidates_) {
    // Reuse the A1 entry encoding: s0 = "this group defines the timestamp",
    // s2 = "accept the handed-over timestamp `ts`".
    set.push_back(A1Entry{c.msg, c.defined ? Stage::s2 : Stage::s0, c.ts});
  }
  if (set.empty()) return;
  canonicalize(set);
  propK_ = K_ + 1;
  groupConsensus_->propose(K_, std::move(set));
}

void RingNode::drainDecisions() {
  // In clock order, and nothing while joining (see A1Node::drainDecisions).
  if (joining()) return;
  while (const ConsensusValue* v = groupConsensus_->decision(K_))
    handleDecided(K_, v->get<A1EntrySet>());
}

void RingNode::handleDecided(uint64_t k, const A1EntrySet& entries) {
  uint64_t maxTs = k;
  for (const A1Entry& e : entries) {
    const MsgId id = e.msg->id;
    candidates_.erase(id);
    if (ordered(id) || agreed_.count(id)) continue;
    // g1 defines the timestamp as the consensus instance number; later
    // groups adopt the handed-over one and push their clock past it.
    const uint64_t ts = (e.stage == Stage::s0) ? k : e.ts;
    agreed_[id] = Cand{e.msg, true, ts};
    queue_.push_back(id);  // entries are sorted by id: deterministic order
    maxTs = std::max(maxTs, ts);
  }
  K_ = std::max(maxTs, K_) + 1;
  pumpQueue();
  tryPropose();
}

void RingNode::pumpQueue() {
  if (joining()) return;  // acks buffer in acked_; the queue waits
  while (!queue_.empty()) {
    const MsgId id = queue_.front();
    const Cand& c = agreed_.at(id);
    const AppMessage& m = *c.msg;

    if (!forwarded_.count(id)) {
      forwarded_.insert(id);
      const GroupId next = nextGroup(m, gid());
      if (next != kNoGroup) {
        // Hand m over to the next group on its ring (all-to-all between the
        // two groups, for fault tolerance: any correct member keeps the
        // chain alive).
        auto h = std::make_shared<const RingPayload>(
            RingPayload::Kind::kHandover, c.msg, c.ts);
        sendToMany(topology().members(next), h);
      } else {
        // We are gk: acknowledge to every destination process outside our
        // group; our own group learns locally.
        auto a = std::make_shared<const RingPayload>(RingPayload::Kind::kAck,
                                                     c.msg, c.ts);
        sendToMany(ackDests_.of(m.dest.without(gid())), a);
        acked_.insert(id);
      }
    }

    if (!acked_.count(id)) return;  // head-of-line wait for the final ack

    AppMsgPtr msg = c.msg;
    queue_.pop_front();
    agreed_.erase(id);
    forwarded_.erase(id);
    acked_.erase(id);
    adeliver(msg);
  }
}

// ---------------------------------------------------------------------------
// Bootstrap snapshot surface.
// ---------------------------------------------------------------------------

uint64_t RingNode::BootState::approxBytes() const {
  uint64_t b = 16;
  for (const auto& [id, c] : candidates) b += 40 + c.msg->body.size();
  for (const auto& [id, c] : agreed) b += 40 + c.msg->body.size();
  b += 8 * (queue.size() + acked.size() + forwarded.size());
  return b;
}

std::shared_ptr<bootstrap::ProtocolState> RingNode::snapshotProtocolState()
    const {
  auto s = std::make_shared<BootState>();
  s->K = K_;
  s->propK = propK_;
  s->candidates = candidates_;
  s->queue = queue_;
  s->agreed = agreed_;
  s->acked = acked_;
  s->forwarded = forwarded_;
  return s;
}

void RingNode::installProtocolState(const bootstrap::Snapshot& snap) {
  const auto* s = dynamic_cast<const BootState*>(snap.protocol.get());
  if (s == nullptr) return;
  // Final-group acks are global facts, valid from any donor (gk broadcasts
  // them to every destination process), as is the snapshot's ordered part.
  // Acks DO land during the joining window (union them).
  acked_.insert(s->acked.begin(), s->acked.end());
  if (snap.donorGroup == gid()) {
    // Group-scoped pieces: the clocks, the agreed queue and the candidate
    // table describe the DONOR's group's position on each message's ring —
    // only a groupmate's apply. The queue and its bookkeeping are produced
    // only by decisions, and the joining gate kept drainDecisions from
    // applying any, so the local ones are empty and the donor's are
    // adopted wholesale.
    K_ = std::max(K_, s->K);
    propK_ = std::max(propK_, s->propK);
    queue_ = s->queue;
    agreed_ = s->agreed;
    forwarded_ = s->forwarded;
    for (const auto& [id, c] : s->candidates) candidates_[id] = c;
  }
  for (auto it = acked_.begin(); it != acked_.end();)
    it = ordered(*it) ? acked_.erase(it) : std::next(it);
  for (auto it = candidates_.begin(); it != candidates_.end();)
    it = (ordered(it->first) || agreed_.count(it->first))
             ? candidates_.erase(it)
             : std::next(it);
}

void RingNode::resumeAfterInstall() {
  drainDecisions();
  pumpQueue();
  tryPropose();
}

}  // namespace wanmc::amcast
