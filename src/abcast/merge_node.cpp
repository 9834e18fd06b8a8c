#include "abcast/merge_node.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace wanmc::abcast {

MergeNode::MergeNode(exec::Context& rt, ProcessId pid,
                     const core::StackConfig& cfg, MergeOptions opts)
    : core::XcastNode(rt, pid, cfg),
      opts_(opts),
      streams_(static_cast<size_t>(rt.topology().numProcesses())) {
  for (ProcessId q : rt.topology().allProcesses())
    if (q != pid) others_.push_back(q);
}

void MergeNode::startProtocol() {
  tick();
}

// Merge events are published every heartbeat period by every process — the
// dominant allocation of long runs. They are drawn from the runtime's
// payload arena: allocate_shared fuses object + control block into one
// pooled block that is recycled as soon as every subscriber consumed it.
std::shared_ptr<const MergePayload> MergeNode::makeEvent(bool heartbeat,
                                                         AppMsgPtr msg,
                                                         uint64_t ts) {
  return std::allocate_shared<const MergePayload>(
      PoolAllocator<const MergePayload>(&runtime().payloadArena()),
      heartbeat, std::move(msg), ts, pubSeq_++);
}

void MergeNode::tick() {
  // Publish a heartbeat carrying the current tick: it advances our stream
  // frontier at every subscriber even when we have nothing to say, which
  // is what lets every subscriber run the same deterministic merge.
  // Heartbeats are for IDLE publishers ([1]): a publisher that sent a data
  // event within the last period stays silent — the data already advanced
  // its frontier, and a redundant heartbeat would tick the Lamport clock
  // past the publisher's own delivery of that data. A JOINING publisher
  // stays silent too: until the install hands over the dead incarnation's
  // seq counter, anything it published would collide with that stream.
  if (!joining() &&
      (now() == 0 || now() - lastSentAt_ >= opts_.heartbeatPeriod)) {
    publish(/*heartbeat=*/true, nullptr);
  }
  timer(opts_.heartbeatPeriod, [this]() { tick(); });
}

void MergeNode::publish(bool heartbeat, const AppMsgPtr& msg) {
  // Events are stamped with the CURRENT tick: several events of one
  // publisher may share a tick and are ordered by their event counter.
  const uint64_t ts = nowTick();
  lastSentAt_ = now();
  auto ev = makeEvent(heartbeat, msg, ts);
  // [1]'s model has publishers cast to EVERY subscriber (that is what keeps
  // every stream frontier moving); a non-addressee of a data event merges
  // it too, and adeliver skips it there.
  sendToMany(others_, ev);
  advanceStream(pid(), ev);
}

void MergeNode::xcast(const AppMsgPtr& m) {
  recordXcast(m);
  if (joining()) {
    deferredCasts_.push_back(m);  // published at install, seq-continued
    return;
  }
  publish(/*heartbeat=*/false, m);
}

void MergeNode::onProtocolMessage(ProcessId from, const PayloadPtr& p) {
  assert(dynamic_cast<const MergePayload*>(p.get()) != nullptr);
  advanceStream(from, p);
}

void MergeNode::applyEvent(ProcessId pub, Stream& s,
                           const MergePayload& ev) {
  s.frontierTs = ev.eventTs;
  if (!ev.isHeartbeat) mergeBuf_[{ev.eventTs, pub, ev.seq}] = ev.msg;
  ++s.nextSeq;
}

void MergeNode::advanceStream(ProcessId pub, const PayloadPtr& p) {
  const auto& ev = static_cast<const MergePayload&>(*p);
  Stream& s = streams_[static_cast<size_t>(pub)];
  if (ev.seq == s.nextSeq) {
    // In-order arrival (every arrival when the publish period exceeds the
    // link jitter): consume in place, no buffering, no shared_ptr copy.
    applyEvent(pub, s, ev);
    // A filled gap may release buffered successors. Links are not FIFO;
    // the per-publisher event counter restores stream order.
    while (!s.buffered.empty()) {
      auto it = s.buffered.find(s.nextSeq);
      if (it == s.buffered.end()) break;
      applyEvent(pub, s, *it->second);
      s.buffered.erase(it);
    }
  } else if (ev.seq > s.nextSeq) {
    // Out of order: hold until the gap fills.
    s.buffered[ev.seq] = std::static_pointer_cast<const MergePayload>(p);
  }
  tryDeliver();
}

void MergeNode::tryDeliver() {
  if (joining()) return;  // streams buffer; the merge waits for install
  // A buffered event (ts, P, seq) is deliverable once no event that sorts
  // before it can still arrive. Publishers stamp nondecreasing ticks, so a
  // publisher Q can still produce events with timestamp equal to its
  // frontier: an event of Q with the SAME ts would sort before ours iff
  // Q < P, hence the strict frontier requirement for smaller-id publishers
  // and the non-strict one for larger ids.
  while (!mergeBuf_.empty()) {
    auto it = mergeBuf_.begin();
    const auto [ts, pub, seq] = it->first;
    bool deliverable = true;
    const auto n = static_cast<ProcessId>(streams_.size());
    for (ProcessId q = 0; q < n; ++q) {
      if (q == pub) continue;
      const Stream& s = streams_[static_cast<size_t>(q)];
      if (q < pub ? s.frontierTs <= ts : s.frontierTs < ts) {
        deliverable = false;
        break;
      }
    }
    if (!deliverable) break;
    AppMsgPtr m = it->second;
    mergeBuf_.erase(it);
    adeliver(m);
  }
}

// ---------------------------------------------------------------------------
// Bootstrap snapshot surface.
// ---------------------------------------------------------------------------

uint64_t MergeNode::BootState::approxBytes() const {
  uint64_t b = 0;
  for (const Stream& s : streams) b += 24 + 32 * s.buffered.size();
  for (const auto& [key, m] : mergeBuf) b += 32 + m->body.size();
  return b;
}

std::shared_ptr<bootstrap::ProtocolState> MergeNode::snapshotProtocolState()
    const {
  auto s = std::make_shared<BootState>();
  s->streams = streams_;
  s->mergeBuf = mergeBuf_;
  return s;
}

void MergeNode::installProtocolState(const bootstrap::Snapshot& snap) {
  const auto* s = dynamic_cast<const BootState*>(snap.protocol.get());
  if (s == nullptr || s->streams.size() != streams_.size()) return;
  // Per-publisher stream merge: whichever side is further along wins, the
  // other side's out-of-order holdings graft on beyond the frontier.
  for (size_t q = 0; q < streams_.size(); ++q) {
    Stream& l = streams_[q];
    const Stream& d = s->streams[q];
    if (d.nextSeq > l.nextSeq) {
      auto keep = std::move(l.buffered);
      l = d;
      for (auto& [seq, ev] : keep)
        if (seq >= l.nextSeq) l.buffered.emplace(seq, std::move(ev));
    } else {
      for (const auto& [seq, ev] : d.buffered)
        if (seq >= l.nextSeq) l.buffered.emplace(seq, ev);
    }
    // The graft may have closed a gap.
    while (true) {
      auto it = l.buffered.find(l.nextSeq);
      if (it == l.buffered.end()) break;
      applyEvent(static_cast<ProcessId>(q), l, *it->second);
      l.buffered.erase(it);
    }
  }
  for (const auto& [key, m] : s->mergeBuf) mergeBuf_.emplace(key, m);
  // Events the donor already merged out may still sit in our buffer (they
  // arrived during the joining window); the suffix replay covers them. The
  // buffer holds stream events, batch carriers included: the ordered ids
  // name them, the suffix's casts do not.
  for (auto it = mergeBuf_.begin(); it != mergeBuf_.end();)
    it = ordered(it->second->id) ? mergeBuf_.erase(it) : std::next(it);
  // The publisher handoff: continue the dead incarnation's event counter
  // past everything any subscriber could have seen of it.
  const Stream& self = streams_[static_cast<size_t>(pid())];
  uint64_t seq = std::max(pubSeq_, self.nextSeq);
  if (!self.buffered.empty()) seq = std::max(seq, self.buffered.rbegin()->first + 1);
  pubSeq_ = seq;
}

void MergeNode::resumeAfterInstall() {
  // Flush casts deferred during the joining window; if there were none,
  // publish a heartbeat immediately — subscribers' merges are stalled on
  // this stream's frontier and need not wait out a full period.
  auto deferred = std::move(deferredCasts_);
  deferredCasts_.clear();
  for (const AppMsgPtr& m : deferred) publish(/*heartbeat=*/false, m);
  if (deferred.empty()) publish(/*heartbeat=*/true, nullptr);
  tryDeliver();
}

}  // namespace wanmc::abcast
