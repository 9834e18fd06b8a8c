#include "abcast/sequencer_node.hpp"

#include <algorithm>
#include <cassert>

namespace wanmc::abcast {

SequencerNode::SequencerNode(exec::Context& rt, ProcessId pid,
                             const core::StackConfig& cfg,
                             SequencerMode mode)
    : core::XcastNode(rt, pid, cfg), mode_(mode) {
  fd().onSuspicion([this](ProcessId) { maybeSequence(); });
}

ProcessId SequencerNode::currentSequencer() const {
  for (ProcessId q : topology().allProcesses())
    if (!fd().suspects(q)) return q;
  return 0;
}

void SequencerNode::xcast(const AppMsgPtr& m) {
  recordXcast(m);
  auto data = std::make_shared<const SeqPayload>(SeqPayload::Kind::kData, m,
                                                 m->id, 0);
  sendToMany(everyoneElse(), data);
  noteData(m, pid());
}

void SequencerNode::noteData(const AppMsgPtr& m, ProcessId holder) {
  if (ordered(m->id)) return;  // a late copy
  Rec& r = pending_[m->id];
  if (r.msg == nullptr) {
    r.msg = m;
    optimistic_.push_back(m->id);  // optimistic delivery
    // Sequence BEFORE echoing: the SEQ broadcast doubles as the
    // sequencer's echo, so the sequencing hop and the echo hop run in
    // parallel and the final delivery stays at latency degree 2.
    maybeSequence();
    if (ordered(m->id)) return;  // sequenced and delivered at once
    if (mode_ == SequencerMode::kUniformEcho &&
        currentSequencer() != pid()) {
      auto echo = std::make_shared<const SeqPayload>(SeqPayload::Kind::kEcho,
                                                     m, m->id, 0);
      sendToMany(everyoneElse(), echo);
    }
    r.holders.insert(pid());
  }
  r.holders.insert(holder);
  tryFinalDeliver();
}

void SequencerNode::onProtocolMessage(ProcessId from, const PayloadPtr& p) {
  const auto* sp = dynamic_cast<const SeqPayload*>(p.get());
  assert(sp != nullptr);
  switch (sp->kind) {
    case SeqPayload::Kind::kData: {
      // Echo m to everyone: once a majority is known to hold m, the final
      // order is stable across crashes (uniformity).
      noteData(sp->msg, from);  // the sender holds m too
      break;
    }
    case SeqPayload::Kind::kSeq: {
      if (ordered(sp->msgId)) break;  // a late copy
      Rec& r = pending_[sp->msgId];
      if (!r.sn) {
        r.sn = sp->sn;
        bySn_[sp->sn] = sp->msgId;
        nextSn_ = std::max(nextSn_, sp->sn + 1);
      }
      // The SEQ broadcast doubles as the sequencer's echo. In [12] it also
      // carries m, as A1's (TS, m) does (paper footnote 4): a data copy
      // lost with its crashed sender cannot stall delivery.
      r.holders.insert(from);
      if (sp->msg != nullptr) {
        noteData(sp->msg, from);
      } else {
        tryFinalDeliver();
      }
      break;
    }
    case SeqPayload::Kind::kEcho: {
      // First sight via echo behaves like first sight via data: the echo
      // carries the payload (a fast peer's echo can overtake the sender's
      // own data packet).
      noteData(sp->msg, from);
      break;
    }
  }
}

void SequencerNode::maybeSequence() {
  // A joining node never sequences: it may not know every number the dead
  // incarnation's sequencer already handed out.
  if (joining()) return;
  if (currentSequencer() != pid()) return;
  // Assign sequence numbers to every known-but-unsequenced message, in
  // message-id order for determinism within a batch.
  for (auto& [id, r] : pending_) {
    if (r.msg == nullptr || r.sn) continue;
    const uint64_t sn = nextSn_++;
    r.sn = sn;
    bySn_[sn] = id;
    auto seq = std::make_shared<const SeqPayload>(
        SeqPayload::Kind::kSeq,
        mode_ == SequencerMode::kOptimisticNonUniform ? r.msg : nullptr, id,
        sn);
    sendToMany(everyoneElse(), seq);
  }
  tryFinalDeliver();
}

void SequencerNode::tryFinalDeliver() {
  if (joining()) return;  // records buffer; delivery waits
  const size_t majority =
      static_cast<size_t>(topology().numProcesses()) / 2 + 1;
  for (auto it = bySn_.find(nextDeliver_); it != bySn_.end();
       it = bySn_.find(nextDeliver_)) {
    auto r = pending_.find(it->second);
    if (r->second.msg == nullptr) return;  // payload still in flight
    if (mode_ == SequencerMode::kUniformEcho &&
        r->second.holders.size() < majority)
      return;  // stability: a majority must hold m before final delivery
    const AppMsgPtr m = std::move(r->second.msg);
    ++nextDeliver_;
    bySn_.erase(it);
    pending_.erase(r);
    adeliver(m);
  }
}

// ---------------------------------------------------------------------------
// Bootstrap snapshot surface.
// ---------------------------------------------------------------------------

uint64_t SequencerNode::BootState::approxBytes() const {
  uint64_t b = 16;
  for (const auto& [id, r] : pending) {
    b += 16 + 8 * r.holders.size();
    if (r.msg) b += 32 + r.msg->body.size();
  }
  return b;
}

std::shared_ptr<bootstrap::ProtocolState>
SequencerNode::snapshotProtocolState() const {
  auto s = std::make_shared<BootState>();
  s->pending = pending_;
  s->nextSn = nextSn_;
  s->nextDeliver = nextDeliver_;
  return s;
}

void SequencerNode::installProtocolState(const bootstrap::Snapshot& snap) {
  const auto* s = dynamic_cast<const BootState*>(snap.protocol.get());
  if (s == nullptr) return;
  // Copies that arrived during the joining window for messages the donor
  // has A-Delivered: the suffix replay delivers them.
  std::erase_if(pending_, [&](const auto& e) { return ordered(e.first); });
  std::erase_if(bySn_,
                [&](const auto& e) { return !pending_.contains(e.second); });
  // Merge the donor's records: holders unite; the payload and the
  // assignment, sequencer-issued and globally consistent, fill if absent.
  for (const auto& [id, d] : s->pending) {
    Rec& r = pending_[id];
    if (r.msg == nullptr) r.msg = d.msg;
    r.holders.insert(d.holders.begin(), d.holders.end());
    if (!r.sn && d.sn) {
      r.sn = d.sn;
      bySn_.emplace(*d.sn, id);
    }
  }
  // The handoff: never reuse a number the donor saw assigned, even numbers
  // the dead incarnation handed out moments before crashing (they reached
  // the donor by serve time).
  nextSn_ = std::max(nextSn_, s->nextSn);
  // The suffix replay covers exactly sn 0 .. nextDeliver-1 of the donor.
  nextDeliver_ = std::max(nextDeliver_, s->nextDeliver);
}

void SequencerNode::resumeAfterInstall() {
  maybeSequence();
  tryFinalDeliver();
}

}  // namespace wanmc::abcast
