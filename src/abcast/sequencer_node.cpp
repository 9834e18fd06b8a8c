#include "abcast/sequencer_node.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>

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
  if (data_.count(m->id) == 0) {
    data_[m->id] = m;
    optimistic_.push_back(m->id);  // optimistic delivery
    if (snOf_.count(m->id) == 0) unsequenced_.insert(m->id);
    // Sequence BEFORE echoing: the SEQ broadcast doubles as the
    // sequencer's echo, so the sequencing hop and the echo hop run in
    // parallel and the final delivery stays at latency degree 2.
    maybeSequence();
    if (mode_ == SequencerMode::kUniformEcho &&
        currentSequencer() != pid()) {
      auto echo = std::make_shared<const SeqPayload>(SeqPayload::Kind::kEcho,
                                                     m, m->id, 0);
      sendToMany(everyoneElse(), echo);
    }
    echoes_[m->id].insert(pid());
  }
  echoes_[m->id].insert(holder);
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
      if (snOf_.count(sp->msgId) == 0) {
        snOf_[sp->msgId] = sp->sn;
        assigned_[sp->sn] = sp->msgId;
        unsequenced_.erase(sp->msgId);
        nextSn_ = std::max(nextSn_, sp->sn + 1);
      }
      // The SEQ broadcast doubles as the sequencer's echo. In [12] it also
      // carries m, as A1's (TS, m) does (paper footnote 4): a data copy
      // lost with its crashed sender cannot stall delivery.
      echoes_[sp->msgId].insert(from);
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
  while (!unsequenced_.empty()) {
    const MsgId id = *unsequenced_.begin();
    unsequenced_.erase(unsequenced_.begin());
    if (snOf_.count(id)) continue;
    const uint64_t sn = nextSn_++;
    snOf_[id] = sn;
    assigned_[sn] = id;
    auto seq = std::make_shared<const SeqPayload>(
        SeqPayload::Kind::kSeq,
        mode_ == SequencerMode::kOptimisticNonUniform ? data_.at(id) : nullptr,
        id, sn);
    sendToMany(everyoneElse(), seq);
  }
  tryFinalDeliver();
}

void SequencerNode::tryFinalDeliver() {
  if (joining()) return;  // data/sn/echoes buffer; delivery waits
  const size_t majority =
      static_cast<size_t>(topology().numProcesses()) / 2 + 1;
  for (auto it = assigned_.find(nextDeliver_); it != assigned_.end();
       it = assigned_.find(nextDeliver_)) {
    const MsgId id = it->second;
    auto d = data_.find(id);
    if (d == data_.end()) return;  // sn known, payload still in flight
    if (mode_ == SequencerMode::kUniformEcho &&
        echoes_[id].size() < majority)
      return;  // stability: a majority must hold m before final delivery
    ++nextDeliver_;
    adeliver(d->second);
  }
}

// ---------------------------------------------------------------------------
// Bootstrap snapshot surface.
// ---------------------------------------------------------------------------

uint64_t SequencerNode::BootState::approxBytes() const {
  uint64_t b = 16;
  for (const auto& [id, m] : data) b += 32 + m->body.size();
  for (const auto& [id, es] : echoes) b += 8 + 8 * es.size();
  b += 16 * (assigned.size() + snOf.size()) + 8 * unsequenced.size();
  return b;
}

std::shared_ptr<bootstrap::ProtocolState>
SequencerNode::snapshotProtocolState() const {
  auto s = std::make_shared<BootState>();
  s->data = data_;
  s->echoes = echoes_;
  s->assigned = assigned_;
  s->snOf = snOf_;
  s->unsequenced = unsequenced_;
  s->nextSn = nextSn_;
  s->nextDeliver = nextDeliver_;
  return s;
}

void SequencerNode::installProtocolState(const bootstrap::Snapshot& snap) {
  const auto* s = dynamic_cast<const BootState*>(snap.protocol.get());
  if (s == nullptr) return;
  for (const auto& [id, m] : s->data) data_.emplace(id, m);
  for (const auto& [id, es] : s->echoes)
    echoes_[id].insert(es.begin(), es.end());
  // Assignments are sequencer-issued and globally consistent: fill-if-
  // absent in either direction.
  for (const auto& [sn, id] : s->assigned) assigned_.emplace(sn, id);
  for (const auto& [id, sn] : s->snOf) snOf_.emplace(id, sn);
  unsequenced_.insert(s->unsequenced.begin(), s->unsequenced.end());
  for (auto it = unsequenced_.begin(); it != unsequenced_.end();)
    it = snOf_.count(*it) ? unsequenced_.erase(it) : std::next(it);
  // The handoff: never reuse a number the donor saw assigned, even numbers
  // the dead incarnation handed out moments before crashing (they reached
  // the donor by serve time).
  nextSn_ = std::max({nextSn_, s->nextSn,
                      assigned_.empty() ? 0 : assigned_.rbegin()->first + 1});
  // The suffix replay covers exactly sn 0 .. nextDeliver-1 of the donor.
  nextDeliver_ = std::max(nextDeliver_, s->nextDeliver);
}

void SequencerNode::resumeAfterInstall() {
  maybeSequence();
  tryFinalDeliver();
}

}  // namespace wanmc::abcast
