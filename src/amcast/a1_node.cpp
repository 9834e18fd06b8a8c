#include "amcast/a1_node.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <span>

namespace wanmc::amcast {

namespace {
// Stages a new proposal takes (lines 14-17).
bool proposable(Stage s) { return s == Stage::s0 || s == Stage::s2; }
}  // namespace

A1Node::A1Node(exec::Context& rt, ProcessId pid, const core::StackConfig& cfg,
               A1Variant variant)
    : core::XcastNode(rt, pid, cfg,
                      variant == A1Variant::kFritzke98
                          ? rmcast::Uniformity::kUniform
                          : rmcast::Uniformity::kNonUniform),
      stageSkipping_(variant == A1Variant::kA1),
      missing_(static_cast<size_t>(topology().numGroups())) {
  const bool first = rt.incarnation(pid) == 0;
  nextSeq_.assign(missing_.size(), first ? 1 : 0);
  if (first) streams_.resize(static_cast<size_t>(topology().numProcesses()));
  groupConsensus_ = &addGroupConsensus();
  groupConsensus_->onDecide(
      [this](consensus::Instance, const ConsensusValue&) { drainDecisions(); });
  rm().onDeliver([this](const AppMsgPtr& m) {
    noteMessage(m);
    tryPropose();
  });
}

void A1Node::xcast(const AppMsgPtr& m) {
  assert(!m->dest.empty());
  recordXcast(m);
  rm().rmcast(m);  // line 9: R-MCast(m) to {q | q in m.dest}
}

void A1Node::noteMessage(const AppMsgPtr& m) {
  // Uniform integrity: only destination processes handle m.
  if (!m->dest.contains(gid())) return;
  const Pend* p = pending_.find(m->id);
  if ((p != nullptr && p->msg) || ordered(m->id)) return;
  setPending(m->id, m, Stage::s0, K_);  // lines 11-13
}

void A1Node::setPending(MsgId id, const AppMsgPtr& m, Stage stage,
                        uint64_t ts) {
  Pend& p = pending_.tryEmplace(id).first;
  const bool indexed = p.msg != nullptr;
  Index::node_type node;  // re-keyed and moved across, never reallocated
  if (indexed) {
    auto [index, key] = slotOf(p, id);
    node = index->extract(key);
  }
  const bool was = indexed && proposable(p.stage);
  if (proposable(stage) && !was) {
    proposable_.insert(id);
  } else if (!proposable(stage) && was) {
    proposable_.erase(id);
  }
  p.msg = m;
  p.stage = stage;
  p.ts = ts;
  p.filed = stage == Stage::s1 ? firstMissing(p) : kNoGroup;
  auto [index, key] = slotOf(p, id);
  if (node.empty()) {
    index->insert(key);
  } else {
    node.value() = key;
    index->insert(std::move(node));
  }
}

void A1Node::erasePending(MsgId id) {
  const Pend* p = pending_.find(id);
  if (p == nullptr) return;
  if (p->msg) {
    auto [index, key] = slotOf(*p, id);
    index->erase(key);
    if (proposable(p->stage)) proposable_.erase(id);
  }
  pending_.erase(id);
}

std::pair<A1Node::Index*, A1Node::Key> A1Node::slotOf(const Pend& p,
                                                      MsgId id) {
  if (p.filed == kNoGroup) return {&pendingByTs_, {p.ts, id}};
  Missing& w = missing_[static_cast<size_t>(p.filed)];
  if (p.ts <= w.floor) return {&w.under, {0, id}};
  return {&w.above, {p.ts, id}};
}

GroupId A1Node::firstMissing(const Pend& p) const {
  const uint64_t lacking =
      p.msg->dest.without(gid()).bits() & ~p.stamped.bits();
  return lacking == 0 ? kNoGroup : std::countr_zero(lacking);
}

void A1Node::tryPropose() {
  if (joining()) return;  // rejoin in progress: no proposal initiation
  if (propK_ > K_) return;  // one proposal per instance (line 14)
  if (proposable_.empty()) return;
  A1EntrySet set;  // canonical: proposable_ iterates in id order
  set.reserve(proposable_.size());
  for (MsgId id : proposable_) {
    const Pend& p = *pending_.find(id);
    set.push_back(A1Entry{p.msg, p.stage, p.ts});
  }
  propK_ = K_ + 1;  // line 17
  groupConsensus_->propose(K_, std::move(set));
}

void A1Node::drainDecisions() {
  // Decisions are applied in group-clock order: the sequence of instances a
  // group executes is the same on all members (paper Lemma A.1), but a
  // member that lags can receive the DECIDE for instance k' > K_ early; it
  // waits in the service's decided table until the clock reaches k'.
  // While joining, nothing is applied: a decision applied against the
  // amnesiac clock could A-Deliver before the snapshot lands, making the
  // suffix replay a within-incarnation duplicate.
  if (joining()) return;
  while (const ConsensusValue* v = groupConsensus_->decision(K_))
    handleDecided(K_, v->get<A1EntrySet>());
}

void A1Node::handleDecided(consensus::Instance k, const A1EntrySet& entries) {
  ++instancesDecided_;
  uint64_t maxTs = 0;
  std::vector<MsgId> newlyS1;

  for (const A1Entry& e : entries) {
    const AppMsgPtr& m = e.msg;
    if (ordered(m->id)) continue;  // already done here
    uint64_t ts = k;
    Stage stage = Stage::s1;

    if (e.stage == Stage::s2) {
      // line 26: the second consensus fixed the group clock; the final
      // timestamp was already adopted at line 39.
      ts = e.ts;
      stage = Stage::s3;
    } else if (m->dest.size() > 1) {
      // lines 21-24: define this group's proposal (= k) and exchange it.
      pending_.tryEmplace(m->id).first.addStamp(gid(), k);
      sendToMany(tsDests_.of(m->dest.without(gid())), stamp(m, k));  // line 24
      newlyS1.push_back(m->id);
    } else if (stageSkipping_) {
      // lines 28-29: single destination group. With the skip optimization m
      // jumps straight to s3; without it ([5]) m still walks through s1/s2,
      // which for one group degenerates to an extra consensus instance.
      stage = Stage::s3;
    } else {
      pending_.tryEmplace(m->id).first.addStamp(gid(), k);
      newlyS1.push_back(m->id);
    }
    setPending(m->id, m, stage, ts);  // line 30: add or update
    maxTs = std::max(maxTs, ts);
  }

  // line 31: push the group clock past every decided timestamp.
  K_ = std::max(maxTs, K_) + 1;

  adeliveryTest();  // line 32

  // A proposal for the new instance may now be possible, and messages that
  // just reached s1 may already have all their remote proposals buffered.
  for (MsgId id : newlyS1) checkStage1(id);
  tryPropose();
}

PayloadPtr A1Node::stamp(const AppMsgPtr& m, uint64_t k) {
  TsPayload::Seq seq{};
  size_t i = 0;
  for (GroupId h : m->dest.without(gid())) {
    uint32_t& next = nextSeq_[static_cast<size_t>(h)];
    if (i >= seq.size()) next = 0;  // no slot for h: stop numbering for good
    if (next != 0) seq[i] = next++;
    ++i;
  }
  return std::make_shared<const TsPayload>(m, k, gid(), seq);
}

void A1Node::onProtocolMessage(ProcessId from, const PayloadPtr& p) {
  const auto* ts = dynamic_cast<const TsPayload*>(p.get());
  assert(ts != nullptr && "A1 protocol layer speaks TsPayload only");
  const MsgId id = ts->msg->id;
  noteMessage(ts->msg);  // line 10: (TS, m) also introduces m
  // A late copy for an A-Delivered m has nothing left to decide; recording
  // it would leave a pending record that nothing ever removes.
  if (!ordered(id)) {
    pending_.tryEmplace(id).first.addStamp(ts->fromGroup, ts->ts);
    checkStage1(id);
  }
  noteCopy(from, *ts);
  adeliveryTest();  // a floor may have risen, or m moved to a later group
  tryPropose();
}

void A1Node::noteCopy(ProcessId from, const TsPayload& ts) {
  if (streams_.empty()) return;  // rejoined: see the header
  const uint64_t below = (uint64_t{1} << gid()) - 1;  // groups before ours
  const auto i = static_cast<size_t>(
      std::popcount(ts.msg->dest.without(ts.fromGroup).bits() & below));
  const uint32_t n = i < ts.seq.size() ? ts.seq[i] : 0;
  Stream& s = streams_[static_cast<size_t>(from)];
  if (n == 0 || !s.open || n < s.next) return;
  if (n - s.next >= kReorderWindow) {  // the hole outlived the window
    s = Stream{.open = false};
    return;
  }
  std::span<uint64_t> ring(s.held);
  if (!s.spill.empty()) {
    ring = s.spill;
  } else if (n - s.next >= ring.size()) {  // move the ring to the heap
    s.spill.resize(std::bit_ceil(kReorderWindow));
    const size_t wide = s.spill.size() - 1;
    for (uint32_t k = s.next; k < s.next + ring.size(); ++k)
      s.spill[k & wide] = std::exchange(ring[k & (ring.size() - 1)], 0);
    ring = s.spill;
  }
  const size_t mask = ring.size() - 1;  // both ring sizes are powers of two
  ring[n & mask] = ts.ts;
  uint64_t last = 0;  // proposals never fall along a stream
  while (ring[s.next & mask] != 0)
    last = std::exchange(ring[s.next++ & mask], 0);

  Missing& w = missing_[static_cast<size_t>(ts.fromGroup)];
  if (last <= w.floor) return;
  w.floor = last;
  while (!w.above.empty() && w.above.begin()->first <= last) {
    auto node = w.above.extract(w.above.begin());
    node.value().first = 0;
    w.under.insert(std::move(node));
  }
}

void A1Node::checkStage1(MsgId id) {
  const Pend* found = pending_.find(id);
  if (found == nullptr || found->stage != Stage::s1) return;
  const Pend& p = *found;

  // line 33: one proposal from every remote destination group. Until then
  // m waits filed under the first group it lacks.
  const GroupId missing = firstMissing(p);
  if (missing != kNoGroup) {
    if (missing != p.filed) setPending(id, p.msg, Stage::s1, p.ts);
    return;
  }

  // line 34: TSset includes our own proposal (p.ts)
  const uint64_t max = std::max(p.maxStamp, p.ts);

  if (stageSkipping_ && p.ts >= max) {
    // line 35-36: our group proposed the final timestamp; its clock is
    // already beyond it (line 31 ran when the proposal was decided).
    setPending(id, p.msg, Stage::s3, p.ts);
  } else {
    // lines 39-40: adopt the final timestamp; a second consensus will push
    // the group clock past it.
    setPending(id, p.msg, Stage::s2, max);
    tryPropose();
  }
  adeliveryTest();  // m's bound rose to its final timestamp
}

bool A1Node::Missing::blocks(const Key& k) const {
  if (!under.empty()) return Key{floor, under.begin()->second} < k;
  return !above.empty() && *above.begin() < k;
}

void A1Node::adeliveryTest() {
  // lines 3-7: deliver every s3 message whose (ts, id) is minimal among ALL
  // pending messages (any stage); s1 entries count by their lower bound.
  while (!pendingByTs_.empty()) {
    const Key key = *pendingByTs_.begin();
    const MsgId id = key.second;
    const Pend& best = *pending_.find(id);
    if (best.stage != Stage::s3) return;
    for (const Missing& w : missing_)
      if (w.blocks(key)) return;

    AppMsgPtr m = best.msg;
    erasePending(id);
    adeliver(m);
  }
}

// ---------------------------------------------------------------------------
// Bootstrap snapshot surface.
// ---------------------------------------------------------------------------

uint64_t A1Node::BootState::approxBytes() const {
  uint64_t b = 16;  // the two clocks
  for (const auto& [id, p] : pending) {
    if (p.msg) b += 40 + p.msg->body.size();
    if (!p.stamped.empty())
      b += 8 + 16 * static_cast<uint64_t>(p.stamped.size());
  }
  return b;
}

std::shared_ptr<bootstrap::ProtocolState> A1Node::snapshotProtocolState()
    const {
  auto s = std::make_shared<BootState>();
  s->K = K_;
  s->propK = propK_;
  pending_.forEach(
      [&](MsgId id, const Pend& p) { s->pending.emplace_back(id, p); });
  return s;
}

void A1Node::installProtocolState(const bootstrap::Snapshot& snap) {
  const auto* s = dynamic_cast<const BootState*>(snap.protocol.get());
  if (s == nullptr) return;
  // Merge, never clobber: messages that arrived during the joining window
  // must survive.
  // Timestamp proposals are per-(message, group) facts learned over the
  // wire — meaningful from any donor for a message addressed to this group:
  // the groups heard from unite and the largest proposal wins. A cross-group
  // donor's records for other messages are skipped, as no (TS, m) copy or
  // A-Delivery would ever remove them here.
  // Group-scoped pieces: the group clock, the proposal clock and the
  // pending stages/timestamps describe the DONOR's group's ordering
  // progress — only a groupmate's apply. (The donor's group decisions come
  // with the snapshot's consensus part, which likewise only a groupmate
  // installs.) Clocks advance to the donor's; on a pending id both sides
  // know, the donor's entry wins (its stage is at least as advanced).
  const bool groupmate = snap.donorGroup == gid();
  if (groupmate) {
    K_ = std::max(K_, s->K);
    propK_ = std::max(propK_, s->propK);
  }
  for (const auto& [id, d] : s->pending) {
    if (!d.stamped.empty() &&
        (groupmate || (d.msg && d.msg->dest.contains(gid())))) {
      Pend& p = pending_.tryEmplace(id).first;
      p.stamped = GroupSet(p.stamped.bits() | d.stamped.bits());
      p.maxStamp = std::max(p.maxStamp, d.maxStamp);
    }
    if (groupmate && d.msg) setPending(id, d.msg, d.stage, d.ts);
  }
  for (MsgId id : snap.ordered) erasePending(id);
}

void A1Node::resumeAfterInstall() {
  drainDecisions();
  std::vector<MsgId> s1;
  pending_.forEach([&](MsgId id, const Pend& p) {
    if (p.stage == Stage::s1) s1.push_back(id);
  });
  for (MsgId id : s1) checkStage1(id);  // remote proposals may be in already
  adeliveryTest();
  tryPropose();
}

}  // namespace wanmc::amcast
