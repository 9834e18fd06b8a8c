#include "abcast/a2_node.hpp"

#include <algorithm>
#include <cassert>

namespace wanmc::abcast {

A2Node::A2Node(exec::Context& rt, ProcessId pid, const core::StackConfig& cfg)
    : core::XcastNode(rt, pid, cfg) {
  groupConsensus_ = &addGroupConsensus();
  groupConsensus_->onDecide(
      [this](consensus::Instance, const ConsensusValue&) { drainDecisions(); });
  rm().onDeliver([this](const AppMsgPtr& m) {
    // Task 2 (lines 6-7).
    if (ordered(m->id)) return;
    rdelivered_[m->id] = m;
    tryPropose();
  });
}

void A2Node::xcast(const AppMsgPtr& m) {
  recordXcast(m);
  // line 5: R-MCast m to the sender's own group only — the bundle exchange
  // of round K propagates it across groups.
  rm().rmcastOwnGroup(m);
}

void A2Node::tryPropose() {
  if (joining()) return;  // rejoin in progress: no proposal initiation
  // line 11: ((RDELIVERED \ ADELIVERED) != {} or K <= Barrier) and propK <= K
  if (propK_ > K_) return;
  if (rdelivered_.empty() && K_ > barrier_) return;
  MsgBundle proposal;
  proposal.reserve(rdelivered_.size());
  for (const auto& [id, m] : rdelivered_) proposal.push_back(m);
  canonicalize(proposal);
  propK_ = K_ + 1;  // line 13
  groupConsensus_->propose(K_, std::move(proposal));
}

void A2Node::drainDecisions() {
  if (joining()) return;  // decisions wait until the snapshot install
  while (!awaitingBundles_) {
    const ConsensusValue* v = groupConsensus_->decision(K_);
    if (v == nullptr) return;
    handleDecided(K_, v->get<MsgBundle>());
  }
}

void A2Node::handleDecided(uint64_t k, const MsgBundle& bundle) {
  // line 15: ship our group's bundle to every process of every other group
  // (one send event).
  auto payload = std::make_shared<const BundlePayload>(k, bundle, gid());
  sendToMany(otherGroups_.of(topology().allGroups().without(gid())), payload);
  // line 17.
  msgs_[k][gid()] = bundle;
  awaitingBundles_ = true;
  tryCompleteRound();
}

void A2Node::onProtocolMessage(ProcessId /*from*/, const PayloadPtr& p) {
  const auto* b = dynamic_cast<const BundlePayload*>(p.get());
  assert(b != nullptr && "A2 protocol layer speaks BundlePayload only");
  // Task 3 (lines 8-10). Every member of a group ships the same bundle, so
  // the copies for a round this process has completed carry nothing new.
  if (b->round >= K_) {
    auto& slot = msgs_[b->round][b->fromGroup];
    if (slot.empty()) slot = b->msgs;
  }
  barrier_ = std::max(barrier_, b->round);
  tryPropose();
  tryCompleteRound();
}

void A2Node::tryCompleteRound() {
  if (joining()) return;  // the suffix replay owns the delivery prefix
  if (!awaitingBundles_) return;
  // line 16: one bundle from every group (ours is already in).
  const auto& byGroup = msgs_[K_];
  for (GroupId g = 0; g < topology().numGroups(); ++g)
    if (byGroup.count(g) == 0) return;

  // line 18: the union of all bundles...
  MsgBundle toDeliver;
  for (const auto& [g, bundle] : byGroup)
    for (const AppMsgPtr& m : bundle)
      if (!ordered(m->id)) toDeliver.push_back(m);
  // ...A-Delivered in a deterministic order (line 19): by message id.
  canonicalize(toDeliver);
  toDeliver.erase(std::unique(toDeliver.begin(), toDeliver.end(),
                              [](const AppMsgPtr& a, const AppMsgPtr& b) {
                                return a->id == b->id;
                              }),
                  toDeliver.end());

  for (const AppMsgPtr& m : toDeliver) {
    rdelivered_.erase(m->id);
    adeliver(m);  // line 20 (ADELIVERED is XcastNode::ordered)
  }

  msgs_.erase(K_);
  ++K_;  // line 21
  ++roundsExecuted_;
  awaitingBundles_ = false;
  if (!toDeliver.empty()) {
    ++usefulRounds_;
    barrier_ = std::max(barrier_, K_);  // lines 22-23
  }

  tryPropose();
  drainDecisions();
}

// ---------------------------------------------------------------------------
// Bootstrap snapshot surface.
// ---------------------------------------------------------------------------

uint64_t A2Node::BootState::approxBytes() const {
  uint64_t b = 24;  // the three clocks
  for (const auto& [id, m] : rdelivered) b += 40 + m->body.size();
  for (const auto& [r, byGroup] : msgs)
    for (const auto& [g, bundle] : byGroup) b += 16 + 24 * bundle.size();
  return b;
}

std::shared_ptr<bootstrap::ProtocolState> A2Node::snapshotProtocolState()
    const {
  auto s = std::make_shared<BootState>();
  s->K = K_;
  s->propK = propK_;
  s->barrier = barrier_;
  s->rdelivered = rdelivered_;
  s->msgs = msgs_;
  return s;
}

void A2Node::installProtocolState(const bootstrap::Snapshot& snap) {
  const auto* s = dynamic_cast<const BootState*>(snap.protocol.get());
  if (s == nullptr) return;
  // Merge, never clobber. Rounds are lockstep across groups, so the round
  // clocks and the bundle table are meaningful from any donor (as is the
  // snapshot's ordered part, ADELIVERED); bundles that arrived during the
  // joining window survive (fill-if-absent, like the wire path).
  K_ = std::max(K_, s->K);
  barrier_ = std::max(barrier_, s->barrier);
  for (const auto& [r, byGroup] : s->msgs)
    for (const auto& [g, bundle] : byGroup) {
      auto& slot = msgs_[r][g];
      if (slot.empty()) slot = bundle;
    }
  if (snap.donorGroup == gid()) {
    // Group-scoped pieces: the R-Delivered working set and the proposal
    // clock describe the donor's OWN group — only a groupmate's apply
    // here, as only a groupmate installs the snapshot's group-consensus
    // decisions.
    propK_ = std::max(propK_, s->propK);
    for (const auto& [id, m] : s->rdelivered)
      if (!ordered(id)) rdelivered_[id] = m;
  }
  // Messages R-Delivered during the joining window that the donor already
  // A-Delivered leave the working set: the suffix replay delivers them.
  for (MsgId id : snap.ordered) rdelivered_.erase(id);
  // awaitingBundles_ asserts "round K_'s own-group bundle is decided and
  // sits in msgs_[K_][gid()]": the snapshot does not carry the donor's flag,
  // which speaks about ITS group's slot, so derive it from the merged table.
  const auto rIt = msgs_.find(K_);
  awaitingBundles_ = rIt != msgs_.end() && rIt->second.count(gid()) != 0;
  // Rounds below the merged clock can never be consumed — drop them
  // instead of leaking.
  msgs_.erase(msgs_.begin(), msgs_.lower_bound(K_));
}

void A2Node::resumeAfterInstall() {
  // Round K_ may already be completable from the merged bundle table; then
  // apply the decisions reached during the window or installed, and rejoin
  // the proposal loop (K_ <= barrier_ restarts rounds even with an empty
  // working set).
  tryCompleteRound();
  drainDecisions();
  tryPropose();
}

}  // namespace wanmc::abcast
