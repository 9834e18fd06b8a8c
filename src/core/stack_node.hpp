// StackNode: a simulated process hosting a full protocol stack.
//
// Each process runs (bottom-up): a failure detector, one or more consensus
// services (usually one, scoped to the process's group), a reliable
// multicast endpoint, and the atomic multicast / broadcast algorithm.
// StackNode routes incoming packets to the right component by Layer tag and
// consensus scope, mirroring the modular structure of the paper's proofs.
#pragma once

#include <cassert>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "bootstrap/bootstrap.hpp"
#include "common/batch.hpp"
#include "common/id_table.hpp"
#include "common/message.hpp"
#include "consensus/consensus.hpp"
#include "fd/failure_detector.hpp"
#include "rmcast/rmcast.hpp"
#include "exec/context.hpp"

namespace wanmc::core {

// How a protocol stack should be parameterized. One StackConfig is shared by
// every node of a run. Consensus is always the early-deciding service
// (consensus/consensus.hpp), and reliable multicast always relays
// intra-group (rmcast/rmcast.hpp); each stack passes its uniformity to the
// StackNode constructor.
struct StackConfig {
  fd::FdKind fdKind = fd::FdKind::kOracle;
  SimTime fdOracleDelay = 50 * kMs;
  // Own-group heartbeat lane; remote-group lanes (FailureDetector::
  // addRemoteGroup) always run HeartbeatFd::remoteDefaults().
  fd::HeartbeatFd::Params fdHeartbeat{};
  // Per-round consensus progress timer (0 = off, the crash-stop default).
  // REQUIRED for liveness in crash-RECOVERY runs: an amnesiac rejoin can
  // be a round coordinator that is alive (never suspected) yet silent
  // forever. Consensus passes over its round 1 once the detector reports
  // the new incarnation; only this timeout moves on the rounds the skip
  // cannot see (rounds >= 2, a two-member group whose majority needs the
  // rejoiner, heartbeat views that disagree for a beat). ScenarioRunner
  // arms this automatically for scenarios with a recovery schedule.
  SimTime consensusRoundTimeout = 0;
  // Batching plane (src/core/batcher.hpp): casts sharing a (sender,
  // destination-set) key are accumulated for up to batchWindow and ordered
  // as ONE protocol instance per batch. batchWindow == 0 disables batching
  // entirely — the cast path is then byte-identical to the pre-batching
  // harness (pinned by the golden fingerprints). batchMaxSize bounds a
  // batch's cast count (reaching it flushes immediately); <= 0 leaves the
  // size unbounded, the window alone flushes.
  SimTime batchWindow = 0;
  int batchMaxSize = 0;
  // Reliable-channel substrate (src/channel/): when armed, every non-FD
  // send/sendToMany is routed through a per-link retransmitting ARQ plane,
  // restoring the quasi-reliable channel contract the stacks are written
  // against (every copy to a correct process arrives once, in no promised
  // order) — delivery obligations then bind through healed partitions and
  // probabilistic loss (RunConfig::lossRate). Off =
  // byte-identical to the direct send path (pinned by every pre-existing
  // golden fingerprint). The plane runs channel::Config's defaults.
  bool reliableChannels = false;
  // Bootstrap plane (src/bootstrap/): when armed, a recovered process runs
  // a rejoin handshake — it requests an order-state snapshot plus delivery
  // suffix from a live donor, installs it, and resumes as a full protocol
  // participant instead of an amnesiac. Off = plane never constructed,
  // byte-identical to the pre-bootstrap harness (pinned by every
  // pre-existing golden fingerprint).
  bootstrap::Config bootstrap{};
  // Non-owning; set by the Experiment (which owns the plane) before nodes
  // are built. Null whenever bootstrap.armed is false.
  bootstrap::Plane* bootstrapPlane = nullptr;
};

class StackNode : public exec::Process {
 public:
  StackNode(exec::Context& rt, ProcessId pid, const StackConfig& cfg,
            rmcast::Uniformity uniformity = rmcast::Uniformity::kNonUniform)
      : exec::Process(rt, pid), cfg_(cfg) {
    // The failure detector's scope is the own group: that is where consensus
    // runs and the only place suspicion matters for the core algorithms.
    // (Stacks that run consensus across groups widen the scope themselves.)
    fd_ = fd::makeFd(cfg.fdKind, rt, pid, rt.topology().members(gid()),
                     cfg.fdOracleDelay, cfg.fdHeartbeat);
    rm_ = std::make_unique<rmcast::ReliableMulticast>(rt, pid, uniformity);
  }

  void onStart() override {
    fd_->start();
    startProtocol();
  }

  void onMessage(ProcessId from, const PayloadPtr& payload) override {
    switch (payload->layer()) {
      case Layer::kFailureDetector:
        fd_->onMessage(from, *payload);
        break;
      case Layer::kConsensus: {
        const auto& cp =
            static_cast<const consensus::ConsensusPayload&>(*payload);
        auto it = consensus_.find(cp.scope);
        if (it == consensus_.end()) {
          consensus::ConsensusService* svc = onUnknownConsensusScope(from, cp);
          if (svc == nullptr) return;  // not a participant of that scope
          svc->onMessage(from, cp);
        } else {
          it->second->onMessage(from, cp);
        }
        break;
      }
      case Layer::kReliableMulticast:
        rm_->onMessage(from, static_cast<const rmcast::RmPayload&>(*payload));
        break;
      case Layer::kProtocol:
      case Layer::kApp:
        onProtocolMessage(from, payload);
        break;
      case Layer::kChannel:
        // Channel control packets terminate in the channel plane; the
        // substrate never hands them to a node.
        break;
      case Layer::kBootstrap:
        // State-transfer packets belong to the bootstrap plane; the node
        // only hosts the delivery (plane endpoints are not exec::Processs).
        if (cfg_.bootstrapPlane != nullptr)
          cfg_.bootstrapPlane->onMessage(pid(), from, *payload);
        break;
    }
  }

 protected:
  // Creates a consensus service over `members` under scope id `scope`, once:
  // a later call returns the first, whose detector callbacks capture it.
  consensus::ConsensusService& addConsensus(uint64_t scope,
                                            std::vector<ProcessId> members) {
    auto& svc = consensus_[scope];
    if (svc == nullptr)
      svc = std::make_unique<consensus::ConsensusService>(
          runtime(), pid(), std::move(members), fd_.get(), scope,
          cfg_.consensusRoundTimeout);
    return *svc;
  }

  // Convention: the per-group consensus service uses the group id as scope.
  consensus::ConsensusService& addGroupConsensus() {
    return addConsensus(static_cast<uint64_t>(gid()),
                        runtime().topology().members(gid()));
  }

  [[nodiscard]] consensus::ConsensusService* findConsensus(uint64_t scope) {
    auto it = consensus_.find(scope);
    return it == consensus_.end() ? nullptr : it->second.get();
  }

  // Hook for stacks that create consensus services dynamically (e.g. the
  // Rodrigues baseline runs one consensus per message, across groups).
  virtual consensus::ConsensusService* onUnknownConsensusScope(
      ProcessId /*from*/, const consensus::ConsensusPayload&) {
    return nullptr;
  }

  // Bootstrap snapshot surface: visit every consensus service this stack
  // owns (per-group and dynamically-created scopes alike).
  template <class Fn>
  void forEachConsensus(Fn&& fn) {
    for (auto& [scope, svc] : consensus_) fn(scope, *svc);
  }

  virtual void startProtocol() {}
  virtual void onProtocolMessage(ProcessId from, const PayloadPtr& p) = 0;

  [[nodiscard]] rmcast::ReliableMulticast& rm() { return *rm_; }
  [[nodiscard]] fd::FailureDetector& fd() { return *fd_; }
  [[nodiscard]] const fd::FailureDetector& fd() const { return *fd_; }
  [[nodiscard]] const StackConfig& config() const { return cfg_; }

 private:
  StackConfig cfg_;
  std::unique_ptr<fd::FailureDetector> fd_;
  std::unique_ptr<rmcast::ReliableMulticast> rm_;
  std::map<uint64_t, std::unique_ptr<consensus::ConsensusService>>
      consensus_;  // by scope
};

// Base class of every atomic multicast / broadcast protocol node: exposes
// the A-XCast entry point and the A-Deliver callback, and records both
// events against the modified Lamport clock for latency-degree measurement.
// adeliver is the one A-Deliver path, so uniform integrity (§2.2) is one
// rule here: each ordered id is recorded once, delivered at addressees only.
// It is also the stacks' one bootstrap::Participant implementation: the
// protocol-agnostic snapshot parts (consensus decisions, rmcast delivered
// set, ordered ids, delivery-suffix replay) live here, the protocol-specific
// blob is delegated to the per-protocol virtuals below.
class XcastNode : public StackNode, public bootstrap::Participant {
 public:
  using DeliverCb = std::function<void(const AppMsgPtr&)>;

  XcastNode(exec::Context& rt, ProcessId pid, const StackConfig& cfg,
            rmcast::Uniformity uniformity = rmcast::Uniformity::kNonUniform)
      : StackNode(rt, pid, cfg, uniformity) {
    if (cfg.bootstrapPlane != nullptr)
      cfg.bootstrapPlane->bind(pid, this, fd());
  }

  // A-MCast / A-BCast m from this process.
  virtual void xcast(const AppMsgPtr& m) = 0;

  void onADeliver(DeliverCb cb) { deliverCbs_.push_back(std::move(cb)); }

  [[nodiscard]] const std::vector<AppMsgPtr>& delivered() const {
    return deliveredList_;
  }

  // ---- bootstrap::Participant ---------------------------------------------

  [[nodiscard]] std::shared_ptr<const bootstrap::Snapshot> makeSnapshot()
      override {
    auto s = std::make_shared<bootstrap::Snapshot>();
    s->donorGroup = gid();
    forEachConsensus([&](uint64_t scope, consensus::ConsensusService& svc) {
      s->consensus.push_back({scope, svc.decisions()});
    });
    s->rmDelivered = rm().snapshotDelivered();
    ordered_.forEach([&](MsgId id) { s->ordered.push_back(id); });
    s->suffix = deliveredList_;  // full history, in delivery order
    s->protocol = snapshotProtocolState();
    return s;
  }

  size_t installSnapshot(const bootstrap::Snapshot& s) override {
    // joining_ stays raised through the whole merge: no protocol path may
    // propose or deliver until the suffix replay has fixed the prefix.
    // Consensus decisions first (silent): scopes this incarnation has not
    // (re)created yet — Rodrigues98 per-message scopes — are skipped; the
    // protocol blob carries their outcomes. A donor's group scope is found
    // only at a groupmate; the group stacks (A1, A2, Delporte00) apply its
    // decisions above their clock when they resume.
    for (const auto& cs : s.consensus)
      if (auto* svc = findConsensus(cs.scope))
        svc->installDecisions(cs.decisions);
    rm().installDelivered(s.rmDelivered);
    for (MsgId id : s.ordered) ordered_.insert(id);
    installProtocolState(s);
    // Replay the donor's delivery history restricted to messages this
    // process is an addressee of (identical to the full history for a
    // same-group donor): the new incarnation's sequence is then order-
    // consistent with the donor's, and integrity holds per incarnation.
    // The joining() gates keep the window delivery-free, so the dedup set
    // is normally empty; it is the integrity backstop should a protocol
    // path slip a delivery through before the install.
    std::set<MsgId> have;
    for (const AppMsgPtr& m : deliveredList_) have.insert(m->id);
    size_t replayed = 0;
    for (const AppMsgPtr& m : s.suffix) {
      if (!m->dest.contains(gid())) continue;
      if (!have.insert(m->id).second) continue;
      deliverOne(m);
      ++replayed;
    }
    joining_ = false;
    resumeAfterInstall();
    return replayed;
  }

  void setJoining(bool joining) override { joining_ = joining; }

 protected:
  // True between recovery and snapshot install: protocols hold back
  // proposal INITIATION (never message intake) while it is raised.
  [[nodiscard]] bool joining() const { return joining_; }

  // True once m's order is fixed here: this incarnation handed m to
  // adeliver, or its snapshot donor had.
  [[nodiscard]] bool ordered(MsgId id) const { return ordered_.contains(id); }

  // Protocol-specific snapshot blob (clocks, pending tables, sequencer
  // assignments...). Donor side; null means "nothing beyond the generic
  // parts".
  [[nodiscard]] virtual std::shared_ptr<bootstrap::ProtocolState>
  snapshotProtocolState() const {
    return nullptr;
  }
  // Rejoiner side: MERGE the donated blob into local state. Runs after
  // s.ordered joins ordered() and before the suffix replay; messages that
  // arrived during the joining window must survive the merge (union sets,
  // most-advanced-stage wins).
  virtual void installProtocolState(const bootstrap::Snapshot& /*s*/) {}
  // Rejoiner side, after the replay: kick the protocol's progress paths
  // (apply waiting decisions, re-propose, pump queues).
  virtual void resumeAfterInstall() {}
  // Called by subclasses at the A-XCast event (before any sends). Batch
  // carriers are ordering-layer artifacts: their constituents were already
  // recorded when the batching plane accepted them, and the carrier id
  // itself must never reach the trace.
  void recordXcast(const AppMsgPtr& m) {
    if (!m->batch) runtime().recordCast(pid(), m);
  }

  // Called by subclasses once m's order is fixed, addressee or not:
  // records m's id, then A-Delivers m at addressees only. A batch carrier
  // expands into its constituent casts in batch-internal order: the stacks
  // decide a total order on carriers, so every addressee performs the same
  // expansion at its carrier-delivery point and per-message prefix order
  // is inherited from the carrier order.
  void adeliver(const AppMsgPtr& m) {
    ordered_.insert(m->id);
    if (!m->dest.contains(gid())) return;
    if (const BatchMessage* b = asBatch(m)) {
      for (const AppMsgPtr& c : b->casts) deliverOne(c);
      return;
    }
    deliverOne(m);
  }

 private:
  void deliverOne(const AppMsgPtr& m) {
    runtime().recordDelivery(pid(), m->id);
    deliveredList_.push_back(m);
    for (const auto& cb : deliverCbs_) cb(m);
  }

  std::vector<DeliverCb> deliverCbs_;
  std::vector<AppMsgPtr> deliveredList_;
  // Every id handed to adeliver, batch carriers included; every stack's
  // intake reads it. One bit per id, not a delivered-below watermark: under
  // A1 a process orders only the ids addressed to its group.
  IdSet ordered_;
  bool joining_ = false;
};

}  // namespace wanmc::core
