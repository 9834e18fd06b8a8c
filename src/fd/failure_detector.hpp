// Failure detectors.
//
// The paper assumes consensus is solvable inside every group, which in the
// asynchronous crash-stop model means each group is equipped with (at least)
// an eventually-strong failure detector <>S and a majority of correct
// processes. We provide two interchangeable implementations:
//
//  * OracleFd — a zero-message oracle that learns crashes from the runtime
//    after a configurable detection delay. This matches the paper's
//    accounting, which treats the substrate algorithms as "oracle-based"
//    ([6], [11]) and charges them no background traffic; it keeps the
//    genuineness and quiescence measurements clean.
//  * HeartbeatFd — a real heartbeat/timeout detector exchanging
//    Layer::kFailureDetector packets within its scope. With a timeout above
//    the maximum link latency it behaves like <>P; transient timeouts only
//    make it eventually strong, which the indulgent consensus tolerates.
//
// Scoping (fault plane v2): a detector monitors its own group by default —
// where consensus runs. Stacks that run consensus ACROSS groups (the
// Rodrigues baseline) widen the scope with addRemoteGroup(): the heartbeat
// detector then maintains one heartbeat LANE per remote group, with its own
// interval/timeout sized for inter-group latency, so cross-group consensus
// participants get suspicion for remote crashes without the oracle. The
// oracle is global already, so addRemoteGroup is a no-op there.
//
// Suspicion is RETRACTABLE: a suspected process that speaks again (false
// timeout, healed partition) or recovers is rehabilitated, and
// onRetraction callbacks fire. Protocol layers that cache quorum decisions
// must re-read suspects() when it matters rather than latching suspicion.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/ids.hpp"
#include "common/message.hpp"
#include "common/time.hpp"
#include "exec/context.hpp"

namespace wanmc::fd {

class FailureDetector {
 public:
  using SuspicionCb = std::function<void(ProcessId)>;
  // Retraction callback. `freshIncarnation` distinguishes the two ways a
  // suspicion ends: false — the process was REHABILITATED (healed
  // partition, corrected premature timeout: same incarnation, it kept all
  // its protocol state); true — the process RECOVERED (a fresh amnesiac
  // incarnation that kept nothing). Layers that re-introduce state on
  // retraction (e.g. SkeenNode's Rodrigues98 variant re-sending pending
  // kData) must branch on it: a rehabilitated process only lacks what it
  // never received, a fresh incarnation lacks everything.
  using RetractionCb = std::function<void(ProcessId, bool freshIncarnation)>;

  virtual ~FailureDetector() = default;

  [[nodiscard]] virtual bool suspects(ProcessId p) const = 0;

  // Fired when a process becomes suspected.
  void onSuspicion(SuspicionCb cb) { callbacks_.push_back(std::move(cb)); }
  // Fired when a suspicion is RETRACTED (a healed partition let its
  // heartbeats through again, or a premature timeout was corrected), and
  // whenever a process is seen to recover, suspected or not. Layers that
  // only ever read suspects() live need no hook.
  void onRetraction(RetractionCb cb) {
    retractions_.push_back(std::move(cb));
  }

  // Widens the monitored scope to the members of remote group `g` (used by
  // stacks that run consensus across groups). Default: no-op — the oracle
  // is global by construction.
  virtual void addRemoteGroup(GroupId g,
                              const std::vector<ProcessId>& members) {
    (void)g;
    (void)members;
  }

  virtual void start() {}
  virtual void onMessage(ProcessId /*from*/, const Payload& /*payload*/) {}

 protected:
  void notify(ProcessId p) {
    for (const auto& cb : callbacks_) cb(p);
  }
  void notifyRetract(ProcessId p, bool freshIncarnation) {
    for (const auto& cb : retractions_) cb(p, freshIncarnation);
  }

 private:
  std::vector<SuspicionCb> callbacks_;
  std::vector<RetractionCb> retractions_;
};

// ---------------------------------------------------------------------------

class OracleFd final : public FailureDetector {
 public:
  // `detectionDelay` models the time between a crash and its detection.
  OracleFd(exec::Context& rt, ProcessId self, SimTime detectionDelay = 0)
      : rt_(rt),
        self_(self),
        delay_(detectionDelay),
        suspected_(static_cast<size_t>(rt.topology().numProcesses()), 0) {
    // Listeners are owned by this process's incarnation: when the process
    // recovers, the runtime purges them, and the recovered node's fresh
    // OracleFd registers its own.
    rt_.addCrashListener(self_, [this](ProcessId p) {
      if (p == self_ || rt_.crashed(self_)) return;
      suspectAfterDelay(p);
    });
    rt_.addRecoveryListener(self_, [this](ProcessId p) {
      if (p == self_ || rt_.crashed(self_)) return;
      // Every recovery is a fresh incarnation, and is signalled even when
      // it beat the detection delay and no suspicion stood, as
      // HeartbeatFd signals an incarnation advance it never timed out on.
      suspected_[static_cast<size_t>(p)] = 0;
      notifyRetract(p, /*freshIncarnation=*/true);
    });
    // A detector built mid-run (a recovered process's fresh stack) missed
    // earlier crash notifications: seed it with the processes that are
    // down right now, under the same detection delay.
    for (ProcessId p = 0; p < rt_.topology().numProcesses(); ++p)
      if (p != self_ && rt_.crashed(p)) suspectAfterDelay(p);
  }

  [[nodiscard]] bool suspects(ProcessId p) const override {
    return suspected_[static_cast<size_t>(p)] != 0;
  }

 private:
  void suspectAfterDelay(ProcessId p) {
    if (delay_ == 0) {
      suspected_[static_cast<size_t>(p)] = 1;
      notify(p);
    } else {
      rt_.timer(self_, delay_, [this, p]() {
        // The crash may have been retracted (recovery) before the delay
        // elapsed: the oracle never suspects an alive process.
        if (rt_.crashed(p) && suspected_[static_cast<size_t>(p)] == 0) {
          suspected_[static_cast<size_t>(p)] = 1;
          notify(p);
        }
      });
    }
  }

  exec::Context& rt_;
  ProcessId self_;
  SimTime delay_;
  std::vector<uint8_t> suspected_;  // dense, indexed by pid
};

// ---------------------------------------------------------------------------

// Heartbeat packet. FD semantics depend on layer(), the sender id, and the
// sender's INCARNATION (which lets a receiver tell a rehabilitated process
// from a recovered one), so each heartbeat lane reuses ONE pooled instance
// across ticks (mutating `seq` in place) instead of heap-allocating a
// payload per interval — the `seq` a receiver observes is advisory, never
// protocol state. `inc` is safe to pool: it is constant for the lane's
// whole life (a recovered process builds a fresh stack with fresh lanes,
// and the dead incarnation's pooled payloads are never mutated again).
struct HeartbeatPayload final : Payload {
  uint64_t seq = 0;
  uint32_t inc = 0;  // sender incarnation, see Runtime::incarnation
  HeartbeatPayload(uint64_t s, uint32_t i) : seq(s), inc(i) {}
  [[nodiscard]] Layer layer() const override {
    return Layer::kFailureDetector;
  }
};

class HeartbeatFd final : public FailureDetector {
 public:
  struct Params {
    SimTime interval = 20 * kMs;
    SimTime timeout = 80 * kMs;  // must exceed interval + max link latency
  };

  // Lane parameters for remote-group scopes: sized for WAN links (the
  // presets top out at 110ms one-way), so a partitioned or crashed remote
  // process is suspected within ~half a second and an alive one never is.
  static constexpr Params remoteDefaults() {
    return Params{60 * kMs, 400 * kMs};
  }

  // `scope` is the set of processes this detector monitors (and
  // heartbeats) on its own-group lane; addRemoteGroup() adds one lane per
  // remote group, parameterized by remoteDefaults().
  HeartbeatFd(exec::Context& rt, ProcessId self, std::vector<ProcessId> scope,
              Params params)
      : rt_(rt),
        self_(self),
        lastHeard_(static_cast<size_t>(rt.topology().numProcesses()), 0),
        lastInc_(static_cast<size_t>(rt.topology().numProcesses()), 0),
        suspected_(static_cast<size_t>(rt.topology().numProcesses()), 0) {
    // Baseline every peer's incarnation at build time: a detector built
    // mid-run (a recovered process's fresh stack) cannot know what it
    // missed — like the start-of-run heard grace, the current incarnation
    // counts as already seen.
    for (ProcessId p = 0; p < rt.topology().numProcesses(); ++p)
      lastInc_[static_cast<size_t>(p)] = rt.incarnation(p);
    addLane(kNoGroup, std::move(scope), params);
  }

  void addRemoteGroup(GroupId g,
                      const std::vector<ProcessId>& members) override {
    addLane(g, members, remoteDefaults());
  }

  void start() override {
    started_ = true;
    // Start-of-run grace: every monitored peer counts as heard at start.
    for (size_t li = 0; li < lanes_.size(); ++li) startLane(li);
  }

  void onMessage(ProcessId from, const Payload& payload) override {
    if (payload.layer() != Layer::kFailureDetector) return;
    const auto& hb = static_cast<const HeartbeatPayload&>(payload);
    const auto i = static_cast<size_t>(from);
    // A heartbeat from an incarnation we have not seen before means the
    // peer crashed and RECOVERED since we last heard it — even if the
    // crash window fell entirely inside a partition and no timeout-based
    // evidence distinguishes it from a mere rehabilitation.
    const bool fresh = hb.inc != lastInc_[i];
    lastInc_[i] = hb.inc;
    lastHeard_[i] = rt_.now();
    if (suspected_[i] != 0) {
      // Eventual accuracy: a prematurely suspected process (false timeout,
      // healed partition, recovery) is rehabilitated — and the retraction
      // is signalled, unlike the pre-v2 detector.
      suspected_[i] = 0;
      notifyRetract(from, fresh);
    } else if (fresh) {
      // Incarnation advance WITHOUT a standing suspicion: the peer crashed
      // and recovered faster than this lane's timeout could notice (or the
      // whole crash window hid behind a partition). Without a retraction
      // nobody would re-send the amnesiac rejoiner anything until some
      // later suspicion cycle happened to fire — the FD gap PR 6 left open.
      notifyRetract(from, /*freshIncarnation=*/true);
    }
  }

  [[nodiscard]] bool suspects(ProcessId p) const override {
    return suspected_[static_cast<size_t>(p)] != 0;
  }

 private:
  // One heartbeat lane: a peer set heartbeated and monitored under its own
  // interval/timeout. The per-tick destination vector and the pooled
  // payload are built once per lane, not per interval.
  struct Lane {
    GroupId gid = kNoGroup;  // kNoGroup: the own-scope lane
    Params params;
    std::vector<ProcessId> peers;  // monitored + heartbeated, excl. self
    std::shared_ptr<HeartbeatPayload> hb;
    uint64_t seq = 0;
  };

  void addLane(GroupId g, std::vector<ProcessId> scope, Params params) {
    Lane lane;
    lane.gid = g;
    lane.params = params;
    for (ProcessId p : scope)
      if (p != self_) lane.peers.push_back(p);
    lane.hb = std::make_shared<HeartbeatPayload>(0, rt_.incarnation(self_));
    lanes_.push_back(std::move(lane));
    if (started_) startLane(lanes_.size() - 1);
  }

  void startLane(size_t li) {
    for (ProcessId p : lanes_[li].peers)
      lastHeard_[static_cast<size_t>(p)] = rt_.now();
    tick(li);
  }

  void tick(size_t li) {
    Lane& lane = lanes_[li];
    lane.hb->seq = lane.seq++;  // pooled payload, see HeartbeatPayload
    rt_.multicast(self_, lane.peers, lane.hb);
    const SimTime now = rt_.now();
    for (ProcessId p : lane.peers) {
      const auto i = static_cast<size_t>(p);
      if (suspected_[i] != 0) continue;
      if (now - lastHeard_[i] > lane.params.timeout) {
        suspected_[i] = 1;
        notify(p);
      }
    }
    rt_.timer(self_, lane.params.interval, [this, li]() { tick(li); });
  }

  exec::Context& rt_;
  ProcessId self_;
  bool started_ = false;
  std::vector<Lane> lanes_;
  std::vector<SimTime> lastHeard_;  // dense, indexed by pid
  std::vector<uint32_t> lastInc_;   // last incarnation heard, per pid
  std::vector<uint8_t> suspected_;  // dense, indexed by pid
};

// Which detector a protocol stack should instantiate.
enum class FdKind { kOracle, kHeartbeat };

std::unique_ptr<FailureDetector> makeFd(
    FdKind kind, exec::Context& rt, ProcessId self,
    std::vector<ProcessId> scope, SimTime oracleDelay = 0,
    HeartbeatFd::Params hb = {});

}  // namespace wanmc::fd
