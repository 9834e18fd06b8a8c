// The simulation runtime: scheduler + network + processes + instrumentation.
//
// Runtime is the deterministic implementation of exec::Context (the
// execution-backend interface every protocol stack is written against; see
// src/exec/context.hpp). It implements the paper's system model (§2.1):
//   * asynchronous message passing — per-message latency is drawn uniformly
//     from [min,max] ranges, one range for intra-group and one (orders of
//     magnitude larger) for inter-group links;
//   * quasi-reliable links — a message from a correct process to a correct
//     process is always delivered; messages to crashed processes vanish;
//     an optional drop filter injects omission faults for substrate tests;
//   * benign crash-stop failures — a crashed process sends nothing, receives
//     nothing, and fires no timers from the crash instant on.
//
// It also implements the paper's cost model (§2.3): a modified Lamport clock
// per process where ONLY inter-group sends tick the clock. Every A-XCast and
// A-Deliver is recorded against that clock so that latency degrees can be
// measured, not asserted.
#pragma once

#include <cassert>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/hot.hpp"
#include "common/ids.hpp"
#include "common/message.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/trace.hpp"
#include "exec/context.hpp"
#include "sim/observer.hpp"
#include "sim/scheduler.hpp"
#include "sim/topology.hpp"

namespace wanmc::sim {

// Historical names, now defined by the execution-backend interface. Sim-side
// code (tests, harnesses, examples) keeps reading naturally; backend-agnostic
// code should name the exec:: originals (lint rule D6).
using LatencyModel = exec::LatencyModel;
using ChannelHook = exec::ChannelHook;
using Node = exec::Process;

class Runtime final : public exec::Context {
 public:
  Runtime(Topology topo, LatencyModel latency, uint64_t seed)
      : topo_(std::move(topo)),
        latency_(latency),
        rng_(SplitMix64(seed).fork(0xa11ce)),
        lossRng_(SplitMix64(seed).fork(0x105eca11)),
        lamport_(static_cast<size_t>(topo_.numProcesses()), 0),
        crashed_(static_cast<size_t>(topo_.numProcesses()), 0),
        everCrashed_(static_cast<size_t>(topo_.numProcesses()), 0),
        incarnation_(static_cast<size_t>(topo_.numProcesses()), 0),
        nodes_(static_cast<size_t>(topo_.numProcesses()), nullptr),
        sentAlgo_(static_cast<size_t>(topo_.numProcesses()), 0),
        recvAlgo_(static_cast<size_t>(topo_.numProcesses()), 0),
        perProcOrder_(static_cast<size_t>(topo_.numProcesses()), 0),
        latencyDraw_(latency_) {
    latency_.validate();
  }

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // ---- wiring ------------------------------------------------------------

  // Takes ownership of the node hosting process `pid`.
  void attach(ProcessId pid, std::unique_ptr<Node> node) override;

  [[nodiscard]] Node& node(ProcessId pid) override {
    assert(owned_[static_cast<size_t>(pid)]);
    return *nodes_[static_cast<size_t>(pid)];
  }

  // ---- simulation control --------------------------------------------------

  // Calls Node::onStart on every live process (at the current sim time).
  // Throws std::logic_error, before any node starts, if a process has no
  // attached node.
  void start();
  uint64_t run(SimTime until = kTimeNever, uint64_t maxEvents = UINT64_MAX);

  [[nodiscard]] SimTime now() const override { return sched_.now(); }
  [[nodiscard]] Scheduler& scheduler() { return sched_; }
  [[nodiscard]] const Topology& topology() const override { return topo_; }
  [[nodiscard]] SplitMix64& rng() { return rng_; }

  // Recycler for per-interval protocol payloads (see common/arena.hpp).
  // Owned by the runtime so pooled payloads may be held by ANY node or
  // in-flight event: the arena is destroyed after all of them.
  [[nodiscard]] ArenaPool& payloadArena() override { return payloadArena_; }

  // ---- messaging (used by Node) -------------------------------------------

  // One send event, many copies: see exec::Context::multicast for the
  // Lamport-stamping contract this implements.
  WANMC_HOT void multicast(ProcessId from, const std::vector<ProcessId>& tos,
                           PayloadPtr payload) override;

  // Omission-fault injection hook for substrate tests. Return true to drop.
  using DropFilter =
      std::function<bool(ProcessId from, ProcessId to, const Payload&)>;
  void setDropFilter(DropFilter f) { drop_ = std::move(f); }

  // ---- loss model ----------------------------------------------------------
  //
  // Iid per-copy drop probability, applied to every wire copy after link
  // state and the drop filter but before the latency draw. The coins come
  // from their OWN SplitMix64 stream forked from the run seed, so arming
  // loss never perturbs the latency draws of the copies that survive, and
  // p = 0 consumes no randomness at all (byte-identical to today).
  void setLossRate(double p);
  [[nodiscard]] double lossRate() const { return lossP_; }

  // ---- reliable-channel substrate -----------------------------------------

  void setChannelHook(ChannelHook* hook) override { channelHook_ = hook; }
  [[nodiscard]] const LatencyModel& latencyModel() const override {
    return latency_;
  }

  WANMC_HOT void channelSend(ProcessId from, ProcessId to, PayloadPtr payload,
                             Layer accountLayer) override;

  void deliverFromChannel(ProcessId from, ProcessId to,
                          const PayloadPtr& payload, uint64_t sendTs) override;

  // ---- timers --------------------------------------------------------------

  // Node timers are registered through exec::Context::timer, which lands in
  // scheduleTimer below; the callable is stored inline in the scheduler's
  // event pool when it fits (see EventCallable and exec::SmallFn), so
  // routine protocol timers do not allocate.
  void cancelTimer(EventId id) override { sched_.cancel(id); }

  // ---- failures ------------------------------------------------------------

  void crash(ProcessId pid);
  void scheduleCrash(ProcessId pid, SimTime when);
  void addCrashListener(ProcessId owner,
                        std::function<void(ProcessId)> fn) override {
    crashListeners_.push_back(
        {owner, incarnation(owner), std::move(fn)});
  }
  void addRecoveryListener(ProcessId owner,
                           std::function<void(ProcessId)> fn) override {
    recoveryListeners_.push_back(
        {owner, incarnation(owner), std::move(fn)});
  }
  [[nodiscard]] bool crashed(ProcessId pid) const override {
    return crashed_[static_cast<size_t>(pid)] != 0;
  }
  [[nodiscard]] bool everCrashed(ProcessId pid) const override {
    return everCrashed_[static_cast<size_t>(pid)] != 0;
  }
  [[nodiscard]] int aliveInGroup(GroupId g) const override;

  // ---- recovery ------------------------------------------------------------
  //
  // recover(pid) reinstates a crashed process as a FRESH incarnation: the
  // old node object is destroyed, a new one is built by the node factory,
  // attached, and started (so its protocol timers re-register through the
  // scheduler). Protocol state is reset — this is the crash-recovery model
  // without stable storage. Timers and listeners of the dead incarnation
  // are incarnation-guarded and can never fire into the new node; wire
  // copies already in flight TO the process are delivered if it is alive
  // when they arrive (quasi-reliable, non-FIFO channels).

  using NodeFactory = std::function<std::unique_ptr<Node>(ProcessId)>;
  void setNodeFactory(NodeFactory f) { nodeFactory_ = std::move(f); }

  // Immediate recovery; requires a node factory and crashed(pid).
  void recover(ProcessId pid);
  // Scheduled recovery at `when` (>= now). Recovering a process that is
  // not crashed at fire time is a no-op.
  void scheduleRecover(ProcessId pid, SimTime when);

  [[nodiscard]] uint32_t incarnation(ProcessId pid) const override {
    return incarnation_[static_cast<size_t>(pid)];
  }

  // ---- dynamic link state --------------------------------------------------
  //
  // A partition cuts every link between a group in `side` and a group
  // outside it during [from, until): copies SENT while a link is down are
  // dropped deterministically (and counted in trace().linkDrops); copies
  // already in flight when the cut activates still arrive — the partition
  // is a property of the network, not of queued events, so pending timers
  // and deliveries survive. Cut/heal transitions are scheduler events:
  // their order against same-instant sends is the deterministic
  // (time, insertion-sequence) order every other event obeys.

  using PartitionId = uint32_t;
  static constexpr PartitionId kNoPartition = UINT32_MAX;

  // Cut `side` from the rest of the topology during [from, until).
  // `until` = kTimeNever keeps the partition until heal()/healAll().
  // Throws std::invalid_argument on an empty/out-of-range side or an
  // inverted window.
  PartitionId partition(GroupSet side, SimTime from,
                        SimTime until = kTimeNever);
  // Heals partition `id` now (idempotent; before its cut activates, the
  // cut is cancelled).
  void heal(PartitionId id);
  // Heals every active or scheduled partition now.
  void healAll();
  // Is the (directed) link from->to up right now?
  [[nodiscard]] bool linkUp(ProcessId from, ProcessId to) const;

  // ---- instrumentation -----------------------------------------------------

  [[nodiscard]] uint64_t lamport(ProcessId pid) const override {
    return lamport_[static_cast<size_t>(pid)];
  }

  void recordCast(ProcessId pid, const AppMsgPtr& m) override;
  void recordDelivery(ProcessId pid, MsgId msg) override;

  // ---- observer plane ------------------------------------------------------
  //
  // Typed observers (sim/observer.hpp) see cast and delivery events
  // synchronously, in registration order. Observers are passive: they never
  // draw from the runtime RNG, and anything they schedule goes through the
  // deterministic scheduler, so observation never perturbs reproducibility.

  // Registers a NON-OWNING observer for the instrumentation points named in
  // `interests` (a mask of ObserverInterest bits). There is no removal: the
  // observer must stay alive as long as the runtime dispatches events. The
  // runtime never invokes observers from its destructor, so an observer may
  // be destroyed before the runtime once the simulation is done.
  void addObserver(RunObserver* obs, uint32_t interests) {
    if (interests & kObserveCasts) castObservers_.push_back(obs);
    if (interests & kObserveDeliveries) deliveryObservers_.push_back(obs);
  }

  [[nodiscard]] const RunTrace& trace() const override { return trace_; }
  [[nodiscard]] RunTrace& trace() { return trace_; }
  [[nodiscard]] const TrafficStats& traffic() const override {
    return traffic_;
  }

  [[nodiscard]] SimTime lastAlgorithmicSend() const override {
    return lastAlgoSend_;
  }

  [[nodiscard]] bool everSentAlgorithmic(ProcessId pid) const override {
    return sentAlgo_[static_cast<size_t>(pid)] != 0;
  }
  [[nodiscard]] bool everReceivedAlgorithmic(ProcessId pid) const override {
    return recvAlgo_[static_cast<size_t>(pid)] != 0;
  }

  // ---- harness surface (exec::Context) ------------------------------------

  // Unguarded absolute-time harness event: lands in the same deterministic
  // (time, insertion-sequence) order as every other scheduler event.
  EventId harnessAt(SimTime when, exec::SmallFn fn) override {
    return sched_.at(when > sched_.now() ? when : sched_.now(),
                     std::move(fn));
  }
  void harnessCancel(EventId id) override { sched_.cancel(id); }

  // The sim backend is single-threaded: "run on pid's context" is an
  // immediate synchronous call, preserving the exact legacy event order.
  void post(ProcessId, exec::SmallFn fn) override { fn(); }

 protected:
  EventId scheduleTimer(ProcessId pid, SimTime delay,
                        exec::SmallFn fn) override {
    return sched_.at(sched_.now() + delay,
                     TimerGuard{this, pid, incarnation(pid), std::move(fn)});
  }

 private:
  // Suppresses a timer whose process crashed — or crashed AND recovered —
  // before it fired: a recovered process is a new incarnation, and the old
  // incarnation's timers must not fire into the fresh node (their captures
  // point into the destroyed one). Sized to stay inline in the scheduler's
  // event pool (see exec::SmallFn::kInlineSize).
  struct TimerGuard {
    Runtime* rt;
    ProcessId pid;
    uint32_t inc;
    exec::SmallFn fn;
    void operator()() {
      if (!rt->crashed(pid) && rt->incarnation(pid) == inc) fn();
    }
  };
  static_assert(sizeof(TimerGuard) <= EventCallable::kInlineSize,
                "protocol timers must stay inline in the event pool");

  // One multicast fan-out: the payload, stamp, and layer are stored ONCE in
  // a pooled record; each copy on the wire is only a POD (when, seq, slot)
  // heap entry plus a Delivery referencing the record. `pending` counts
  // copies still in flight; the record returns to the free list when the
  // last one fires. Delivery events are internal and never cancelled, so
  // the count cannot strand a record.
  struct Fanout {
    PayloadPtr payload;
    ProcessId from = kNoProcess;
    Layer layer = Layer::kApp;
    uint64_t sendTs = 0;
    uint32_t pending = 0;
  };
  struct Delivery {
    Runtime* rt;
    Fanout* f;
    ProcessId to;
    void operator()() const { rt->deliverCopy(*f, to); }
  };

  // One channel wire copy in flight (channelSend). Arrival goes back to the
  // hook, not to the node: the plane decides when the packet reaches its
  // in-order point. Small enough to stay inline in the scheduler pool.
  struct ChanDelivery {
    Runtime* rt;
    ProcessId from;
    ProcessId to;
    PayloadPtr payload;
    void operator()() const {
      if (!rt->crashed(to) && rt->channelHook_ != nullptr)
        rt->channelHook_->onWireArrive(from, to, payload);
    }
  };

  Fanout* acquireFanout() {
    if (!fanoutFree_.empty()) {
      Fanout* f = fanoutFree_.back();
      fanoutFree_.pop_back();
      return f;
    }
    fanoutSlab_.emplace_back();
    return &fanoutSlab_.back();
  }
  void releaseFanout(Fanout* f) {
    f->payload.reset();
    fanoutFree_.push_back(f);
  }
  WANMC_HOT void deliverCopy(Fanout& f, ProcessId to);

  Topology topo_;
  ArenaPool payloadArena_;  // first: destroyed after nodes and events
  LatencyModel latency_;
  SplitMix64 rng_;
  SplitMix64 lossRng_;  // separate stream: loss never perturbs latency draws
  Scheduler sched_;

  // One crash/recovery listener, owned by a process incarnation: dispatch
  // skips (and purge removes) entries whose owner has moved on.
  struct OwnedListener {
    ProcessId owner;
    uint32_t inc;
    std::function<void(ProcessId)> fn;
  };
  void dispatchListeners(const std::vector<OwnedListener>& listeners,
                         ProcessId subject) {
    // Indexed loop + per-entry copy: a callback may register further
    // listeners while we iterate, reallocating the vector under us.
    for (size_t i = 0; i < listeners.size(); ++i) {
      OwnedListener l = listeners[i];
      if (incarnation(l.owner) == l.inc) l.fn(subject);
    }
  }
  static void purgeListeners(std::vector<OwnedListener>& listeners,
                             ProcessId owner, uint32_t liveInc) {
    std::erase_if(listeners, [owner, liveInc](const OwnedListener& l) {
      return l.owner == owner && l.inc != liveInc;
    });
  }

  // One scheduled partition. `side` stays fixed; the partition moves
  // through scheduled -> active -> healed (heal() can also cancel a
  // not-yet-active cut).
  struct Partition {
    GroupSet side;
    bool active = false;
    bool healed = false;
  };
  void activatePartition(PartitionId id);
  void adjustGroupCuts(const GroupSet& side, int delta);
  [[nodiscard]] bool groupLinkCut(GroupId a, GroupId b) const {
    return groupCut_[static_cast<size_t>(a) *
                         static_cast<size_t>(topo_.numGroups()) +
                     static_cast<size_t>(b)] != 0;
  }

  std::vector<uint64_t> lamport_;
  std::vector<uint8_t> crashed_;
  std::vector<uint8_t> everCrashed_;
  std::vector<uint32_t> incarnation_;
  std::vector<Node*> nodes_;
  std::vector<std::unique_ptr<Node>> owned_;
  NodeFactory nodeFactory_;

  // Dynamic link state. `anyLinkState_` gates the per-copy check so runs
  // without partitions pay nothing on the send hot path.
  bool anyLinkState_ = false;
  std::vector<Partition> partitions_;
  std::vector<uint16_t> groupCut_;  // numGroups^2 cut counts

  DropFilter drop_;
  ChannelHook* channelHook_ = nullptr;
  double lossP_ = 0;  // iid per-copy drop probability
  std::vector<OwnedListener> crashListeners_;
  std::vector<OwnedListener> recoveryListeners_;
  std::vector<RunObserver*> castObservers_;
  std::vector<RunObserver*> deliveryObservers_;
  RunTrace trace_;
  TrafficStats traffic_;
  SimTime lastAlgoSend_ = -1;
  std::vector<uint8_t> sentAlgo_;
  std::vector<uint8_t> recvAlgo_;
  std::vector<uint64_t> perProcOrder_;

  std::deque<Fanout> fanoutSlab_;      // stable addresses for Delivery
  std::vector<Fanout*> fanoutFree_;
  std::vector<uint8_t> interScratch_;  // per-destination flags, reused

  exec::LatencyDraw latencyDraw_;  // draws from rng_
};

}  // namespace wanmc::sim
