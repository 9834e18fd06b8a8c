// The simulation runtime: scheduler + network + processes + instrumentation.
//
// Runtime is the deterministic backend of exec::Context (the execution
// context every protocol stack is written against, and the per-process host
// state both backends share; see src/exec/context.hpp). It implements the
// paper's system model (§2.1):
//   * asynchronous message passing — per-message latency is drawn uniformly
//     from [min,max] ranges, one range for intra-group and one (orders of
//     magnitude larger) for inter-group links;
//   * quasi-reliable links — a message from a correct process to a correct
//     process is always delivered; messages to crashed processes vanish;
//     an optional drop filter injects omission faults for substrate tests;
//   * benign crash-stop failures — a crashed process sends nothing, receives
//     nothing, and fires no timers from the crash instant on.
//
// The paper's cost model (§2.3) — a modified Lamport clock per process where
// ONLY inter-group sends tick the clock — is kept by exec::Context. Every
// A-XCast and A-Deliver is recorded against that clock so that latency
// degrees can be measured, not asserted. What this backend adds is virtual
// time, the event queue, the seeded network and the fault-injection entry
// points (crash, recover, partitions, drop filter, loss).
#pragma once

#include <cassert>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

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
      : exec::Context(std::move(topo), latency, /*threadSafeArena=*/false),
        rng_(SplitMix64(seed).fork(0xa11ce)),
        lossRng_(SplitMix64(seed).fork(0x105eca11)) {}

  // ---- simulation control --------------------------------------------------

  // Calls Node::onStart on every live process (at the current sim time).
  // Throws std::logic_error, before any node starts, if a process has no
  // attached node.
  void start();
  uint64_t run(SimTime until = kTimeNever, uint64_t maxEvents = UINT64_MAX);

  [[nodiscard]] SimTime now() const override { return sched_.now(); }
  [[nodiscard]] Scheduler& scheduler() { return sched_; }

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

  // ---- reliable-channel substrate -----------------------------------------

  void setChannelHook(ChannelHook* hook) override { channelHook_ = hook; }

  WANMC_HOT void channelSend(ProcessId from, ProcessId to, PayloadPtr payload,
                             Layer accountLayer) override;

  void deliverFromChannel(ProcessId from, ProcessId to,
                          const PayloadPtr& payload, uint64_t sendTs) override;

  // ---- timers --------------------------------------------------------------

  // Node timers are registered through exec::Context::timer, which wraps
  // them in the context's TimerGuard and lands in scheduleTimer below; the
  // guard is stored inline in the scheduler's event pool when it fits (see
  // EventCallable and exec::SmallFn), so routine protocol timers do not
  // allocate.
  void cancelTimer(EventId id) override { sched_.cancel(id); }

  // ---- failures ------------------------------------------------------------

  void crash(ProcessId pid);
  void scheduleCrash(ProcessId pid, SimTime when);

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
  EventId scheduleTimer(ProcessId, SimTime delay, TimerGuard guard) override {
    return sched_.at(sched_.now() + delay, std::move(guard));
  }

 private:
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
  // hook, not to the node: the plane decides whether the copy is new to
  // the node. Small enough to stay inline in the scheduler pool.
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

  // One wire copy's fate, the same for a fan-out copy and a channel packet:
  // counted against its sender under `layer`, then dropped on a cut link,
  // by the drop filter or by the loss coin (nullopt), else delayed by a
  // latency draw. Link state and the filter draw nothing and the coins
  // come from their own stream, so a dropped copy never shifts the latency
  // draws of the copies that do go out.
  WANMC_HOT std::optional<SimTime> wireDelay(ProcessId from, ProcessId to,
                                             Layer layer, const Payload& p);

  SplitMix64 rng_;
  SplitMix64 lossRng_;  // separate stream: loss never perturbs latency draws
  Scheduler sched_;

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
                         static_cast<size_t>(topology().numGroups()) +
                     static_cast<size_t>(b)] != 0;
  }

  NodeFactory nodeFactory_;

  // Dynamic link state. `anyLinkState_` gates the per-copy check so runs
  // without partitions pay nothing on the send hot path.
  bool anyLinkState_ = false;
  std::vector<Partition> partitions_;
  std::vector<uint16_t> groupCut_;  // numGroups^2 cut counts

  DropFilter drop_;
  ChannelHook* channelHook_ = nullptr;
  double lossP_ = 0;  // iid per-copy drop probability
  std::vector<RunObserver*> castObservers_;
  std::vector<RunObserver*> deliveryObservers_;
  RunTrace trace_;

  std::deque<Fanout> fanoutSlab_;  // stable addresses for Delivery
  std::vector<Fanout*> fanoutFree_;
};

}  // namespace wanmc::sim
