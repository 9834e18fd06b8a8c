// The execution context a protocol stack runs on, and the host state both
// backends keep for it.
//
// Every protocol node in this repo (the 10 stacks under src/abcast/,
// src/amcast/, src/rmcast/, src/consensus/, src/fd/) and every plane that
// rides along with them (channel, batching, bootstrap, workload) talks to
// its host exclusively through exec::Context: current time, message
// fan-out, guarded timers, crash/incarnation queries, Lamport-clock
// instrumentation, and the channel substrate hand-off. The two backends —
//
//   * sim::Runtime          the deterministic discrete-event oracle
//                           (src/sim/): virtual time, seeded latency draws,
//                           byte-identical golden fingerprints;
//   * exec::ThreadedRuntime real threads and a real steady clock
//                           (src/exec/threaded/): one thread per process,
//                           SPSC queues for message copies, a sim
//                           Scheduler per thread for its timers — the
//                           calibration backend;
//
// derive from it, so protocol code is compiled once and runs unmodified on
// either. Context is a base class, not a pure interface: it owns, once for
// both backends, what a host keeps per process — the node, its
// incarnation and crash flags, the paper's §2.3 modified Lamport clock,
// the §2.2 participation flags, per-layer traffic counters and the
// delivery order — plus the topology, the latency model, the payload
// arena, the incarnation-owned crash/recovery listeners and the timer
// guard. A backend supplies only what differs: the clock, the event
// queues, the transport and trace storage. Backend-agnostic code must not
// name sim::Runtime or the Scheduler directly (lint rule D6 enforces
// this).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/ids.hpp"
#include "common/inline_fn.hpp"
#include "common/message.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/trace.hpp"
#include "sim/topology.hpp"

namespace wanmc::exec {

// Which execution backend hosts a run. kSim is the deterministic oracle
// (golden fingerprints, fault injection, latency sweeps); kThreaded is the
// real-clock calibration backend (one thread per process, no determinism).
enum class Backend { kSim, kThreaded };

[[nodiscard]] inline const char* backendName(Backend b) {
  return b == Backend::kSim ? "sim" : "threaded";
}

// The link-latency model both backends apply: per-copy latency drawn
// uniformly from [min, max], one range for intra-group and one (orders of
// magnitude larger) for inter-group links. The sim backend draws from the
// seeded run RNG; the threaded backend emulates the same distribution in
// real time on top of thread/queue overhead.
struct LatencyModel {
  SimTime intraMin = 1 * kMs;
  SimTime intraMax = 2 * kMs;
  SimTime interMin = 100 * kMs;
  SimTime interMax = 110 * kMs;

  // A LAN-vs-WAN model with no jitter, handy for deterministic examples.
  static LatencyModel fixed(SimTime intra, SimTime inter) {
    return LatencyModel{intra, intra, inter, inter};
  }

  // Throws std::invalid_argument on a negative bound or an inverted
  // [min, max] range. Checked at backend construction (so every
  // RunConfig-built experiment is covered too): a bad range would
  // otherwise silently collapse to a fixed draw (span underflow) or
  // schedule events behind the clock.
  void validate() const;
};

// Per-copy latency draws from a LatencyModel, as both backends make them:
// uniform on [min, max] from the caller's stream. The spans are fixed per
// run, so the modulo uses precomputed FastMod magic. Bit-identical to
// SplitMix64::uniform(min, max), including the jitter-free case, which
// consumes NO random draw.
class LatencyDraw {
 public:
  explicit LatencyDraw(const LatencyModel& m)
      : intra_(m.intraMin, m.intraMax), inter_(m.interMin, m.interMax) {}

  SimTime operator()(bool interGroup, SplitMix64& rng) const {
    const Range& r = interGroup ? inter_ : intra_;
    if (r.span == 0) return r.min;
    return r.min + static_cast<SimTime>(r.mod(rng.next()));
  }

 private:
  struct Range {
    SimTime min;
    uint64_t span;  // 0: fixed latency, no draw
    FastMod mod;
    Range(SimTime lo, SimTime hi)
        : min(lo),
          span(lo < hi ? static_cast<uint64_t>(hi - lo) + 1 : 0),
          mod(span > 0 ? FastMod(span) : FastMod()) {}
  };
  Range intra_;
  Range inter_;
};

// Interception point for the reliable-channel substrate (src/channel/).
// When installed, every non-FD multicast is handed to the hook INSTEAD of
// being scheduled directly; the hook transmits wire copies through
// Context::channelSend (which applies traffic accounting, link state, the
// drop filter, the loss model, and the latency draw) and hands each packet,
// on its first arrival, to Context::deliverFromChannel. With no hook
// installed the send path is byte-identical to the direct scheme.
class ChannelHook {
 public:
  virtual ~ChannelHook() = default;
  // One fan-out from `from` with the already-stamped modified Lamport clock
  // value `sendTs` (the clock ticked ONCE for the whole fan-out; every
  // transmission and retransmission of these copies must carry `sendTs`).
  virtual void onSend(ProcessId from, const std::vector<ProcessId>& tos,
                      const PayloadPtr& payload, uint64_t sendTs) = 0;
  // A wire copy sent via channelSend arrived at a live process `to`.
  virtual void onWireArrive(ProcessId from, ProcessId to,
                            const PayloadPtr& payload) = 0;
  // `pid` recovered as a fresh incarnation (called before the fresh node is
  // built): its channel endpoints must forget the dead incarnation's state.
  virtual void onReset(ProcessId pid) = 0;
};

// The callable crossing the Context timer boundary. The inline buffer is
// sized so that the incarnation guard both backends wrap a timer in
// (Context::TimerGuard: pointer + pid + incarnation + SmallFn = 56 bytes)
// still fits the scheduler's 56-byte inline event pool: routine protocol
// timers — which capture `this` plus a few ids — stay allocation-free end
// to end. Larger captures fall back to one heap allocation.
using SmallFn = InlineFn<32, alignof(void*)>;
static_assert(sizeof(SmallFn) == SmallFn::kInlineSize + sizeof(void*),
              "SmallFn layout drifted: the timer guard is sized to the "
              "scheduler's inline event pool");

class Process;

// The execution context a protocol stack runs on. Split in three tiers:
//
//   node surface     now/topology/multicast/timer/cancel, crash and
//                    incarnation queries, recordCast/recordDelivery —
//                    everything a Process may touch;
//   plane surface    latencyModel/payloadArena, the channel substrate
//                    hand-off, crash/recovery listeners — what the channel,
//                    batching, bootstrap, and FD planes additionally need;
//   harness surface  attach/node, harnessAt/post, trace/traffic harvest —
//                    reserved for the driver (core::Experiment and the
//                    workload generator), never for protocol code.
//
// The virtual members are the backend's part; everything else is answered
// from the host state kept here.
class Context {
 public:
  // Throws std::invalid_argument on an invalid latency model. The payload
  // arena locks its free lists when `threadSafeArena` holds, for backends
  // that release a payload on another thread than the one that built it.
  Context(Topology topo, LatencyModel latency, bool threadSafeArena);
  virtual ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // ---- node surface: time, topology, transport ----------------------------

  [[nodiscard]] virtual SimTime now() const = 0;
  [[nodiscard]] const Topology& topology() const { return topo_; }

  // Sends one payload to many destinations as a SINGLE send event: the
  // sender's Lamport clock ticks once (iff any destination is in another
  // group), and every copy carries that one stamp. This matches the paper's
  // cost model: in the proof of Theorem 4.1, "processes in g_i send (TS, m)
  // to g_{3-i}" is one event with one timestamp, not |g| events. Message
  // *counts* are still per link (one per destination).
  virtual void multicast(ProcessId from, const std::vector<ProcessId>& tos,
                         PayloadPtr payload) = 0;

  // Sends `payload` from `from` to `to`, applying the latency model, the
  // traffic accounting, and the modified Lamport-clock rules. A crashed
  // sender sends nothing; delivery to a crashed receiver is dropped.
  void send(ProcessId from, ProcessId to, PayloadPtr payload) {
    multicast(from, {to}, std::move(payload));
  }

  // Fires `fn` after `delay` unless the process has crashed (or crashed and
  // recovered as a fresh incarnation) by then. Timers are local events:
  // they never touch the Lamport clock, and they fire on the process's own
  // execution context (the sim scheduler / the process's thread).
  template <class F>
  EventId timer(ProcessId pid, SimTime delay, F&& fn) {
    return scheduleTimer(
        pid, delay,
        TimerGuard{this, pid, incarnation(pid), SmallFn(std::forward<F>(fn))});
  }
  virtual void cancelTimer(EventId id) = 0;

  // ---- node surface: failures and incarnations -----------------------------

  [[nodiscard]] bool crashed(ProcessId pid) const { return at(pid).crashed; }
  [[nodiscard]] uint32_t incarnation(ProcessId pid) const {
    return at(pid).incarnation;
  }

  // Registers a callback fired whenever a process crashes. `owner` is the
  // process hosting the listener (the oracle failure detector registers
  // one per process): listeners die with their owner's incarnation, so a
  // recovered process's FRESH detector is the only one still listening.
  void addCrashListener(ProcessId owner, std::function<void(ProcessId)> fn) {
    crashListeners_.push_back({owner, incarnation(owner), std::move(fn)});
  }
  // Same contract, fired whenever a process RECOVERS (after the fresh node
  // is attached and before its onStart). Used for suspicion retraction.
  void addRecoveryListener(ProcessId owner,
                           std::function<void(ProcessId)> fn) {
    recoveryListeners_.push_back({owner, incarnation(owner), std::move(fn)});
  }

  // ---- node surface: modified Lamport-clock instrumentation ---------------

  // Current modified-Lamport clock value of `pid` (paper §2.3: only
  // inter-group sends tick it; receives jump to max(LC, sendTs)).
  [[nodiscard]] uint64_t lamport(ProcessId pid) const {
    return at(pid).lamport.load(std::memory_order_relaxed);
  }
  // Record an A-XCast event (local event: stamped with the current clock).
  virtual void recordCast(ProcessId pid, const AppMsgPtr& m) = 0;
  // Record an A-Deliver event.
  virtual void recordDelivery(ProcessId pid, MsgId msg) = 0;

  // ---- plane surface -------------------------------------------------------

  [[nodiscard]] const LatencyModel& latencyModel() const { return latency_; }

  // Recycler for per-interval protocol payloads (see common/arena.hpp).
  // Owned here so pooled payloads may be held by ANY node or in-flight
  // event: the arena is destroyed after all of them.
  [[nodiscard]] ArenaPool& payloadArena() { return arena_; }

  // Installs a NON-OWNING channel hook (null to remove). The hook must stay
  // alive for as long as the backend dispatches events. Layer
  // kFailureDetector traffic is never routed through the hook: heartbeat
  // TIMING is the failure signal, and retransmitting it would blind the
  // detector.
  virtual void setChannelHook(ChannelHook* hook) = 0;

  // Raw single-copy transmission for the channel plane: traffic accounting
  // under `accountLayer` (DATA under its inner layer, ACK/NACK under
  // kChannel), link state, drop filter, loss model, latency
  // draw, then ChannelHook::onWireArrive at the receiver. Never touches the
  // Lamport clocks: only the ORIGINAL multicast ticks the sender's clock
  // (paper §2.3); retransmissions carry the original stamp inside the
  // channel payload.
  virtual void channelSend(ProcessId from, ProcessId to, PayloadPtr payload,
                           Layer accountLayer) = 0;

  // The one handoff of a channel-carried packet to the hosting node:
  // applies the receive-side Lamport jump to the ORIGINAL `sendTs` and the
  // genuineness accounting, exactly like a direct delivery would have.
  virtual void deliverFromChannel(ProcessId from, ProcessId to,
                                  const PayloadPtr& payload,
                                  uint64_t sendTs) = 0;

  // ---- harness surface: hosting --------------------------------------------

  // Takes ownership of the node hosting process `pid`, replacing (and
  // destroying) the one it held.
  void attach(ProcessId pid, std::unique_ptr<Process> node);
  [[nodiscard]] Process& node(ProcessId pid) {
    assert(at(pid).node != nullptr);
    return *at(pid).node;
  }

  // ---- harness surface: driver-plane scheduling ----------------------------

  // Schedules an UNGUARDED harness event at absolute time `when` (clamped
  // to now): workload arrivals, scripted casts, batch-window expiries. The
  // callback must check crash/incarnation state itself if it touches a
  // process. On the threaded backend harness events fire on the driver
  // thread; use post() to touch a process's stack.
  virtual EventId harnessAt(SimTime when, SmallFn fn) = 0;
  virtual void harnessCancel(EventId id) = 0;

  // Runs `fn` on `pid`'s execution context: immediately (inline) on the
  // sim backend, as an enqueued command on the process's own thread on the
  // threaded backend. The only sanctioned way for driver-plane code to
  // call into a node's stack.
  virtual void post(ProcessId pid, SmallFn fn) = 0;

  // ---- harness surface: harvest --------------------------------------------
  //
  // On the threaded backend the per-process answers below are read once
  // its threads have joined.

  [[nodiscard]] virtual const RunTrace& trace() const = 0;
  // Messages handed to the network, per layer: the senders' counters
  // summed.
  [[nodiscard]] TrafficStats traffic() const;
  // Time of the last non-FD packet handed to the network. The quiescence
  // verifier compares this against the last cast (paper §5.2 / Prop. A.9).
  [[nodiscard]] SimTime lastAlgorithmicSend() const;
  // True if the process crashed at least once, even if it has recovered
  // since: the paper's "correct process" means NEVER crashed.
  [[nodiscard]] bool everCrashed(ProcessId pid) const {
    return at(pid).everCrashed;
  }
  // Per-process "took part in the protocol" flags for the genuineness
  // checker; only isAlgorithmic layers count (the paper's accounting
  // treats the failure detector as an oracle).
  [[nodiscard]] bool everSentAlgorithmic(ProcessId pid) const {
    return at(pid).sentAlgo;
  }
  [[nodiscard]] bool everReceivedAlgorithmic(ProcessId pid) const {
    return at(pid).recvAlgo;
  }

 protected:
  // Suppresses a timer whose process crashed — or crashed AND recovered —
  // before it fired: a recovered process is a new incarnation, and the old
  // incarnation's timers must not fire into the fresh node (their captures
  // point into the destroyed one). 56 bytes, the scheduler's inline event
  // size (see SmallFn), so routine protocol timers do not allocate.
  struct TimerGuard {
    const Context* ctx;
    ProcessId pid;
    uint32_t inc;
    SmallFn fn;
    void operator()() {
      if (!ctx->crashed(pid) && ctx->incarnation(pid) == inc) fn();
    }
  };

  // Backend hook behind the timer() template: schedule `guard` on `pid`'s
  // execution context after `delay`.
  virtual EventId scheduleTimer(ProcessId pid, SimTime delay,
                                TimerGuard guard) = 0;

  // ---- for the backends: the host state, one implementation ---------------

  [[nodiscard]] const LatencyDraw& latencyDraw() const { return draw_; }

  // Throws std::logic_error, naming `who`, if a process has no node.
  void requireNodes(const char* who) const;

  // The send event of one fan-out (paper §2.3, rule 2): stamped LC+1 if
  // any copy leaves the sender's group, LC otherwise; the sender's clock
  // advances to the stamp, which every copy carries.
  uint64_t stampSend(ProcessId from, const std::vector<ProcessId>& tos) {
    bool leaves = false;
    for (ProcessId to : tos) leaves |= !topo_.sameGroup(from, to);
    std::atomic<uint64_t>& lc = at(from).lamport;
    const uint64_t ts = lc.load(std::memory_order_relaxed) + (leaves ? 1 : 0);
    lc.store(ts, std::memory_order_relaxed);
    return ts;
  }
  // A send under `layer` at `when`: an algorithmic one marks the sender as
  // taking part (genuineness) and moves its last algorithmic send.
  void noteSend(ProcessId from, Layer layer, SimTime when) {
    if (!isAlgorithmic(layer)) return;
    ProcState& s = at(from);
    s.sentAlgo = true;
    s.lastAlgoSend = when;
  }
  // One copy handed to the network, counted against its sender.
  void countCopy(ProcessId from, Layer layer, bool interGroup) {
    TrafficStats::Counter& c = at(from).traffic.at(layer);
    ++(interGroup ? c.inter : c.intra);
  }
  // A copy stamped `sendTs` arrives at `to`: nothing if `to` is crashed,
  // else the receive event (paper §2.3, rule 3: the clock jumps to
  // max(LC, sendTs)), the genuineness flag and the node's handler.
  void receive(ProcessId from, ProcessId to, const PayloadPtr& payload,
               uint64_t sendTs, Layer layer);

  // The trace entries of an A-XCast and an A-Deliver at `when`, stamped
  // with the process's clock; a delivery takes the process's next order.
  [[nodiscard]] CastEvent castEvent(ProcessId pid, const AppMsgPtr& m,
                                    SimTime when) const {
    return CastEvent{pid, m->id, m->dest, lamport(pid), when};
  }
  [[nodiscard]] DeliveryEvent deliveryEvent(ProcessId pid, MsgId msg,
                                            SimTime when) {
    ProcState& s = at(pid);
    return DeliveryEvent{pid, msg, s.lamport.load(std::memory_order_relaxed),
                         when, s.order++};
  }

  // Fault-plane mutators, for a backend that injects crashes. A crash
  // marks the process, then the backend records it and fires the crash
  // listeners. A recovery starts the next incarnation (crashed cleared),
  // purges the dead incarnation's listeners, attaches the fresh node,
  // then the backend records it and fires the recovery listeners.
  void markCrashed(ProcessId pid) {
    ProcState& s = at(pid);
    s.crashed = true;
    s.everCrashed = true;
  }
  void beginIncarnation(ProcessId pid) {
    ProcState& s = at(pid);
    ++s.incarnation;
    s.crashed = false;
  }
  void purgeListeners(ProcessId pid);
  void fireCrashListeners(ProcessId subject) {
    dispatch(crashListeners_, subject);
  }
  void fireRecoveryListeners(ProcessId subject) {
    dispatch(recoveryListeners_, subject);
  }

 private:
  // Everything the host keeps for one process. Cache-line aligned: on the
  // threaded backend each record is written by its process's thread only,
  // and two threads' writes must never share a line.
  struct alignas(64) ProcState {
    std::unique_ptr<Process> node;
    // Written by the owning process only; atomic because a batched cast is
    // recorded on the threaded backend's driver thread, which reads it.
    std::atomic<uint64_t> lamport{0};
    SimTime lastAlgoSend = -1;
    uint64_t order = 0;  // per-process delivery sequence number
    uint32_t incarnation = 0;
    bool crashed = false;
    bool everCrashed = false;
    bool sentAlgo = false;
    bool recvAlgo = false;
    TrafficStats traffic;  // copies this process sent
  };

  // One crash/recovery listener, owned by a process incarnation: dispatch
  // skips (and purge removes) entries whose owner has moved on.
  struct OwnedListener {
    ProcessId owner;
    uint32_t inc;
    std::function<void(ProcessId)> fn;
  };
  void dispatch(const std::vector<OwnedListener>& listeners,
                ProcessId subject);

  [[nodiscard]] ProcState& at(ProcessId pid) {
    return procs_[static_cast<size_t>(pid)];
  }
  [[nodiscard]] const ProcState& at(ProcessId pid) const {
    return procs_[static_cast<size_t>(pid)];
  }

  Topology topo_;
  LatencyModel latency_;
  LatencyDraw draw_;
  ArenaPool arena_;  // before the nodes: destroyed after them
  std::vector<ProcState> procs_;
  std::vector<OwnedListener> crashListeners_;
  std::vector<OwnedListener> recoveryListeners_;
};

// Base class of a hosted process. A Process hosts the whole per-process
// protocol stack (failure detector, consensus, reliable multicast, and the
// atomic multicast/broadcast algorithm); subclasses dispatch payloads to
// the right component in onMessage. Known to the sim backend as sim::Node
// (the historical name, kept as an alias).
class Process {
 public:
  Process(Context& ctx, ProcessId pid)
      : ctx_(ctx), pid_(pid), gid_(ctx.topology().group(pid)) {}
  virtual ~Process() = default;

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] ProcessId pid() const { return pid_; }
  [[nodiscard]] GroupId gid() const { return gid_; }
  // The execution context hosting this process. The name predates the
  // backend split; protocol code reads naturally either way.
  [[nodiscard]] Context& runtime() { return ctx_; }
  [[nodiscard]] const Topology& topology() const { return ctx_.topology(); }
  [[nodiscard]] SimTime now() const { return ctx_.now(); }

  // Called once when the run starts (on the process's own context).
  virtual void onStart() {}
  // Called for every delivered packet.
  virtual void onMessage(ProcessId from, const PayloadPtr& payload) = 0;

 protected:
  void send(ProcessId to, PayloadPtr payload) {
    ctx_.send(pid_, to, std::move(payload));
  }
  // One send event, many copies (see Context::multicast).
  void sendToMany(const std::vector<ProcessId>& tos, const PayloadPtr& p) {
    ctx_.multicast(pid_, tos, p);
  }
  template <class F>
  EventId timer(SimTime delay, F&& fn) {
    return ctx_.timer(pid_, delay, std::forward<F>(fn));
  }

 private:
  Context& ctx_;
  ProcessId pid_;
  GroupId gid_;
};

inline void Context::receive(ProcessId from, ProcessId to,
                             const PayloadPtr& payload, uint64_t sendTs,
                             Layer layer) {
  ProcState& s = at(to);
  if (s.crashed) return;  // to a crashed process: vanishes
  const uint64_t lc = s.lamport.load(std::memory_order_relaxed);
  s.lamport.store(std::max(lc, sendTs), std::memory_order_relaxed);
  if (isAlgorithmic(layer)) s.recvAlgo = true;
  s.node->onMessage(from, payload);
}

}  // namespace wanmc::exec
