// The execution-backend interface: the surface a protocol stack runs on.
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
// implement the same contract, so protocol code is compiled once and runs
// unmodified on either. Backend-agnostic code must not name sim::Runtime
// or the Scheduler directly (lint rule D6 enforces this).
#pragma once

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
// drop filter, the loss model, and the latency draw) and hands packets that
// have reached their in-order point to Context::deliverFromChannel. With no
// hook installed the send path is byte-identical to the direct scheme.
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
// sized so that the sim backend's incarnation guard (pointer + pid +
// incarnation + SmallFn = 56 bytes) still fits the scheduler's 56-byte
// inline event pool: routine protocol timers — which capture `this` plus a
// few ids — stay allocation-free end to end. Larger captures fall back to
// one heap allocation.
using SmallFn = InlineFn<32, alignof(void*)>;
static_assert(sizeof(SmallFn) == SmallFn::kInlineSize + sizeof(void*),
              "SmallFn layout drifted: the sim timer guard is sized to the "
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
class Context {
 public:
  virtual ~Context() = default;

  // ---- node surface: time, topology, transport ----------------------------

  [[nodiscard]] virtual SimTime now() const = 0;
  [[nodiscard]] virtual const Topology& topology() const = 0;

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
    return scheduleTimer(pid, delay, SmallFn(std::forward<F>(fn)));
  }
  virtual void cancelTimer(EventId id) = 0;

  // ---- node surface: failures and incarnations -----------------------------

  [[nodiscard]] virtual bool crashed(ProcessId pid) const = 0;
  [[nodiscard]] virtual uint32_t incarnation(ProcessId pid) const = 0;
  [[nodiscard]] virtual int aliveInGroup(GroupId g) const = 0;

  // Registers a callback fired whenever a process crashes. `owner` is the
  // process hosting the listener (the oracle failure detector registers
  // one per process): listeners die with their owner's incarnation, so a
  // recovered process's FRESH detector is the only one still listening.
  virtual void addCrashListener(ProcessId owner,
                                std::function<void(ProcessId)> fn) = 0;
  // Same contract, fired whenever a process RECOVERS (after the fresh node
  // is attached and before its onStart). Used for suspicion retraction.
  virtual void addRecoveryListener(ProcessId owner,
                                   std::function<void(ProcessId)> fn) = 0;

  // ---- node surface: modified Lamport-clock instrumentation ---------------

  // Current modified-Lamport clock value of `pid` (paper §2.3: only
  // inter-group sends tick it; receives jump to max(LC, sendTs)).
  [[nodiscard]] virtual uint64_t lamport(ProcessId pid) const = 0;
  // Record an A-XCast event (local event: stamped with the current clock).
  virtual void recordCast(ProcessId pid, const AppMsgPtr& m) = 0;
  // Record an A-Deliver event.
  virtual void recordDelivery(ProcessId pid, MsgId msg) = 0;

  // ---- plane surface -------------------------------------------------------

  [[nodiscard]] virtual const LatencyModel& latencyModel() const = 0;

  // Recycler for per-interval protocol payloads (see common/arena.hpp).
  // Owned by the backend so pooled payloads may be held by ANY node or
  // in-flight event: the arena is destroyed after all of them.
  [[nodiscard]] virtual ArenaPool& payloadArena() = 0;

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

  // Final in-order handoff of a channel-carried packet to the hosting node:
  // applies the receive-side Lamport jump to the ORIGINAL `sendTs` and the
  // genuineness accounting, exactly like a direct delivery would have.
  virtual void deliverFromChannel(ProcessId from, ProcessId to,
                                  const PayloadPtr& payload,
                                  uint64_t sendTs) = 0;

  // ---- harness surface: hosting --------------------------------------------

  // Takes ownership of the node hosting process `pid`.
  virtual void attach(ProcessId pid, std::unique_ptr<Process> node) = 0;
  [[nodiscard]] virtual Process& node(ProcessId pid) = 0;

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

  [[nodiscard]] virtual const RunTrace& trace() const = 0;
  [[nodiscard]] virtual const TrafficStats& traffic() const = 0;
  // Time of the last non-FD packet handed to the network. The quiescence
  // verifier compares this against the last cast (paper §5.2 / Prop. A.9).
  [[nodiscard]] virtual SimTime lastAlgorithmicSend() const = 0;
  // True if the process crashed at least once, even if it has recovered
  // since: the paper's "correct process" means NEVER crashed.
  [[nodiscard]] virtual bool everCrashed(ProcessId pid) const = 0;
  // Per-process "took part in the protocol" flags for the genuineness
  // checker; only isAlgorithmic layers count (the paper's accounting
  // treats the failure detector as an oracle).
  [[nodiscard]] virtual bool everSentAlgorithmic(ProcessId pid) const = 0;
  [[nodiscard]] virtual bool everReceivedAlgorithmic(ProcessId pid) const = 0;

 protected:
  // Backend hook behind the timer() template: schedule `fn` on `pid`'s
  // execution context after `delay`, guarded against crash/reincarnation.
  virtual EventId scheduleTimer(ProcessId pid, SimTime delay, SmallFn fn) = 0;
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

}  // namespace wanmc::exec
