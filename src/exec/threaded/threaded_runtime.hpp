// ThreadedRuntime: the real-clock execution backend.
//
// One OS thread per process, real std::chrono::steady_clock time, lock-free
// SPSC rings for everything that crosses threads, and a per-thread
// sim::Scheduler for timers. Protocol stacks written against exec::Context
// run here unmodified; what changes is the physics: time advances on its
// own, message "latency" is the emulated WAN draw ON TOP of real
// scheduling/queueing overhead, and nothing is deterministic. The sim
// backend remains the oracle; this backend exists to measure — the
// calibration bench re-runs the A1 latency/throughput sweep here and plots
// sim vs. real.
//
// Scope: the host state — node, incarnation and crash flags, Lamport
// clock, participation flags, traffic counters, listeners, timer guard —
// is exec::Context's, the same code the sim runs. What this backend adds
// is a real clock, per-thread queues and rings, and per-thread trace
// slices. It has no fault-injection entry points: nothing here crashes a
// process, cuts a link or drops a copy, so the crash state stays at its
// initial values and the listeners never fire. core::Experiment rejects
// configurations that arm crash/recover, partitions, loss, reliable
// channels or bootstrap on this backend.
//
// Threading model
//   * N process threads, one per pid; thread i owns per_[i] — its timer
//     queue, its deferred-message queue, its RNG and its slice of the
//     trace — and process i's record in exec::Context: its node, its
//     Lamport clock, its flags and traffic counters. Only thread i writes
//     them; the records are cache-line aligned, so no two threads' writes
//     share a line.
//   * The driver (the thread that calls run(), slot N until run()
//     returns) owns the harness queue: scripted casts, workload arrivals,
//     batch windows. It reaches a process ONLY via post(), which crosses
//     on a ring like any message; a post from a thread that is no slot
//     (before run(), or after it) crosses on the driver's ring too.
//   * Timer queues are the sim's Scheduler, one per owning thread, fired
//     with run(now) on the real clock, so a timer armed after a pass may
//     land behind the window start (see the calendar notes in
//     scheduler.hpp). An id carries no owner: cancelTimer cancels on the
//     calling thread's own queue, the only one a process may touch. Every
//     timer is wrapped in exec::Context's incarnation guard, as on the sim.
//   * Crossings: rings_[consumer][producer]. multicast() pushes one
//     envelope per destination on the sender's own thread; the receiver
//     defers it in a min-heap on its emulated-latency deadline, then
//     delivers. Links are non-FIFO by contract, so ties go in any order.
//     Deferred copies stay in that heap rather than on the Scheduler: at
//     a1_threaded_lan's 20k casts/s overload, queueing them there read
//     peak RSS 58.5-61.4 MB against 47.5-48.3 MB (4 alternating 25 s
//     pairs, shared 4-vCPU VM), since the calendar's 2,048 bucket vectors
//     keep the capacity they grow to.
//   * Back-pressure: a ring holds 4,096 envelopes, and a push that finds
//     its ring full retries every 5 µs. A process thread that waits so is
//     inside onStart or a handler, and the consumer it waits for may be
//     waiting on one of its own rings. So while it waits, it moves every
//     envelope in its own rings into its inbox heap and every posted
//     command into a FIFO, running no handler; its loop runs those
//     commands first, in post order. No process thread thus waits on one
//     that waits on it. A push with room left is one ring write. The
//     driver's push just waits: no process ever waits on the driver.
//   * Waiting: a thread that finds nothing to do sleeps until its next
//     deadline: a process thread until its inbox head or its next timer
//     is due, the driver until its next harness event. No sleep lasts
//     longer than the cap, the smallest one-way link delay clamped to
//     [20, 100] µs. A copy pushed while its receiver sleeps is due a link
//     delay after the push, so on links of 20 µs or more it is never due
//     before that sleep ends: no deferred copy waits for a wake-up. A
//     posted command waits at most the cap. Each runtime thread sets its
//     own timer slack to 1 ns (Linux), so the kernel ends a sleep at its
//     deadline rather than up to 50 µs after it.
//   * Shutdown: stop() raises a flag, joins every thread, then merges the
//     per-thread trace slices into one RunTrace ordered by wall time. The
//     per-process harvest answers (traffic, last algorithmic send, the
//     participation flags) are read from the records after the join.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "exec/context.hpp"
#include "exec/threaded/spsc.hpp"
#include "sim/scheduler.hpp"
#include "sim/topology.hpp"

namespace wanmc::exec {

class ThreadedRuntime final : public Context {
 public:
  ThreadedRuntime(Topology topo, LatencyModel latency, uint64_t seed);
  ~ThreadedRuntime() override;

  ThreadedRuntime(const ThreadedRuntime&) = delete;
  ThreadedRuntime& operator=(const ThreadedRuntime&) = delete;

  // ---- lifecycle (driver thread) ------------------------------------------

  // Launches one thread per process; each runs its node's onStart() and
  // enters its event loop. The caller becomes the driver. Throws
  // std::logic_error, before any thread starts, if a process has no
  // attached node.
  void start();

  // Fires harness events until `done()` holds or `wallBudgetUs` of real
  // time elapses. `done` is evaluated between passes over the harness
  // queue, on the driver thread. Returns true iff the run ended by done().
  bool run(SimTime wallBudgetUs, const std::function<bool()>& done);

  // Stops the process threads, joins them, and merges their trace slices.
  // Idempotent; called automatically from the destructor if needed.
  void stop();

  // Total A-Delivers recorded so far, readable from the driver while the
  // run is in flight (the termination ledger reads this).
  [[nodiscard]] uint64_t deliveredCount() const {
    return delivered_.load(std::memory_order_acquire);
  }
  // Harness events still pending on the driver. Driver thread only.
  [[nodiscard]] size_t pendingHarnessEvents() const {
    return driverSched_.pendingEvents();
  }

  // ---- exec::Context: node surface ----------------------------------------

  [[nodiscard]] SimTime now() const override;
  void multicast(ProcessId from, const std::vector<ProcessId>& tos,
                 PayloadPtr payload) override;
  void cancelTimer(EventId id) override;
  void recordCast(ProcessId pid, const AppMsgPtr& m) override;
  void recordDelivery(ProcessId pid, MsgId msg) override;

  // ---- exec::Context: plane surface ---------------------------------------

  void setChannelHook(ChannelHook* hook) override;
  void channelSend(ProcessId from, ProcessId to, PayloadPtr payload,
                   Layer accountLayer) override;
  void deliverFromChannel(ProcessId from, ProcessId to,
                          const PayloadPtr& payload, uint64_t sendTs) override;

  // ---- exec::Context: harness surface -------------------------------------

  EventId harnessAt(SimTime when, SmallFn fn) override;
  void harnessCancel(EventId id) override;
  void post(ProcessId pid, SmallFn fn) override;
  [[nodiscard]] const RunTrace& trace() const override { return trace_; }

 protected:
  EventId scheduleTimer(ProcessId pid, SimTime delay,
                        TimerGuard guard) override;

 private:
  // One message or command crossing a thread boundary.
  struct Envelope {
    PayloadPtr payload;            // null for a posted command
    SmallFn cmd;                   // the command, when payload is null
    int64_t dueUs = 0;             // emulated-latency arrival deadline
    uint64_t sendTs = 0;           // sender's modified Lamport stamp
    ProcessId from = kNoProcess;
  };

  // What thread `pid` owns besides process `pid`'s record in
  // exec::Context. alignas keeps two threads' states off a shared cache
  // line.
  struct alignas(64) PerThread {
    sim::Scheduler sched;         // protocol timers
    std::vector<Envelope> inbox;  // latency-deferred messages, min-heap
    std::deque<SmallFn> posted;   // commands set aside by a waiting push
    SplitMix64 rng{0};            // latency-emulation draws
    // Trace slices, merged at stop().
    std::vector<CastEvent> casts;
    std::vector<DeliveryEvent> deliveries;
    std::thread th;
  };

  [[nodiscard]] int64_t monoUs() const;  // µs since start()
  // Sleeps until monoUs() reaches `wakeUs`; returns at once if it has.
  void sleepUntil(int64_t wakeUs) const;
  void threadMain(ProcessId pid);
  void pushBlocking(int consumer, int producer, Envelope e);
  void deliverEnvelope(ProcessId to, Envelope& e);
  // Empties `pid`'s rings on thread `pid`: delivers due copies, defers the
  // rest and runs posted commands. While a push of `pid` is `waiting`, it
  // runs nothing: copies go to the inbox heap and commands to `posted`.
  // Returns the envelopes handled.
  size_t drainRings(ProcessId pid, bool waiting);
  void mergeTraces();

  // Driver-slot index (process slots are [0, N)).
  [[nodiscard]] int driverSlot() const { return topology().numProcesses(); }

  int64_t sleepCapUs_;  // longest idle sleep (see "Waiting" above)

  std::vector<PerThread> per_;
  // rings_[consumer][producer]; producers are the N process threads plus
  // the driver (index N).
  std::vector<std::vector<std::unique_ptr<SpscRing<Envelope>>>> rings_;

  sim::Scheduler driverSched_;  // harness events; driver thread only
  // Driver-slice trace entries (recordCast of batched casts).
  std::vector<CastEvent> driverCasts_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopFlag_{false};
  bool stopped_ = false;
  std::atomic<uint64_t> delivered_{0};
  std::chrono::steady_clock::time_point t0_{};

  RunTrace trace_;  // merged at stop()
};

}  // namespace wanmc::exec
