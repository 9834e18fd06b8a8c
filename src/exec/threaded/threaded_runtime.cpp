#include "exec/threaded/threaded_runtime.hpp"

#include <algorithm>
#include <stdexcept>

#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace wanmc::exec {

namespace {
// Which slot (process index, or driverSlot) the current thread IS. -1 on
// threads the runtime never adopted (e.g. a test's main thread before
// run()). Identity, not data: used only for ownership asserts and for
// routing recordCast to the right trace slice.
thread_local int tlsSlot = -1;

// Sets the calling thread's timer slack to 1 ns while in scope, so that a
// sleep ends at its deadline instead of up to the default 50 µs later.
// Slack is a per-thread attribute; the destructor restores the caller's.
class PreciseSleeps {
 public:
  PreciseSleeps() {
#ifdef __linux__
    saved_ = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
    prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
#endif
  }
  ~PreciseSleeps() {
#ifdef __linux__
    if (saved_ > 0) prctl(PR_SET_TIMERSLACK, saved_, 0, 0, 0);
#endif
  }
  PreciseSleeps(const PreciseSleeps&) = delete;
  PreciseSleeps& operator=(const PreciseSleeps&) = delete;

 private:
  [[maybe_unused]] long saved_ = 0;
};

// Min-heap order on the emulated-latency deadline.
template <class E>
bool dueLater(const E& a, const E& b) {
  return a.dueUs > b.dueUs;
}
}  // namespace

ThreadedRuntime::ThreadedRuntime(Topology topo, LatencyModel latency,
                                 uint64_t seed)
    : topo_(std::move(topo)),
      latency_(latency),
      latencyDraw_(latency_),
      seed_(seed),
      sleepCapUs_(std::clamp<int64_t>(
          std::min(latency_.intraMin, latency_.interMin), 20, 100)) {
  latency_.validate();
  const size_t n = static_cast<size_t>(topo_.numProcesses());
  per_ = std::vector<PerThread>(n);
  for (size_t p = 0; p < n; ++p) {
    // Same forking discipline as the sim: one independent stream per
    // process, all derived from the run seed.
    per_[p].rng = SplitMix64(seed_).fork(static_cast<uint64_t>(p) + 1);
  }
  rings_.resize(n);
  for (size_t c = 0; c < n; ++c) {
    rings_[c].reserve(n + 1);
    for (size_t prod = 0; prod <= n; ++prod)
      rings_[c].push_back(std::make_unique<SpscRing<Envelope>>());
  }
}

ThreadedRuntime::~ThreadedRuntime() {
  if (running_.load(std::memory_order_acquire)) stop();
}

void ThreadedRuntime::attach(ProcessId pid, std::unique_ptr<Process> node) {
  assert(!running_.load(std::memory_order_relaxed) &&
         "attach() before start()");
  assert(pid >= 0 && pid < topo_.numProcesses());
  per_[static_cast<size_t>(pid)].node = std::move(node);
}

int64_t ThreadedRuntime::monoUs() const {
  if (!running_.load(std::memory_order_relaxed) && !stopped_) return 0;
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

SimTime ThreadedRuntime::now() const { return monoUs(); }

void ThreadedRuntime::start() {
  assert(!running_.load(std::memory_order_relaxed));
  for (size_t p = 0; p < per_.size(); ++p)
    if (per_[p].node == nullptr)
      throw std::logic_error("ThreadedRuntime::start: process " +
                             std::to_string(p) + " has no attached node");
  t0_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_release);
  for (size_t p = 0; p < per_.size(); ++p)
    per_[p].th = std::thread(&ThreadedRuntime::threadMain, this,
                             static_cast<ProcessId>(p));
}

void ThreadedRuntime::sleepUntil(int64_t wakeUs) const {
  std::this_thread::sleep_until(t0_ + std::chrono::microseconds(wakeUs));
}

void ThreadedRuntime::threadMain(ProcessId pid) {
  tlsSlot = pid;
  const PreciseSleeps precise;
  PerThread& me = per_[static_cast<size_t>(pid)];
  me.node->onStart();
  while (!stopFlag_.load(std::memory_order_acquire)) {
    size_t work = drainRings(pid);

    // Deferred messages whose emulated-latency deadline has passed.
    const int64_t now = monoUs();
    while (!me.inbox.empty() && me.inbox.front().dueUs <= now) {
      std::pop_heap(me.inbox.begin(), me.inbox.end(), dueLater<Envelope>);
      Envelope e = std::move(me.inbox.back());
      me.inbox.pop_back();
      deliverEnvelope(pid, e);
      ++work;
    }

    work += me.sched.run(monoUs());

    if (work == 0) {
      // Idle: sleep until the next deadline (see "Waiting" in the header).
      int64_t wake = std::min(monoUs() + sleepCapUs_, me.sched.nextDue());
      if (!me.inbox.empty()) wake = std::min(wake, me.inbox.front().dueUs);
      sleepUntil(wake);
    }
  }
}

size_t ThreadedRuntime::drainRings(ProcessId pid) {
  PerThread& me = per_[static_cast<size_t>(pid)];
  auto& myRings = rings_[static_cast<size_t>(pid)];
  const int64_t now = monoUs();
  size_t popped = 0;
  Envelope e;
  for (auto& ring : myRings) {
    while (ring->tryPop(e)) {
      ++popped;
      if (e.payload == nullptr) {
        // Posted command from the driver: runs immediately on this thread.
        e.cmd();
        continue;
      }
      if (e.dueUs <= now) {
        deliverEnvelope(pid, e);
      } else {
        me.inbox.push_back(std::move(e));
        std::push_heap(me.inbox.begin(), me.inbox.end(), dueLater<Envelope>);
      }
    }
  }
  return popped;
}

void ThreadedRuntime::deliverEnvelope(ProcessId to, Envelope& e) {
  PerThread& me = per_[static_cast<size_t>(to)];
  // Receive event (rule 3): the receiver's clock jumps to
  // max(LC, ts(send(m))). Relaxed: only this thread writes its clock.
  const uint64_t lc = me.lamport.load(std::memory_order_relaxed);
  me.lamport.store(std::max(lc, e.sendTs), std::memory_order_relaxed);
  if (isAlgorithmic(e.payload->layer())) me.recvAlgo = true;
  me.node->onMessage(e.from, e.payload);
}

void ThreadedRuntime::pushBlocking(int consumer, int producer, Envelope e) {
  SpscRing<Envelope>& ring =
      *rings_[static_cast<size_t>(consumer)][static_cast<size_t>(producer)];
  while (!ring.tryPush(e)) {
    // Ring full: the consumer is behind. Backpressure by spinning; bail
    // (dropping the envelope) only if the run is already tearing down,
    // otherwise a full ring at shutdown would deadlock the producer.
    if (stopFlag_.load(std::memory_order_acquire)) return;
    std::this_thread::sleep_for(std::chrono::microseconds(5));
  }
}

void ThreadedRuntime::bumpAlgoSend(ProcessId from, SimTime when) {
  per_[static_cast<size_t>(from)].sentAlgo = true;
  // Monotonic max; several sender threads race here, so CAS-max.
  int64_t cur = lastAlgoSend_.load(std::memory_order_relaxed);
  while (when > cur && !lastAlgoSend_.compare_exchange_weak(
                           cur, when, std::memory_order_release,
                           std::memory_order_relaxed)) {
  }
}

void ThreadedRuntime::multicast(ProcessId from,
                                const std::vector<ProcessId>& tos,
                                PayloadPtr payload) {
  assert(payload != nullptr);
  assert((tlsSlot == from || !running_.load(std::memory_order_relaxed)) &&
         "multicast must run on the sender's own thread");
  if (tos.empty()) return;

  PerThread& me = per_[static_cast<size_t>(from)];
  const Layer layer = payload->layer();

  // Modified Lamport clock (paper §2.3, rule 2): stamp LC+1 iff the
  // fan-out leaves the group; one tick for the whole fan-out.
  bool anyInter = false;
  for (ProcessId to : tos) anyInter |= !topo_.sameGroup(from, to);
  const uint64_t sendTs =
      me.lamport.load(std::memory_order_relaxed) + (anyInter ? 1 : 0);
  me.lamport.store(sendTs, std::memory_order_relaxed);

  if (isAlgorithmic(layer)) bumpAlgoSend(from, monoUs());

  auto& counter = me.traffic.at(layer);
  for (ProcessId to : tos) {
    const bool inter = !topo_.sameGroup(from, to);
    if (inter) {
      ++counter.inter;
    } else {
      ++counter.intra;
    }
    // The emulated WAN delay is drawn on the sender's own stream and rides
    // in the envelope; the receiver defers delivery until the deadline.
    Envelope e;
    e.payload = payload;
    e.dueUs = monoUs() + latencyDraw_(inter, me.rng);
    e.sendTs = sendTs;
    e.from = from;
    pushBlocking(to, tlsSlot >= 0 ? tlsSlot : from, std::move(e));
  }
}

EventId ThreadedRuntime::scheduleTimer(ProcessId pid, SimTime delay,
                                       SmallFn fn) {
  assert((tlsSlot == pid || !running_.load(std::memory_order_relaxed)) &&
         "a process may only arm its own timers");
  return per_[static_cast<size_t>(pid)].sched.at(monoUs() + delay,
                                                 std::move(fn));
}

void ThreadedRuntime::cancelTimer(EventId id) {
  // The id names no owner: the queue is the calling thread's own.
  assert(tlsSlot >= 0 && tlsSlot < topo_.numProcesses() &&
         "a process may only cancel its own timers, on its own thread");
  per_[static_cast<size_t>(tlsSlot)].sched.cancel(id);
}

EventId ThreadedRuntime::harnessAt(SimTime when, SmallFn fn) {
  assert((tlsSlot == driverSlot() ||
          !running_.load(std::memory_order_relaxed)) &&
         "harness events belong to the driver thread");
  return driverSched_.at(std::max<int64_t>(when, monoUs()), std::move(fn));
}

void ThreadedRuntime::harnessCancel(EventId id) {
  assert((tlsSlot == driverSlot() ||
          !running_.load(std::memory_order_relaxed)) &&
         "harness events belong to the driver thread");
  driverSched_.cancel(id);
}

void ThreadedRuntime::post(ProcessId pid, SmallFn fn) {
  assert(pid >= 0 && pid < topo_.numProcesses());
  Envelope e;
  e.cmd = std::move(fn);
  pushBlocking(pid, tlsSlot >= 0 ? tlsSlot : driverSlot(), std::move(e));
}

void ThreadedRuntime::recordCast(ProcessId pid, const AppMsgPtr& m) {
  const uint64_t lc =
      per_[static_cast<size_t>(pid)].lamport.load(std::memory_order_relaxed);
  CastEvent ev{pid, m->id, m->dest, lc, monoUs()};
  // Unbatched casts record on the sender's thread; batched carriers are
  // recorded by the driver's flush path. Each appends to its OWN slice.
  if (tlsSlot == pid) {
    per_[static_cast<size_t>(pid)].casts.push_back(ev);
  } else {
    driverCasts_.push_back(ev);
  }
}

void ThreadedRuntime::recordDelivery(ProcessId pid, MsgId msg) {
  PerThread& me = per_[static_cast<size_t>(pid)];
  assert(tlsSlot == pid && "deliveries are recorded on the owning thread");
  me.deliveries.push_back(
      DeliveryEvent{pid, msg, me.lamport.load(std::memory_order_relaxed),
                    monoUs(), me.perProcOrder++});
  // Release pairs with the driver's acquire in deliveredCount(): the
  // termination ledger must observe the trace entry it counted.
  delivered_.fetch_add(1, std::memory_order_release);
}

void ThreadedRuntime::setChannelHook(ChannelHook* hook) {
  if (hook != nullptr)
    throw std::logic_error(
        "ThreadedRuntime: reliable channels are a sim-backend substrate; "
        "the threaded backend sends every copy exactly once");
}

void ThreadedRuntime::channelSend(ProcessId, ProcessId, PayloadPtr, Layer) {
  throw std::logic_error("ThreadedRuntime::channelSend: no channel plane");
}

void ThreadedRuntime::deliverFromChannel(ProcessId, ProcessId,
                                         const PayloadPtr&, uint64_t) {
  throw std::logic_error(
      "ThreadedRuntime::deliverFromChannel: no channel plane");
}

bool ThreadedRuntime::run(SimTime wallBudgetUs,
                          const std::function<bool()>& done) {
  assert(running_.load(std::memory_order_relaxed) && "start() first");
  tlsSlot = driverSlot();
  const PreciseSleeps precise;
  for (;;) {
    driverSched_.run(monoUs());
    if (done()) return true;
    const int64_t now = monoUs();
    if (now > wallBudgetUs) return false;
    sleepUntil(std::min(now + sleepCapUs_, driverSched_.nextDue()));
  }
}

void ThreadedRuntime::stop() {
  if (stopped_) return;
  stopped_ = true;
  stopFlag_.store(true, std::memory_order_release);
  for (PerThread& p : per_)
    if (p.th.joinable()) p.th.join();
  running_.store(false, std::memory_order_release);
  mergeTraces();
}

void ThreadedRuntime::mergeTraces() {
  size_t nCasts = driverCasts_.size();
  size_t nDeliv = 0;
  for (const PerThread& p : per_) {
    nCasts += p.casts.size();
    nDeliv += p.deliveries.size();
  }
  trace_.casts.reserve(nCasts);
  trace_.deliveries.reserve(nDeliv);
  for (PerThread& p : per_) {
    trace_.casts.insert(trace_.casts.end(), p.casts.begin(), p.casts.end());
    trace_.deliveries.insert(trace_.deliveries.end(), p.deliveries.begin(),
                             p.deliveries.end());
  }
  trace_.casts.insert(trace_.casts.end(), driverCasts_.begin(),
                      driverCasts_.end());
  // Wall-time order, ties broken by process then id, so verify:: and
  // metrics:: walk the merged trace the same way they walk a sim trace.
  std::sort(trace_.casts.begin(), trace_.casts.end(),
            [](const CastEvent& a, const CastEvent& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.process != b.process) return a.process < b.process;
              return a.msg < b.msg;
            });
  std::sort(trace_.deliveries.begin(), trace_.deliveries.end(),
            [](const DeliveryEvent& a, const DeliveryEvent& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.process != b.process) return a.process < b.process;
              return a.order < b.order;
            });
  for (const PerThread& p : per_)
    for (int l = 0; l < kNumLayers; ++l) {
      traffic_.perLayer[l].intra += p.traffic.perLayer[l].intra;
      traffic_.perLayer[l].inter += p.traffic.perLayer[l].inter;
    }
}

}  // namespace wanmc::exec
