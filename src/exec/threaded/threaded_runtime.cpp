#include "exec/threaded/threaded_runtime.hpp"

#include <algorithm>
#include <stdexcept>

#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace wanmc::exec {

namespace {
// Which slot (process index, or driverSlot) the current thread IS. -1 on
// threads no runtime has adopted (e.g. a test's main thread outside
// run()). Identity, not data: used only for ownership asserts and for
// routing recordCast to the right trace slice.
thread_local int tlsSlot = -1;

// Adopts the calling thread as `slot` while in scope: a process thread for
// its whole life, the driver for one run(). The destructor restores the
// earlier slot, so a thread that drove one runtime and then calls another
// outside that one's run() is no slot of it (it would otherwise push on the
// old driver slot's ring index).
class AdoptSlot {
 public:
  explicit AdoptSlot(int slot) : saved_(tlsSlot) { tlsSlot = slot; }
  ~AdoptSlot() { tlsSlot = saved_; }
  AdoptSlot(const AdoptSlot&) = delete;
  AdoptSlot& operator=(const AdoptSlot&) = delete;

 private:
  int saved_;
};

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
    : Context(std::move(topo), latency, /*threadSafeArena=*/true),
      sleepCapUs_(std::clamp<int64_t>(
          std::min(latencyModel().intraMin, latencyModel().interMin), 20,
          100)) {
  const size_t n = static_cast<size_t>(topology().numProcesses());
  per_ = std::vector<PerThread>(n);
  for (size_t p = 0; p < n; ++p) {
    // Same forking discipline as the sim: one independent stream per
    // process, all derived from the run seed.
    per_[p].rng = SplitMix64(seed).fork(static_cast<uint64_t>(p) + 1);
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

int64_t ThreadedRuntime::monoUs() const {
  if (!running_.load(std::memory_order_relaxed) && !stopped_) return 0;
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

SimTime ThreadedRuntime::now() const { return monoUs(); }

void ThreadedRuntime::start() {
  assert(!running_.load(std::memory_order_relaxed));
  requireNodes("ThreadedRuntime::start");
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
  const AdoptSlot adopt(pid);
  const PreciseSleeps precise;
  PerThread& me = per_[static_cast<size_t>(pid)];
  node(pid).onStart();
  while (!stopFlag_.load(std::memory_order_acquire)) {
    size_t work = drainRings(pid, /*waiting=*/false);

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

size_t ThreadedRuntime::drainRings(ProcessId pid, bool waiting) {
  PerThread& me = per_[static_cast<size_t>(pid)];
  const int64_t now = monoUs();
  size_t handled = 0;
  Envelope e;
  for (auto& ring : rings_[static_cast<size_t>(pid)]) {
    while (ring->tryPop(e)) {
      ++handled;
      if (e.payload == nullptr) {
        // Posted command from the driver: runs on this thread, after any
        // that a waiting push set aside.
        if (waiting || !me.posted.empty()) {
          me.posted.push_back(std::move(e.cmd));
        } else {
          e.cmd();
        }
      } else if (!waiting && e.dueUs <= now) {
        deliverEnvelope(pid, e);
      } else {
        me.inbox.push_back(std::move(e));
        std::push_heap(me.inbox.begin(), me.inbox.end(), dueLater<Envelope>);
      }
    }
  }
  // The set-aside commands, in post order; one may wait in turn and set
  // more aside.
  while (!waiting && !me.posted.empty()) {
    SmallFn cmd = std::move(me.posted.front());
    me.posted.pop_front();
    cmd();
    ++handled;
  }
  return handled;
}

void ThreadedRuntime::deliverEnvelope(ProcessId to, Envelope& e) {
  receive(e.from, to, e.payload, e.sendTs, e.payload->layer());
}

void ThreadedRuntime::pushBlocking(int consumer, int producer, Envelope e) {
  SpscRing<Envelope>& ring =
      *rings_[static_cast<size_t>(consumer)][static_cast<size_t>(producer)];
  while (!ring.tryPush(e)) {
    // Ring full: the consumer is behind. Backpressure by retrying; bail
    // (dropping the envelope) only if the run is already tearing down,
    // otherwise a full ring at shutdown would deadlock the producer.
    if (stopFlag_.load(std::memory_order_acquire)) return;
    // A process thread waits inside onStart or a handler, and the
    // consumer may be waiting on one of its rings (see "Back-pressure"
    // in the header).
    if (producer == tlsSlot && producer < driverSlot())
      drainRings(producer, /*waiting=*/true);
    std::this_thread::sleep_for(std::chrono::microseconds(5));
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
  // One send event, one §2.3 stamp for the whole fan-out.
  const uint64_t sendTs = stampSend(from, tos);
  noteSend(from, layer, monoUs());

  for (ProcessId to : tos) {
    const bool inter = !topology().sameGroup(from, to);
    countCopy(from, layer, inter);
    // The emulated WAN delay is drawn on the sender's own stream and rides
    // in the envelope; the receiver defers delivery until the deadline.
    Envelope e;
    e.payload = payload;
    e.dueUs = monoUs() + latencyDraw()(inter, me.rng);
    e.sendTs = sendTs;
    e.from = from;
    pushBlocking(to, tlsSlot >= 0 ? tlsSlot : from, std::move(e));
  }
}

EventId ThreadedRuntime::scheduleTimer(ProcessId pid, SimTime delay,
                                       TimerGuard guard) {
  assert((tlsSlot == pid || !running_.load(std::memory_order_relaxed)) &&
         "a process may only arm its own timers");
  return per_[static_cast<size_t>(pid)].sched.at(monoUs() + delay,
                                                 std::move(guard));
}

void ThreadedRuntime::cancelTimer(EventId id) {
  // The id names no owner: the queue is the calling thread's own.
  assert(tlsSlot >= 0 && tlsSlot < topology().numProcesses() &&
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
  assert(pid >= 0 && pid < topology().numProcesses());
  Envelope e;
  e.cmd = std::move(fn);
  pushBlocking(pid, tlsSlot >= 0 ? tlsSlot : driverSlot(), std::move(e));
}

void ThreadedRuntime::recordCast(ProcessId pid, const AppMsgPtr& m) {
  const CastEvent ev = castEvent(pid, m, monoUs());
  // Unbatched casts record on the sender's thread; batched carriers are
  // recorded by the driver's flush path. Each appends to its OWN slice.
  if (tlsSlot == pid) {
    per_[static_cast<size_t>(pid)].casts.push_back(ev);
  } else {
    driverCasts_.push_back(ev);
  }
}

void ThreadedRuntime::recordDelivery(ProcessId pid, MsgId msg) {
  assert(tlsSlot == pid && "deliveries are recorded on the owning thread");
  per_[static_cast<size_t>(pid)].deliveries.push_back(
      deliveryEvent(pid, msg, monoUs()));
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
  const AdoptSlot adopt(driverSlot());
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
}

}  // namespace wanmc::exec
