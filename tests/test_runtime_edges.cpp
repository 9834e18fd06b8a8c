// Edge-case tests for the batch-send semantics of both backends (the
// paper's one-event-per-multicast clock rule), for starting a runtime that
// lacks a node (both backends), for timer cancellation, back-pressure and
// the driver slot on the threaded backend, and for consensus corner cases
// that the protocol-level tests exercise only indirectly.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "consensus/consensus.hpp"
#include "core/stack_node.hpp"
#include "exec/threaded/threaded_runtime.hpp"
#include "sim/runtime.hpp"

namespace wanmc {
namespace {

struct TagPayload final : Payload {
  int tag;
  explicit TagPayload(int t) : tag(t) {}
  [[nodiscard]] Layer layer() const override { return Layer::kProtocol; }
};

// Counts the copies that reach it, on whichever thread delivers them.
class Probe final : public exec::Process {
 public:
  Probe(exec::Context& ctx, ProcessId pid, std::atomic<int>& arrived)
      : exec::Process(ctx, pid), arrived_(arrived) {}
  void onMessage(ProcessId, const PayloadPtr&) override {
    arrived_.fetch_add(1, std::memory_order_release);
  }

 private:
  std::atomic<int>& arrived_;
};

sim::Runtime makeRt(int groups, int procs) {
  return sim::Runtime(Topology(groups, procs),
                      sim::LatencyModel::fixed(kMs, 100 * kMs), 1);
}

// Hosts a Probe on every process of a groups x procs topology on each
// backend in turn, runs one fan-out from p0 to `tos` on p0's own context,
// waits until `copies` copies have arrived, and hands the host to `check`.
// On threads the checks are harvest reads, made after stop().
void fanOutOnBothBackends(int groups, int procs,
                          const std::vector<ProcessId>& tos, int copies,
                          const std::function<void(exec::Context&)>& check) {
  const Topology topo(groups, procs);
  const auto latency = sim::LatencyModel::fixed(kMs, 100 * kMs);
  for (const exec::Backend backend :
       {exec::Backend::kSim, exec::Backend::kThreaded}) {
    SCOPED_TRACE(exec::backendName(backend));
    std::atomic<int> arrived{0};
    std::atomic<bool> sent{false};
    // Attaches the probes and arms the fan-out as a harness event, which
    // posts it to p0 (inline on the sim, onto p0's thread on threads).
    const auto setUp = [&](exec::Context& ctx) {
      for (ProcessId p = 0; p < topo.numProcesses(); ++p)
        ctx.attach(p, std::make_unique<Probe>(ctx, p, arrived));
      ctx.harnessAt(0, [&ctx, &tos, &sent] {
        ctx.post(0, [&ctx, &tos, &sent] {
          ctx.multicast(0, tos, std::make_shared<const TagPayload>(1));
          sent.store(true, std::memory_order_release);
        });
      });
    };
    if (backend == exec::Backend::kSim) {
      sim::Runtime rt(topo, latency, 1);
      setUp(rt);
      rt.start();
      rt.run();
      EXPECT_TRUE(sent.load());
      EXPECT_EQ(arrived.load(), copies);
      check(rt);
      continue;
    }
    exec::ThreadedRuntime rt(topo, latency, 1);
    setUp(rt);
    rt.start();
    EXPECT_TRUE(rt.run(30 * kSec, [&] {
      return sent.load(std::memory_order_acquire) &&
             arrived.load(std::memory_order_acquire) == copies;
    }));
    rt.stop();
    EXPECT_EQ(arrived.load(), copies);
    check(rt);
  }
}

TEST(Multicast, OneEventOneTickManyCopies) {
  // Fan-out to intra (p1) and inter (p2, p3) destinations: ONE send event,
  // one tick, every copy carries the same stamp (paper §2.3 / Thm 4.1
  // proof style).
  fanOutOnBothBackends(2, 2, {1, 2, 3}, 3, [](exec::Context& ctx) {
    EXPECT_EQ(ctx.lamport(0), 1u);  // ticked once, not three times
    EXPECT_EQ(ctx.lamport(1), 1u);  // intra receiver jumps to the stamp
    EXPECT_EQ(ctx.lamport(2), 1u);
    EXPECT_EQ(ctx.lamport(3), 1u);
    // Per-link counting is still per copy.
    EXPECT_EQ(ctx.traffic().at(Layer::kProtocol).intra, 1u);
    EXPECT_EQ(ctx.traffic().at(Layer::kProtocol).inter, 2u);
  });
}

TEST(Multicast, IntraOnlyFanOutDoesNotTick) {
  fanOutOnBothBackends(1, 3, {1, 2}, 2, [](exec::Context& ctx) {
    EXPECT_EQ(ctx.lamport(0), 0u);
    EXPECT_EQ(ctx.lamport(1), 0u);
    EXPECT_EQ(ctx.lamport(2), 0u);
  });
}

TEST(Multicast, EmptyDestinationListIsANoop) {
  fanOutOnBothBackends(1, 2, {}, 0, [](exec::Context& ctx) {
    EXPECT_EQ(ctx.lamport(0), 0u);
    EXPECT_EQ(ctx.traffic().at(Layer::kProtocol).total(), 0u);
  });
}

// ---------------------------------------------------------------------------
// start() with a process that has no node: every slot is checked before
// any node starts, in every build type (an assert would vanish under
// NDEBUG and leave start() to call through a null node).
// ---------------------------------------------------------------------------

class StartCounter final : public exec::Process {
 public:
  StartCounter(exec::Context& ctx, ProcessId pid, std::atomic<int>& started)
      : exec::Process(ctx, pid), started_(started) {}
  void onStart() override { ++started_; }
  void onMessage(ProcessId, const PayloadPtr&) override {}

 private:
  std::atomic<int>& started_;
};

TEST(RuntimeStart, SimRejectsAMissingNodeBeforeStartingAny) {
  std::atomic<int> started{0};
  sim::Runtime rt = makeRt(1, 3);
  rt.attach(0, std::make_unique<StartCounter>(rt, 0, started));
  rt.attach(2, std::make_unique<StartCounter>(rt, 2, started));
  EXPECT_THROW(rt.start(), std::logic_error);
  EXPECT_EQ(started.load(), 0);
}

TEST(RuntimeStart, ThreadedRejectsAMissingNodeBeforeLaunchingAnyThread) {
  std::atomic<int> started{0};
  exec::ThreadedRuntime rt(Topology(1, 3),
                           sim::LatencyModel::fixed(kMs, 100 * kMs), 1);
  rt.attach(0, std::make_unique<StartCounter>(rt, 0, started));
  rt.attach(2, std::make_unique<StartCounter>(rt, 2, started));
  EXPECT_THROW(rt.start(), std::logic_error);
  EXPECT_EQ(started.load(), 0);
}

// ---------------------------------------------------------------------------
// Threaded timers: each process thread fires its own Scheduler, and
// cancelTimer cancels on the calling thread's queue.
// ---------------------------------------------------------------------------

class TimerProbe final : public exec::Process {
 public:
  using exec::Process::Process;
  std::vector<int> fired;  // ms tags in fire order; read after stop()
  std::atomic<bool> done{false};

  void onStart() override {
    timer(1 * kMs, [this] {
      fired.push_back(1);
      runtime().cancelTimer(three_);
    });
    three_ = timer(3 * kMs, [this] { fired.push_back(3); });
    timer(5 * kMs, [this] {
      fired.push_back(5);
      done.store(true, std::memory_order_release);
    });
  }
  void onMessage(ProcessId, const PayloadPtr&) override {}

 private:
  EventId three_ = kNoEvent;
};

TEST(ThreadedTimers, ACallbackCancelsALaterTimerOnItsOwnThread) {
  exec::ThreadedRuntime rt(Topology(1, 1),
                           sim::LatencyModel::fixed(kMs, 100 * kMs), 1);
  auto node = std::make_unique<TimerProbe>(rt, 0);
  TimerProbe* probe = node.get();
  rt.attach(0, std::move(node));
  rt.start();
  // Even a thread that wakes late fires all three in one pass, in due
  // order, so the 1 ms callback always cancels the 3 ms timer first.
  EXPECT_TRUE(rt.run(30 * kSec, [probe] {
    return probe->done.load(std::memory_order_acquire);
  }));
  rt.stop();
  EXPECT_EQ(probe->fired, (std::vector<int>{1, 5}));
}

// ---------------------------------------------------------------------------
// Threaded back-pressure: a process whose push finds the receiver's ring
// full (4,096 slots) must keep draining its own rings while it waits, or
// two processes that flood each other wait on each other for ever.
// ---------------------------------------------------------------------------

class Flooder final : public exec::Process {
 public:
  Flooder(exec::Context& ctx, ProcessId pid, int copies,
          std::atomic<int>& received)
      : exec::Process(ctx, pid), copies_(copies), received_(received) {}
  void onStart() override {
    const PayloadPtr p = std::make_shared<const TagPayload>(pid());
    for (int i = 0; i < copies_; ++i) send(1 - pid(), p);
  }
  void onMessage(ProcessId, const PayloadPtr&) override {
    received_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  int copies_;
  std::atomic<int>& received_;
};

TEST(ThreadedBackpressure, TwoProcessesFloodingEachOtherFromOnStartFinish) {
  constexpr int kCopies = 20000;  // each way, about five rings' worth
  std::atomic<int> received{0};
  exec::ThreadedRuntime rt(Topology(1, 2),
                           sim::LatencyModel::fixed(100, kMs), 1);
  for (ProcessId p = 0; p < 2; ++p)
    rt.attach(p, std::make_unique<Flooder>(rt, p, kCopies, received));
  rt.start();
  EXPECT_TRUE(rt.run(10 * kSec, [&received] {
    return received.load(std::memory_order_relaxed) == 2 * kCopies;
  }));
  rt.stop();
  EXPECT_EQ(received.load(), 2 * kCopies);
}

// ---------------------------------------------------------------------------
// The driver slot lasts one run(): a thread that drove one runtime and then
// posts to another before that one's run() is no slot of it, so the command
// crosses on the second runtime's driver ring, not on the ring index of the
// first runtime's driver slot (6 here, past the 3 rings of a 2-process
// runtime).
// ---------------------------------------------------------------------------

TEST(ThreadedDriver, PostAfterAnotherRuntimesRunCrossesOnTheDriverRing) {
  const auto latency = sim::LatencyModel::fixed(kMs, 100 * kMs);
  {
    std::atomic<int> started{0};
    exec::ThreadedRuntime first(Topology(2, 3), latency, 1);
    for (ProcessId p = 0; p < 6; ++p)
      first.attach(p, std::make_unique<StartCounter>(first, p, started));
    first.start();
    EXPECT_TRUE(first.run(10 * kSec, [&started] { return started == 6; }));
    first.stop();
  }
  std::atomic<int> started{0};
  std::atomic<bool> ran{false};
  exec::ThreadedRuntime second(Topology(1, 2), latency, 1);
  for (ProcessId p = 0; p < 2; ++p)
    second.attach(p, std::make_unique<StartCounter>(second, p, started));
  second.post(0, [&ran] { ran.store(true, std::memory_order_release); });
  second.start();
  EXPECT_TRUE(second.run(10 * kSec, [&ran] {
    return ran.load(std::memory_order_acquire);
  }));
  second.stop();
}

// ---------------------------------------------------------------------------
// Consensus corner cases.
// ---------------------------------------------------------------------------

class ConsHost final : public core::StackNode {
 public:
  ConsHost(sim::Runtime& rt, ProcessId pid, const core::StackConfig& cfg)
      : core::StackNode(rt, pid, cfg) {
    svc = &addGroupConsensus();
    svc->onDecide([this](consensus::Instance k, const ConsensusValue& v) {
      decisions[k] = v;
    });
  }
  void onProtocolMessage(ProcessId, const PayloadPtr&) override {}
  consensus::ConsensusService* svc = nullptr;
  std::map<consensus::Instance, ConsensusValue> decisions;
};

struct ConsFixture {
  explicit ConsFixture(int procs)
      : rt(Topology(1, procs), sim::LatencyModel::fixed(kMs, 100 * kMs), 1) {
    core::StackConfig cfg;
    for (ProcessId p = 0; p < procs; ++p) {
      auto n = std::make_unique<ConsHost>(rt, p, cfg);
      hosts.push_back(n.get());
      rt.attach(p, std::move(n));
    }
    rt.start();
  }
  sim::Runtime rt;
  std::vector<ConsHost*> hosts;
};

TEST(ConsensusEdge, NonProposerStillLearnsViaDecideRelay) {
  // p2 never proposes; uniform agreement must still reach it (DECIDE
  // relay / ack broadcasts).
  ConsFixture f(3);
  f.hosts[0]->svc->propose(1, uint64_t{7});
  f.hosts[1]->svc->propose(1, uint64_t{8});
  f.rt.run();
  ASSERT_TRUE(f.hosts[2]->decisions.count(1));
  EXPECT_TRUE(valueEquals(f.hosts[2]->decisions[1],
                          f.hosts[0]->decisions[1]));
}

TEST(ConsensusEdge, TwoProcessGroupNeedsBoth) {
  // Majority of 2 is 2: with one process silent, no decision; once it
  // proposes, both decide.
  ConsFixture f(2);
  f.hosts[0]->svc->propose(1, uint64_t{1});
  f.rt.run(kSec);
  EXPECT_FALSE(f.hosts[0]->decisions.count(1));
  f.hosts[1]->svc->propose(1, uint64_t{2});
  f.rt.run();
  EXPECT_TRUE(f.hosts[0]->decisions.count(1));
  EXPECT_TRUE(f.hosts[1]->decisions.count(1));
}

TEST(ConsensusEdge, InterleavedInstancesDecideIndependently) {
  ConsFixture f(3);
  // Propose instances out of order and interleaved across processes.
  f.hosts[0]->svc->propose(2, uint64_t{20});
  f.hosts[1]->svc->propose(1, uint64_t{10});
  f.hosts[2]->svc->propose(2, uint64_t{21});
  f.hosts[0]->svc->propose(1, uint64_t{11});
  f.hosts[2]->svc->propose(1, uint64_t{12});
  f.hosts[1]->svc->propose(2, uint64_t{22});
  f.rt.run();
  for (auto* h : f.hosts) {
    ASSERT_TRUE(h->decisions.count(1));
    ASSERT_TRUE(h->decisions.count(2));
    EXPECT_TRUE(valueEquals(h->decisions[1], f.hosts[0]->decisions[1]));
    EXPECT_TRUE(valueEquals(h->decisions[2], f.hosts[0]->decisions[2]));
  }
}

TEST(ConsensusEdge, DecisionSurvivesLateCrashOfEveryoneButOne) {
  // After the decision is reached, crash all but one process: the decision
  // set must already be consistent (uniformity: what was decided stays).
  ConsFixture f(3);
  for (int p = 0; p < 3; ++p)
    f.hosts[p]->svc->propose(1, uint64_t{static_cast<uint64_t>(p)});
  f.rt.run();
  const auto v0 = f.hosts[0]->decisions.at(1);
  f.rt.crash(1);
  f.rt.crash(2);
  f.rt.run();
  EXPECT_TRUE(valueEquals(f.hosts[0]->decisions.at(1), v0));
}

TEST(ConsensusEdge, A1EntryValuesRoundTrip) {
  ConsFixture f(3);
  A1EntrySet set;
  set.push_back(A1Entry{makeAppMessage(5, 0, GroupSet::of({0})),
                        Stage::s0, 0});
  set.push_back(A1Entry{makeAppMessage(3, 1, GroupSet::of({0, 1})),
                        Stage::s2, 17});
  canonicalize(set);
  for (int p = 0; p < 3; ++p) f.hosts[p]->svc->propose(1, set);
  f.rt.run();
  const auto& d = f.hosts[2]->decisions.at(1).get<A1EntrySet>();
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].msg->id, 3u);
  EXPECT_EQ(d[0].stage, Stage::s2);
  EXPECT_EQ(d[0].ts, 17u);
  EXPECT_EQ(d[1].msg->id, 5u);
}

}  // namespace
}  // namespace wanmc
