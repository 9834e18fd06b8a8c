// Edge-case tests for the runtime's batch-send semantics (the paper's
// one-event-per-multicast clock rule), for starting a runtime that lacks a
// node (both backends), for timer cancellation on the threaded backend,
// and for consensus corner cases that the protocol-level tests exercise
// only indirectly.
#include <gtest/gtest.h>

#include <atomic>
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
  [[nodiscard]] std::string debugString() const override { return "tag"; }
};

class Probe final : public sim::Node {
 public:
  using sim::Node::Node;
  std::vector<std::pair<ProcessId, uint64_t>> got;  // (from, lamport-at-rcv)
  void onMessage(ProcessId from, const PayloadPtr&) override {
    got.push_back({from, runtime().lamport(pid())});
  }
};

sim::Runtime makeRt(int groups, int procs) {
  return sim::Runtime(Topology(groups, procs),
                      sim::LatencyModel::fixed(kMs, 100 * kMs), 1);
}

TEST(Multicast, OneEventOneTickManyCopies) {
  sim::Runtime rt = makeRt(2, 2);
  std::vector<Probe*> probes;
  for (ProcessId p = 0; p < 4; ++p) {
    auto n = std::make_unique<Probe>(rt, p);
    probes.push_back(n.get());
    rt.attach(p, std::move(n));
  }
  rt.start();
  // Fan-out to intra (p1) and inter (p2, p3) destinations: ONE send event,
  // one tick, every copy carries the same stamp (paper §2.3 / Thm 4.1
  // proof style).
  rt.multicast(0, {1, 2, 3}, std::make_shared<const TagPayload>(1));
  EXPECT_EQ(rt.lamport(0), 1u);  // ticked once, not three times
  rt.run();
  EXPECT_EQ(rt.lamport(1), 1u);  // intra receiver jumps to the shared stamp
  EXPECT_EQ(rt.lamport(2), 1u);
  EXPECT_EQ(rt.lamport(3), 1u);
  // Per-link counting is still per copy.
  EXPECT_EQ(rt.traffic().at(Layer::kProtocol).intra, 1u);
  EXPECT_EQ(rt.traffic().at(Layer::kProtocol).inter, 2u);
}

TEST(Multicast, IntraOnlyFanOutDoesNotTick) {
  sim::Runtime rt = makeRt(1, 3);
  for (ProcessId p = 0; p < 3; ++p)
    rt.attach(p, std::make_unique<Probe>(rt, p));
  rt.start();
  rt.multicast(0, {1, 2}, std::make_shared<const TagPayload>(1));
  EXPECT_EQ(rt.lamport(0), 0u);
  rt.run();
  EXPECT_EQ(rt.lamport(1), 0u);
  EXPECT_EQ(rt.lamport(2), 0u);
}

TEST(Multicast, EmptyDestinationListIsANoop) {
  sim::Runtime rt = makeRt(1, 2);
  for (ProcessId p = 0; p < 2; ++p)
    rt.attach(p, std::make_unique<Probe>(rt, p));
  rt.start();
  rt.multicast(0, {}, std::make_shared<const TagPayload>(1));
  EXPECT_EQ(rt.lamport(0), 0u);
  EXPECT_EQ(rt.traffic().at(Layer::kProtocol).total(), 0u);
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
