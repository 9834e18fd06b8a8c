// Unit tests for the simulation substrate: scheduler, topology, network,
// modified Lamport clocks (paper §2.3), crash-stop semantics.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sim/runtime.hpp"

namespace wanmc {
namespace {

using sim::LatencyModel;
using sim::Runtime;

TEST(Scheduler, FiresInTimeOrder) {
  sim::Scheduler s;
  std::vector<int> order;
  s.at(30, [&] { order.push_back(3); });
  s.at(10, [&] { order.push_back(1); });
  s.at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Scheduler, TieBreaksByInsertionOrder) {
  sim::Scheduler s;
  std::vector<int> order;
  s.at(10, [&] { order.push_back(1); });
  s.at(10, [&] { order.push_back(2); });
  s.at(10, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, CancelledEventsDoNotFire) {
  sim::Scheduler s;
  bool fired = false;
  auto id = s.at(10, [&] { fired = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, RunUntilStopsEarly) {
  sim::Scheduler s;
  int count = 0;
  s.at(10, [&] { ++count; });
  s.at(100, [&] { ++count; });
  s.run(50);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.now(), 50);
  s.run();
  EXPECT_EQ(count, 2);
}

TEST(Scheduler, EventsCanScheduleEvents) {
  sim::Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.at(s.now() + 1, recurse);
  };
  s.at(0, recurse);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), 4);
}

// Regression for the PR 1 tombstone leak: cancelling an id that already
// fired (or never existed) must be a no-op — it used to insert a tombstone
// that was never erased, making pendingEvents() underflow and wrap.
TEST(Scheduler, CancelOfFiredIdIsANoop) {
  sim::Scheduler s;
  int fired = 0;
  auto id = s.at(10, [&] { ++fired; });
  EXPECT_EQ(s.pendingEvents(), 1u);
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.pendingEvents(), 0u);
  s.cancel(id);                      // already fired: no-op
  EXPECT_EQ(s.pendingEvents(), 0u);  // must not underflow
  s.cancel(id ^ 0xdeadbeef);         // never issued: no-op
  s.cancel(0);                       // kNoEvent: no-op
  EXPECT_EQ(s.pendingEvents(), 0u);
  // The scheduler stays fully usable afterwards.
  s.at(20, [&] { ++fired; });
  EXPECT_EQ(s.pendingEvents(), 1u);
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, CancelIsIdempotentAndCountsOnce) {
  sim::Scheduler s;
  bool fired = false;
  auto id = s.at(10, [&] { fired = true; });
  s.at(20, [] {});
  EXPECT_EQ(s.pendingEvents(), 2u);
  s.cancel(id);
  EXPECT_EQ(s.pendingEvents(), 1u);
  s.cancel(id);  // double cancel: no-op
  EXPECT_EQ(s.pendingEvents(), 1u);
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.pendingEvents(), 0u);
}

// Ids are generation-tagged: once an event fires, its id can never alias a
// later event even if the underlying pool slot is reused.
TEST(Scheduler, StaleIdCannotCancelASlotReusedByANewEvent) {
  sim::Scheduler s;
  bool aFired = false;
  bool bFired = false;
  auto a = s.at(10, [&] { aFired = true; });
  s.run();
  ASSERT_TRUE(aFired);
  auto b = s.at(20, [&] { bFired = true; });  // likely reuses a's slot
  EXPECT_NE(a, b);
  s.cancel(a);  // stale id: must NOT cancel b
  s.run();
  EXPECT_TRUE(bFired);
}

TEST(Scheduler, TieBreakSurvivesInterleavedCancels) {
  sim::Scheduler s;
  std::vector<int> order;
  auto a = s.at(10, [&] { order.push_back(1); });
  s.at(10, [&] { order.push_back(2); });
  auto c = s.at(10, [&] { order.push_back(3); });
  s.at(10, [&] { order.push_back(4); });
  s.cancel(a);
  s.cancel(c);
  EXPECT_EQ(s.pendingEvents(), 2u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{2, 4}));
}

// Events stamped beyond the calendar's near window park in the far heap
// and must still fire in exact (time, insertion) order.
TEST(Scheduler, FarFutureEventsInterleaveCorrectly) {
  sim::Scheduler s;
  std::vector<int> order;
  s.at(3600 * kSec, [&] { order.push_back(5); });  // far
  s.at(1, [&] { order.push_back(1); });            // near
  s.at(10 * kSec, [&] { order.push_back(3); });    // far at insert time
  s.at(50 * kMs, [&] {                             // near
    order.push_back(2);
    // Fires at 3599.05s: before the 3600s event, after the 10s one.
    s.at(s.now() + 3599 * kSec, [&] { order.push_back(4); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(s.now(), 3600 * kSec);
}

// nextDue() tells an idle threaded-backend thread when to wake: the
// earliest live event, whether it waits in the ring or the far heap.
TEST(Scheduler, NextDueReportsTheEarliestLiveEvent) {
  sim::Scheduler s;
  EXPECT_EQ(s.nextDue(), kTimeNever);  // nothing armed

  const EventId early = s.at(50, [] {});
  s.at(70, [] {});
  EXPECT_EQ(s.nextDue(), 50);
  s.cancel(early);
  EXPECT_EQ(s.nextDue(), 70);  // the cancelled head is skipped
  EXPECT_EQ(s.run(80), 1u);
  EXPECT_EQ(s.nextDue(), kTimeNever);

  s.at(3600 * kSec, [] {});  // far beyond the ~2 s near window
  EXPECT_EQ(s.nextDue(), 3600 * kSec);
  s.at(100, [] {});  // overdue on arrival: the earliest of all
  EXPECT_EQ(s.nextDue(), 100);
  EXPECT_EQ(s.run(100), 1u);
  EXPECT_EQ(s.nextDue(), 3600 * kSec);
  EXPECT_EQ(s.pendingEvents(), 1u);
}

// On the real clock, run(now) parks the cursor at the next pending event,
// which may lie far ahead; a timer armed afterwards is due before it and
// lands behind the window start. It must fire on the next run(now), ahead
// of the far event. The threaded backend does this on every idle pass.
TEST(Scheduler, EventArmedBehindAParkedCursorFiresFirst) {
  sim::Scheduler s;
  std::vector<int> order;
  s.at(5 * kSec, [&] { order.push_back(2); });
  EXPECT_EQ(s.run(1 * kMs), 0u);  // the cursor parks at the 5 s bucket
  s.at(2 * kMs, [&] { order.push_back(1); });
  EXPECT_EQ(s.nextDue(), 2 * kMs);
  EXPECT_EQ(s.run(1500), 0u);  // not yet due
  EXPECT_EQ(s.run(3 * kMs), 1u);
  EXPECT_EQ(order, (std::vector<int>{1}));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Topology, RegularLayout) {
  Topology t(3, 4);
  EXPECT_EQ(t.numProcesses(), 12);
  EXPECT_EQ(t.numGroups(), 3);
  EXPECT_EQ(t.group(0), 0);
  EXPECT_EQ(t.group(4), 1);
  EXPECT_EQ(t.group(11), 2);
  EXPECT_TRUE(t.sameGroup(4, 7));
  EXPECT_FALSE(t.sameGroup(3, 4));
  EXPECT_EQ(t.members(1), (std::vector<ProcessId>{4, 5, 6, 7}));
}

TEST(Topology, RaggedLayout) {
  Topology t({2, 3, 1});
  EXPECT_EQ(t.numProcesses(), 6);
  EXPECT_EQ(t.group(5), 2);
  EXPECT_EQ(t.groupSize(1), 3);
  EXPECT_EQ(t.members(2), (std::vector<ProcessId>{5}));
  // Ascending group order, whatever order the set was built in: every
  // multicast's event sequence (and so every golden cell) depends on it.
  EXPECT_EQ(t.membersOf(GroupSet::of({2, 0})),
            (std::vector<ProcessId>{0, 1, 5}));
}

TEST(GroupSet, BasicOps) {
  auto s = GroupSet::of({0, 2});
  EXPECT_TRUE(s.contains(0));
  EXPECT_FALSE(s.contains(1));
  EXPECT_EQ(s.size(), 2);
  EXPECT_EQ(s.groups(), (std::vector<GroupId>{0, 2}));
  EXPECT_EQ(GroupSet::all(3).size(), 3);
  EXPECT_EQ(s.without(2).size(), 1);
}

TEST(SplitMix64, DeterministicAndForkIndependent) {
  SplitMix64 a(42), b(42);
  EXPECT_EQ(a.next(), b.next());
  auto c = a.fork(1);
  auto d = a.fork(2);
  EXPECT_NE(c.next(), d.next());
  for (int i = 0; i < 1000; ++i) {
    int64_t v = a.uniform(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

// ---------------------------------------------------------------------------

struct EchoPayload final : Payload {
  int tag;
  explicit EchoPayload(int t) : tag(t) {}
  [[nodiscard]] Layer layer() const override { return Layer::kProtocol; }
  [[nodiscard]] std::string debugString() const override { return "echo"; }
};

class Probe final : public sim::Node {
 public:
  using sim::Node::Node;
  std::vector<std::pair<ProcessId, int>> got;
  void onMessage(ProcessId from, const PayloadPtr& p) override {
    got.push_back({from, static_cast<const EchoPayload&>(*p).tag});
  }
  void emit(ProcessId to, int tag) {
    send(to, std::make_shared<const EchoPayload>(tag));
  }
  using sim::Node::timer;
};

Runtime makeRt(int groups, int procs, uint64_t seed = 1) {
  return Runtime(Topology(groups, procs), LatencyModel::fixed(kMs, 100 * kMs),
                 seed);
}

TEST(Network, DeliversWithLatencyModel) {
  Runtime rt = makeRt(2, 2);
  std::vector<Probe*> probes;
  for (ProcessId p = 0; p < 4; ++p) {
    auto n = std::make_unique<Probe>(rt, p);
    probes.push_back(n.get());
    rt.attach(p, std::move(n));
  }
  rt.start();
  probes[0]->emit(1, 7);   // intra: 1ms
  probes[0]->emit(2, 8);   // inter: 100ms
  rt.run();
  ASSERT_EQ(probes[1]->got.size(), 1u);
  ASSERT_EQ(probes[2]->got.size(), 1u);
  EXPECT_EQ(rt.now(), 100 * kMs);
}

TEST(Network, LamportClockRulesPerPaper) {
  // Rule 2: inter-group sends tick the clock, intra-group sends do not.
  // Rule 3: receive jumps to max(LC, ts(send)).
  Runtime rt = makeRt(2, 2);
  std::vector<Probe*> probes;
  for (ProcessId p = 0; p < 4; ++p) {
    auto n = std::make_unique<Probe>(rt, p);
    probes.push_back(n.get());
    rt.attach(p, std::move(n));
  }
  rt.start();
  probes[0]->emit(1, 1);  // intra
  EXPECT_EQ(rt.lamport(0), 0u);
  probes[0]->emit(2, 2);  // inter
  EXPECT_EQ(rt.lamport(0), 1u);
  rt.run();
  EXPECT_EQ(rt.lamport(1), 0u);  // intra receive: max(0, 0)
  EXPECT_EQ(rt.lamport(2), 1u);  // inter receive: max(0, 1)
  EXPECT_EQ(rt.lamport(3), 0u);  // untouched

  // Traffic accounting.
  EXPECT_EQ(rt.traffic().at(Layer::kProtocol).intra, 1u);
  EXPECT_EQ(rt.traffic().at(Layer::kProtocol).inter, 1u);
}

TEST(Network, CrashedProcessesNeitherSendNorReceive) {
  Runtime rt = makeRt(1, 3);
  std::vector<Probe*> probes;
  for (ProcessId p = 0; p < 3; ++p) {
    auto n = std::make_unique<Probe>(rt, p);
    probes.push_back(n.get());
    rt.attach(p, std::move(n));
  }
  rt.start();
  rt.crash(1);
  probes[0]->emit(1, 1);  // to crashed: vanishes
  probes[1]->emit(2, 2);  // from crashed: not sent
  rt.run();
  EXPECT_TRUE(probes[1]->got.empty());
  EXPECT_TRUE(probes[2]->got.empty());
  EXPECT_FALSE(rt.crashed(0));
  EXPECT_TRUE(rt.crashed(1));
  EXPECT_EQ(rt.aliveInGroup(0), 2);
}

TEST(Network, ScheduledCrashAndTimerSuppression) {
  Runtime rt = makeRt(1, 2);
  std::vector<Probe*> probes;
  for (ProcessId p = 0; p < 2; ++p) {
    auto n = std::make_unique<Probe>(rt, p);
    probes.push_back(n.get());
    rt.attach(p, std::move(n));
  }
  rt.start();
  bool fired = false;
  rt.timer(1, 50 * kMs, [&] { fired = true; });
  rt.scheduleCrash(1, 10 * kMs);
  rt.run();
  EXPECT_FALSE(fired);  // timer after crash is suppressed
}

TEST(Network, DropFilterInjectsOmissions) {
  Runtime rt = makeRt(1, 2);
  std::vector<Probe*> probes;
  for (ProcessId p = 0; p < 2; ++p) {
    auto n = std::make_unique<Probe>(rt, p);
    probes.push_back(n.get());
    rt.attach(p, std::move(n));
  }
  rt.setDropFilter([](ProcessId, ProcessId to, const Payload&) {
    return to == 1;
  });
  rt.start();
  probes[0]->emit(1, 1);
  rt.run();
  EXPECT_TRUE(probes[1]->got.empty());
}

TEST(Network, DeterministicAcrossIdenticalSeeds) {
  auto runOnce = [](uint64_t seed) {
    Runtime rt(Topology(2, 2), LatencyModel{kMs, 2 * kMs, 90 * kMs, 110 * kMs},
               seed);
    std::vector<Probe*> probes;
    for (ProcessId p = 0; p < 4; ++p) {
      auto n = std::make_unique<Probe>(rt, p);
      probes.push_back(n.get());
      rt.attach(p, std::move(n));
    }
    rt.start();
    for (int i = 0; i < 10; ++i) probes[0]->emit(3, i);
    rt.run();
    return rt.now();
  };
  EXPECT_EQ(runOnce(5), runOnce(5));
  EXPECT_NE(runOnce(5), runOnce(6));  // jitter actually depends on the seed
}

TEST(Trace, LatencyDegreeComputation) {
  RunTrace t;
  auto m = makeAppMessage(1, 0, GroupSet::of({0, 1}));
  t.casts.push_back(CastEvent{0, 1, m->dest, 5, 0});
  t.deliveries.push_back(DeliveryEvent{0, 1, 7, 10, 0});
  t.deliveries.push_back(DeliveryEvent{1, 1, 6, 12, 0});
  ASSERT_TRUE(t.latencyDegree(1).has_value());
  EXPECT_EQ(*t.latencyDegree(1), 2);  // max(7, 6) - 5
  EXPECT_FALSE(t.latencyDegree(99).has_value());
}

}  // namespace
}  // namespace wanmc
