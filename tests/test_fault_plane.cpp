// Unit tests for fault plane v2: dynamic link state (partitions that
// heal, per-link down windows) and process recovery (fresh incarnations,
// incarnation-guarded timers and listeners), plus the verify-layer
// recovery semantics and the Summary fault-counter block.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "oracle.hpp"
#include "sim/runtime.hpp"
#include "core/experiment.hpp"
#include "testing/scenario.hpp"
#include "verify/properties.hpp"

namespace wanmc {
namespace {

using sim::LatencyModel;
using sim::Runtime;

struct PingPayload final : Payload {
  int tag;
  explicit PingPayload(int t) : tag(t) {}
  [[nodiscard]] Layer layer() const override { return Layer::kProtocol; }
  [[nodiscard]] std::string debugString() const override { return "ping"; }
};

class Probe final : public sim::Node {
 public:
  using sim::Node::Node;
  std::vector<std::pair<ProcessId, int>> got;
  int starts = 0;
  void onStart() override { ++starts; }
  void onMessage(ProcessId from, const PayloadPtr& p) override {
    got.push_back({from, static_cast<const PingPayload&>(*p).tag});
  }
  void emit(ProcessId to, int tag) {
    send(to, std::make_shared<const PingPayload>(tag));
  }
  using sim::Node::timer;
};

struct Net {
  explicit Net(int groups, int procs, uint64_t seed = 1)
      : rt(Topology(groups, procs), LatencyModel::fixed(kMs, 100 * kMs),
           seed) {
    for (ProcessId p = 0; p < groups * procs; ++p) {
      auto n = std::make_unique<Probe>(rt, p);
      probes.push_back(n.get());
      rt.attach(p, std::move(n));
    }
    rt.setNodeFactory([this](ProcessId p) {
      auto n = std::make_unique<Probe>(rt, p);
      probes[static_cast<size_t>(p)] = n.get();
      return n;
    });
    rt.start();
  }
  Runtime rt;
  std::vector<Probe*> probes;
};

// ---------------------------------------------------------------------------
// Dynamic link state.
// ---------------------------------------------------------------------------

TEST(Partition, CutsLinksDuringWindowOnly) {
  Net net(2, 2);  // g0 = {0,1}, g1 = {2,3}
  net.rt.partition(GroupSet::single(0), 10 * kMs, 200 * kMs);

  net.probes[0]->emit(2, 1);  // sent at t=0, before the cut: arrives
  net.rt.scheduler().at(50 * kMs, [&] { net.probes[0]->emit(2, 2); });
  net.rt.scheduler().at(50 * kMs, [&] { net.probes[2]->emit(1, 3); });
  net.rt.scheduler().at(50 * kMs, [&] { net.probes[0]->emit(1, 4); });
  net.rt.scheduler().at(250 * kMs, [&] { net.probes[0]->emit(2, 5); });
  net.rt.run();

  // Cross-cut copies inside the window vanish, both directions; the
  // intra-group copy and the post-heal copy arrive.
  ASSERT_EQ(net.probes[2]->got.size(), 2u);
  EXPECT_EQ(net.probes[2]->got[0].second, 1);
  EXPECT_EQ(net.probes[2]->got[1].second, 5);
  EXPECT_TRUE(net.probes[1]->got.size() == 1 &&
              net.probes[1]->got[0].second == 4);
  EXPECT_EQ(net.rt.trace().linkDrops, 2u);

  // Cut + heal transitions are recorded.
  ASSERT_EQ(net.rt.trace().partitions.size(), 2u);
  EXPECT_TRUE(net.rt.trace().partitions[0].cut);
  EXPECT_EQ(net.rt.trace().partitions[0].when, 10 * kMs);
  EXPECT_FALSE(net.rt.trace().partitions[1].cut);
  EXPECT_EQ(net.rt.trace().partitions[1].when, 200 * kMs);
}

TEST(Partition, InFlightCopiesSurviveTheCut) {
  Net net(2, 2);
  // Inter-group latency is 100ms: a copy sent at t=0 is in flight when
  // the cut activates at 50ms, and still arrives (the partition cuts the
  // link, not the copies already past it).
  net.rt.partition(GroupSet::single(0), 50 * kMs, kTimeNever);
  net.probes[0]->emit(2, 9);
  net.rt.run();
  ASSERT_EQ(net.probes[2]->got.size(), 1u);
}

TEST(Partition, HealAllAndManualHeal) {
  Net net(2, 2);
  auto id = net.rt.partition(GroupSet::single(0), 0, kTimeNever);
  EXPECT_FALSE(net.rt.linkUp(0, 2));
  EXPECT_TRUE(net.rt.linkUp(0, 1));
  net.rt.heal(id);
  EXPECT_TRUE(net.rt.linkUp(0, 2));
  net.rt.heal(id);  // idempotent
  EXPECT_TRUE(net.rt.linkUp(0, 2));

  net.rt.partition(GroupSet::single(1), 0, kTimeNever);
  EXPECT_FALSE(net.rt.linkUp(3, 1));
  net.rt.healAll();
  EXPECT_TRUE(net.rt.linkUp(3, 1));
}

TEST(Partition, OverlappingPartitionsStackPerLink) {
  Net net(3, 1);
  auto a = net.rt.partition(GroupSet::single(0), 0, kTimeNever);
  net.rt.partition(GroupSet::of({0, 1}), 0, kTimeNever);
  EXPECT_FALSE(net.rt.linkUp(0, 2));
  net.rt.heal(a);  // the second partition still cuts g0|g1 from g2
  EXPECT_FALSE(net.rt.linkUp(0, 2));
  EXPECT_TRUE(net.rt.linkUp(0, 1));  // only partition `a` separated g0|g1
  net.rt.healAll();
  EXPECT_TRUE(net.rt.linkUp(0, 2));
}

TEST(Partition, ValidationErrors) {
  Net net(2, 2);
  EXPECT_THROW(net.rt.partition(GroupSet{}, 0, kMs), std::invalid_argument);
  EXPECT_THROW(net.rt.partition(GroupSet::of({0, 1}), 0, kMs),
               std::invalid_argument);  // no far side
  EXPECT_THROW(net.rt.partition(GroupSet::single(5), 0, kMs),
               std::invalid_argument);  // beyond topology
  EXPECT_THROW(net.rt.partition(GroupSet::single(0), 10 * kMs, 10 * kMs),
               std::invalid_argument);  // empty window
  net.rt.run(kMs);
  EXPECT_THROW(net.rt.partition(GroupSet::single(0), 0, 2 * kMs),
               std::invalid_argument);  // starts in the past
}

TEST(Partition, HealBeforeActivationCancelsTheCut) {
  Net net(2, 2);
  auto id = net.rt.partition(GroupSet::single(0), 100 * kMs, kTimeNever);
  net.rt.heal(id);
  net.rt.scheduler().at(150 * kMs, [&] { net.probes[0]->emit(2, 1); });
  net.rt.run();
  EXPECT_EQ(net.probes[2]->got.size(), 1u);
  EXPECT_TRUE(net.rt.trace().partitions.empty());  // never cut, never healed
}

TEST(Partition, LocalTimersSurviveTheCut) {
  Net net(2, 1);
  net.rt.partition(GroupSet::single(0), 0, kTimeNever);
  int fired = 0;
  net.probes[0]->timer(10 * kMs, [&] { ++fired; });
  net.rt.run();
  EXPECT_EQ(fired, 1);  // partitions cut links, not the local calendar
}

// ---------------------------------------------------------------------------
// Process recovery.
// ---------------------------------------------------------------------------

TEST(Recovery, FreshIncarnationReceivesAgain) {
  Net net(1, 2);
  net.rt.crash(1);
  Probe* dead = net.probes[1];
  net.probes[0]->emit(1, 1);  // to a crashed process: vanishes
  net.rt.run();
  net.rt.recover(1);
  Probe* fresh = net.probes[1];
  EXPECT_NE(dead, fresh);      // the factory rebuilt the node
  EXPECT_EQ(fresh->starts, 1); // onStart ran on the new incarnation
  EXPECT_FALSE(net.rt.crashed(1));
  EXPECT_TRUE(net.rt.everCrashed(1));
  EXPECT_EQ(net.rt.incarnation(1), 1u);
  net.probes[0]->emit(1, 2);
  net.rt.run();
  ASSERT_EQ(fresh->got.size(), 1u);
  EXPECT_EQ(fresh->got[0].second, 2);
  ASSERT_EQ(net.rt.trace().recoveries.size(), 1u);
  EXPECT_EQ(net.rt.trace().recoveries[0].process, 1);
}

TEST(Recovery, StaleTimersDoNotFireIntoTheFreshNode) {
  Net net(1, 2);
  int oldFired = 0;
  net.probes[1]->timer(100 * kMs, [&] { ++oldFired; });
  net.rt.scheduleCrash(1, 10 * kMs);
  net.rt.scheduleRecover(1, 50 * kMs);
  net.rt.run();
  // The timer was registered by incarnation 0; at fire time the process
  // is alive again but as incarnation 1 — the guard suppresses it.
  EXPECT_EQ(oldFired, 0);
  EXPECT_EQ(net.rt.incarnation(1), 1u);
  // Timers registered by the fresh incarnation do fire.
  int newFired = 0;
  net.probes[1]->timer(10 * kMs, [&] { ++newFired; });
  net.rt.run();
  EXPECT_EQ(newFired, 1);
}

TEST(Recovery, RecoverAliveProcessIsNoop) {
  Net net(1, 2);
  net.rt.scheduleRecover(1, 10 * kMs);  // never crashed by then
  net.rt.run();
  EXPECT_EQ(net.rt.incarnation(1), 0u);
  EXPECT_TRUE(net.rt.trace().recoveries.empty());
}

TEST(Recovery, RequiresNodeFactory) {
  Runtime rt(Topology(1, 2), LatencyModel::fixed(kMs, 100 * kMs), 1);
  for (ProcessId p = 0; p < 2; ++p)
    rt.attach(p, std::make_unique<Probe>(rt, p));
  rt.crash(1);
  EXPECT_THROW(rt.recover(1), std::logic_error);
}

TEST(Recovery, ExperimentValidatesRecoverAt) {
  core::RunConfig cfg;
  cfg.groups = 2;
  cfg.procsPerGroup = 2;
  core::Experiment ex(cfg);
  EXPECT_THROW(ex.recoverAt(-1, kMs), std::invalid_argument);
  EXPECT_THROW(ex.recoverAt(4, kMs), std::invalid_argument);
  EXPECT_THROW(ex.crashAt(4, kMs), std::invalid_argument);
  EXPECT_THROW(ex.partitionAt(GroupSet::of({0, 1}), 0, kMs),
               std::invalid_argument);
}

TEST(Recovery, RunResultSplitsCorrectAndRecovered) {
  core::RunConfig cfg;
  cfg.groups = 2;
  cfg.procsPerGroup = 2;
  cfg.stack.consensusRoundTimeout = 2 * kSec;
  core::Experiment ex(cfg);
  ex.crashAt(1, 20 * kMs);
  ex.recoverAt(1, 60 * kMs);
  ex.castAt(kMs, 0, GroupSet::of({0, 1}), "a");
  ex.castAt(100 * kMs, 2, GroupSet::of({0, 1}), "b");
  auto r = ex.run(30 * kSec);
  EXPECT_EQ(r.correct.count(1), 0u);   // recovered != correct
  EXPECT_EQ(r.recovered.count(1), 1u);
  EXPECT_EQ(r.correct.size(), 3u);
  // The fault block matches the oracle's rebuild from the trace.
  EXPECT_EQ(r.metrics.faults.crashes, 1u);
  EXPECT_EQ(r.metrics.faults.recoveries, 1u);
  EXPECT_EQ(r.metrics.faults,
            oracle::summarizeTrace(r.trace, r.topo, r.traffic,
                                   r.lastAlgoSend, r.endTime)
                .faults);
  // The recovered process delivers the post-recovery message (A1 rejoins).
  EXPECT_TRUE(verify::checkRecoveredDelivery(r.checkContext()).empty());
}

TEST(Recovery, ScheduledCastsFromARecoveredSenderFire) {
  // A cast is a harness event, not state of the incarnation that was
  // alive when it was scheduled: it fires iff the sender is alive at
  // cast time — including a sender that crashed and recovered meanwhile.
  core::RunConfig cfg;
  cfg.groups = 2;
  cfg.procsPerGroup = 2;
  cfg.stack.consensusRoundTimeout = 2 * kSec;
  core::Experiment ex(cfg);
  ex.crashAt(1, 50 * kMs);
  ex.recoverAt(1, 100 * kMs);
  ex.castAt(200 * kMs, 1, GroupSet::of({0, 1}), "post-recovery");
  ex.castAt(70 * kMs, 1, GroupSet::of({0, 1}), "while-down");
  auto r = ex.run(30 * kSec);
  ASSERT_EQ(r.trace.casts.size(), 1u);  // the down-window cast is skipped
  EXPECT_EQ(r.trace.casts[0].process, 1);
  EXPECT_EQ(r.trace.casts[0].when, 200 * kMs);
  EXPECT_GE(r.trace.deliveries.size(), 3u);  // and it actually delivers
}

// ---------------------------------------------------------------------------
// Verify-layer recovery semantics.
// ---------------------------------------------------------------------------

verify::CheckContext ctxOf(const RunTrace& trace, const Topology& topo,
                           std::set<ProcessId> correct) {
  return verify::CheckContext{&trace, &topo, std::move(correct)};
}

TEST(RecoverySemantics, IntegrityBindsPerIncarnation) {
  Topology topo(1, 2);
  RunTrace t;
  t.casts.push_back(CastEvent{0, 1, GroupSet::single(0), 0, 10});
  // p1 delivers m1, crashes, recovers, and re-delivers it (amnesia): OK.
  t.deliveries.push_back(DeliveryEvent{1, 1, 0, 20, 0});
  t.crashes.push_back(CrashEvent{1, 30});
  t.recoveries.push_back(RecoveryEvent{1, 40});
  t.deliveries.push_back(DeliveryEvent{1, 1, 0, 50, 1});
  EXPECT_TRUE(verify::checkUniformIntegrity(ctxOf(t, topo, {0})).empty());

  // A second delivery WITHIN the new incarnation is still a violation.
  t.deliveries.push_back(DeliveryEvent{1, 1, 0, 60, 2});
  auto v = verify::checkUniformIntegrity(ctxOf(t, topo, {0}));
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("2 times"), std::string::npos);
}

TEST(RecoverySemantics, UniformPrefixOrderSkipsRecoveredProcesses) {
  Topology topo(1, 2);
  RunTrace t;
  for (MsgId m = 1; m <= 2; ++m) {
    t.casts.push_back(CastEvent{0, m, GroupSet::single(0), 0, 10});
  }
  // p0 delivers m1 then m2; p1 (recovered mid-run) delivers only m2 —
  // a prefix violation between never-crashed processes, but p1 restarted.
  t.deliveries.push_back(DeliveryEvent{0, 1, 0, 20, 0});
  t.deliveries.push_back(DeliveryEvent{0, 2, 0, 30, 1});
  t.crashes.push_back(CrashEvent{1, 15});
  t.recoveries.push_back(RecoveryEvent{1, 25});
  t.deliveries.push_back(DeliveryEvent{1, 2, 0, 40, 0});
  EXPECT_TRUE(verify::checkUniformPrefixOrder(ctxOf(t, topo, {0})).empty());
  EXPECT_EQ(verify::recoveredProcesses(ctxOf(t, topo, {0})),
            (std::set<ProcessId>{1}));
  // Sanity: without the recovery events the same trace IS a violation.
  RunTrace bare = t;
  bare.crashes.clear();
  bare.recoveries.clear();
  EXPECT_FALSE(
      verify::checkUniformPrefixOrder(ctxOf(bare, topo, {0})).empty());
}

TEST(RecoverySemantics, RecoveredDeliveryObligation) {
  Topology topo(1, 2);
  RunTrace t;
  t.crashes.push_back(CrashEvent{1, 10});
  t.recoveries.push_back(RecoveryEvent{1, 20});
  // m1 cast after p1's recovery, delivered by every correct addressee
  // (p0) but not by p1: violation.
  t.casts.push_back(CastEvent{0, 1, GroupSet::single(0), 0, 30});
  t.deliveries.push_back(DeliveryEvent{0, 1, 0, 40, 0});
  auto v = verify::checkRecoveredDelivery(ctxOf(t, topo, {0}));
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("recovery: p1"), std::string::npos);
  // Once p1 delivers it, the obligation is met.
  t.deliveries.push_back(DeliveryEvent{1, 1, 0, 50, 0});
  EXPECT_TRUE(verify::checkRecoveredDelivery(ctxOf(t, topo, {0})).empty());
}

TEST(RecoverySemantics, NoObligationAfterASecondCrash) {
  // crash -> recover -> crash: the process ends the run down, so it owes
  // nothing — not even messages cast during its alive window.
  Topology topo(1, 2);
  RunTrace t;
  t.crashes.push_back(CrashEvent{1, 10});
  t.recoveries.push_back(RecoveryEvent{1, 20});
  t.crashes.push_back(CrashEvent{1, 60});
  t.casts.push_back(CastEvent{0, 1, GroupSet::single(0), 0, 30});
  t.deliveries.push_back(DeliveryEvent{0, 1, 0, 40, 0});
  EXPECT_TRUE(verify::checkRecoveredDelivery(ctxOf(t, topo, {0})).empty());
}

// ---------------------------------------------------------------------------
// Scenario plumbing: materializers and fingerprints.
// ---------------------------------------------------------------------------

TEST(ScenarioFaultPlane, MaterializersAreDeterministic) {
  std::vector<testing::CrashSpec> crashes{{1, 100 * kMs}, {4, 200 * kMs}};
  testing::RandomRecoveries rr;
  auto a = materializeRecoveries(crashes, rr, 7);
  auto b = materializeRecoveries(crashes, rr, 7);
  ASSERT_EQ(a.size(), 2u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pid, b[i].pid);
    EXPECT_EQ(a[i].when, b[i].when);
    EXPECT_EQ(a[i].pid, crashes[i].pid);
    EXPECT_GE(a[i].when, crashes[i].when + rr.delayMin);
    EXPECT_LE(a[i].when, crashes[i].when + rr.delayMax);
  }
  EXPECT_NE(materializeRecoveries(crashes, rr, 8)[0].when, a[0].when);
}

TEST(ScenarioFaultPlane, FingerprintPinsRecoveryAndPartitionEvents) {
  testing::Scenario s;
  s.name = "fp";
  s.config.groups = 2;
  s.config.procsPerGroup = 2;
  s.config.protocol = core::ProtocolKind::kA1;
  s.latency = testing::LatencyPreset::kWan;
  s.workload = workload::Spec::closedLoop(4, 70 * kMs, 2);
  s.crashes.push_back(testing::CrashSpec{1, 150 * kMs});
  s.recoveries.push_back(testing::RecoverSpec{1, 400 * kMs});
  s.partitions.push_back(
      testing::PartitionSpec{GroupSet::single(1), 200 * kMs, 350 * kMs});
  s.runUntil = 20 * kSec;
  s.withDefaultExpectations();

  auto r1 = testing::ScenarioRunner(s).run();
  auto r2 = testing::ScenarioRunner(s).run();
  EXPECT_EQ(r1.fingerprint, r2.fingerprint);
  EXPECT_NE(r1.fingerprint.find("R p1 t400000"), std::string::npos);
  EXPECT_NE(r1.fingerprint.find("P cut s2 t200000"), std::string::npos);
  EXPECT_NE(r1.fingerprint.find("P heal s2 t350000"), std::string::npos);
  EXPECT_EQ(r1.effectiveRecoveries.size(), 1u);
}

}  // namespace
}  // namespace wanmc
