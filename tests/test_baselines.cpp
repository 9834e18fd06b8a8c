// Tests for the Figure-1 comparison baselines: Fritzke98 [5], Delporte00
// [4], Rodrigues98 [10], via-broadcast, Sousa02 [12], Vicente02 [13],
// Aguilera-Strom DetMerge00 [1].
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "abcast/sequencer_node.hpp"
#include "amcast/skeen_node.hpp"
#include "core/experiment.hpp"
#include "sim/runtime.hpp"
#include "testing/scenario.hpp"

namespace wanmc {
namespace {

using core::Experiment;
using core::ProtocolKind;
using core::RunConfig;

RunConfig cfg(ProtocolKind kind, int groups, int procs, uint64_t seed = 1) {
  RunConfig c;
  c.groups = groups;
  c.procsPerGroup = procs;
  c.seed = seed;
  c.protocol = kind;
  c.latency = sim::LatencyModel{kMs, 2 * kMs, 95 * kMs, 110 * kMs};
  return c;
}

// Jitter-free variant for latency-degree assertions: the paper's Figure 1
// reports best-case degrees (the minimum over admissible runs); fixed link
// delays make the favorable interleaving deterministic. Degree checks also
// use ISOLATED messages — Lamport clocks are global, so unrelated concurrent
// traffic would inflate per-message distances.
RunConfig fixedCfg(ProtocolKind kind, int groups, int procs,
                   uint64_t seed = 1) {
  RunConfig c = cfg(kind, groups, procs, seed);
  // Intra-group delays are two orders of magnitude below inter-group ones
  // so that group-local consensus always completes between WAN hops (the
  // interleaving the paper's theorems assume).
  c.latency = sim::LatencyModel::fixed(kMs / 10, 100 * kMs);
  return c;
}

// ---------------------------------------------------------------------------
// Multicast baselines share A1's safety contract.
// ---------------------------------------------------------------------------

class McastBaseline : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(McastBaseline, SingleMulticastSafeAndComplete) {
  Experiment ex(cfg(GetParam(), 3, 2));
  ex.castAt(kMs, 0, GroupSet::of({0, 1}), "x");
  auto r = ex.run(600 * kSec);
  auto v = r.checkAtomicSuite();
  EXPECT_TRUE(v.empty()) << v[0];
  EXPECT_EQ(r.trace.deliveries.size(), 4u);
}

TEST_P(McastBaseline, ConcurrentOverlappingMulticastsSafe) {
  Experiment ex(cfg(GetParam(), 3, 2, 11));
  ex.castAt(kMs, 0, GroupSet::of({0, 1}), "a");
  ex.castAt(kMs + 3, 2, GroupSet::of({1, 2}), "b");
  ex.castAt(kMs + 5, 4, GroupSet::of({0, 1, 2}), "c");
  ex.castAt(kMs + 7, 1, GroupSet::of({0}), "d");
  auto r = ex.run(600 * kSec);
  auto v = r.checkAtomicSuite();
  EXPECT_TRUE(v.empty()) << v[0];
}

TEST_P(McastBaseline, WorkloadSweepSafe) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Experiment ex(cfg(GetParam(), 3, 2, seed));
    workload::Spec spec = workload::Spec::closedLoop(12, 60 * kMs, 2);
    spec.seed = seed * 31;
    ex.addWorkload(spec);
    auto r = ex.run(600 * kSec);
    auto v = r.checkAtomicSuite();
    EXPECT_TRUE(v.empty()) << "seed " << seed << ": " << v[0];
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, McastBaseline,
    ::testing::Values(ProtocolKind::kFritzke98, ProtocolKind::kDelporte00,
                      ProtocolKind::kRodrigues98, ProtocolKind::kViaBcast),
    [](const auto& info) {
      return wanmc::testing::protocolTestName(info.param);
    });

// ---------------------------------------------------------------------------
// Latency degrees per Figure 1a.
// ---------------------------------------------------------------------------

TEST(Fritzke98, LatencyDegreeTwo) {
  // Sender outside both destination groups: the two groups then run their
  // first consensus symmetrically and exchange timestamps in one round
  // trip — the Delta = 2 run. (With the sender inside a destination group,
  // its group's earlier consensus races the remote TS arrival; the uniform
  // reliable multicast's extra intra hop makes that race a dead heat under
  // fixed latencies.)
  Experiment ex(fixedCfg(ProtocolKind::kFritzke98, 3, 2));
  auto id = ex.castAt(kMs, 4, GroupSet::of({0, 1}), "x");
  auto r = ex.run();
  EXPECT_TRUE(r.checkAtomicSuite().empty());
  EXPECT_EQ(*r.trace.latencyDegree(id), 2);
}

TEST(Delporte00, LatencyDegreeGrowsWithK) {
  // k + 1 when the sender is not in the ring's first group.
  for (int k = 2; k <= 4; ++k) {
    Experiment ex(fixedCfg(ProtocolKind::kDelporte00, k, 2));
    GroupSet dest;
    for (GroupId g = 0; g < k; ++g) dest.add(g);
    // Sender in the LAST destination group: reaching g1 costs one delay.
    const ProcessId sender = static_cast<ProcessId>((k - 1) * 2);
    auto id = ex.castAt(kMs, sender, dest, "x");
    auto r = ex.run(600 * kSec);
    EXPECT_TRUE(r.checkAtomicSuite().empty());
    EXPECT_EQ(*r.trace.latencyDegree(id), k + 1) << "k=" << k;
  }
}

TEST(Delporte00, GenuineOnlyAddresseesParticipate) {
  Experiment ex(cfg(ProtocolKind::kDelporte00, 3, 2));
  ex.castAt(kMs, 0, GroupSet::of({0, 1}), "x");
  auto r = ex.run();
  auto v = verify::checkGenuineness(r.checkContext(), r.genuineness);
  EXPECT_TRUE(v.empty()) << v[0];
}

TEST(Rodrigues98, LatencyDegreeFour) {
  Experiment ex(fixedCfg(ProtocolKind::kRodrigues98, 2, 2));
  auto id = ex.castAt(kMs, 0, GroupSet::of({0, 1}), "x");
  auto r = ex.run();
  EXPECT_TRUE(r.checkAtomicSuite().empty());
  EXPECT_EQ(*r.trace.latencyDegree(id), 4);
}

TEST(Rodrigues98, GenuineOnlyAddresseesParticipate) {
  Experiment ex(cfg(ProtocolKind::kRodrigues98, 3, 2));
  ex.castAt(kMs, 0, GroupSet::of({0, 1}), "x");
  auto r = ex.run();
  auto v = verify::checkGenuineness(r.checkContext(), r.genuineness);
  EXPECT_TRUE(v.empty()) << v[0];
}

TEST(Rodrigues98, IdsAcrossTheScopeBandDeliverInOneOrder) {
  // Each message's consensus runs under scope kScopeBase + id (kScopeBase
  // = 2^20), so ids at, past and far past 2^20 must order like small
  // ones. Hand-made messages on a bare runtime: no Experiment allocates
  // the ids.
  sim::Runtime rt(Topology(2, 3),
                  sim::LatencyModel{kMs, 2 * kMs, 95 * kMs, 110 * kMs}, 1);
  const core::StackConfig stack;
  std::vector<amcast::SkeenNode*> nodes;
  for (ProcessId p = 0; p < 6; ++p) {
    auto n = std::make_unique<amcast::SkeenNode>(
        rt, p, stack, amcast::SkeenVariant::kRodrigues98);
    nodes.push_back(n.get());
    rt.attach(p, std::move(n));
  }
  rt.start();
  const std::vector<MsgId> ids = {1, MsgId{1} << 20, (MsgId{1} << 20) + 1,
                                  MsgId{1} << 40, 5};
  for (size_t i = 0; i < ids.size(); ++i) {
    const auto sender = static_cast<ProcessId>(i % nodes.size());
    nodes[i % nodes.size()]->xcast(
        makeAppMessage(ids[i], sender, GroupSet::of({0, 1})));
  }
  rt.run();
  auto orderAt = [](const amcast::SkeenNode* n) {
    std::vector<MsgId> order;
    for (const AppMsgPtr& m : n->delivered()) order.push_back(m->id);
    return order;
  };
  const std::vector<MsgId> first = orderAt(nodes[0]);
  std::vector<MsgId> sorted = first;
  std::sort(sorted.begin(), sorted.end());
  std::vector<MsgId> want = ids;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(sorted, want);
  for (size_t p = 1; p < nodes.size(); ++p)
    EXPECT_EQ(orderAt(nodes[p]), first) << "p" << p;
}

TEST(ViaBcast, LatencyDegreeOneWhenWarmButNotGenuine) {
  Experiment ex(fixedCfg(ProtocolKind::kViaBcast, 3, 2));
  // Warm the rounds with a stream, then measure.
  for (int i = 0; i < 20; ++i)
    ex.castAt(kMs + i * 40 * kMs, 0, GroupSet::of({0, 1}), "x");
  auto r = ex.run(600 * kSec);
  EXPECT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite()[0];
  ASSERT_FALSE(r.metrics.latencyDegrees.empty());
  EXPECT_EQ(r.metrics.latencyDegrees.begin()->first,
            1);  // beats the genuine bound...
  auto v = verify::checkGenuineness(r.checkContext(), r.genuineness);
  EXPECT_FALSE(v.empty());  // ...precisely because it is not genuine
}

// ---------------------------------------------------------------------------
// Broadcast baselines.
// ---------------------------------------------------------------------------

TEST(Sousa02, FinalDeliveryDegreeTwo) {
  // Isolated message: concurrent traffic would inflate its Lamport span.
  Experiment ex(fixedCfg(ProtocolKind::kSousa02, 2, 2));
  auto id = ex.castAllAt(kMs, 2, "x");
  auto r = ex.run(600 * kSec);
  EXPECT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite()[0];
  EXPECT_EQ(*r.trace.latencyDegree(id), 2);
}

TEST(Sousa02, TotalOrderUnderConcurrentSenders) {
  Experiment ex(cfg(ProtocolKind::kSousa02, 2, 2));
  for (int i = 0; i < 9; ++i)
    ex.castAllAt(10 * kMs + i * 30 * kMs, static_cast<ProcessId>(i % 4), "y");
  auto r = ex.run(600 * kSec);
  EXPECT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite()[0];
  auto seqs = r.trace.sequences();
  for (ProcessId p = 1; p < 4; ++p) EXPECT_EQ(seqs[p], seqs[0]);
}

TEST(Sousa02, OptimisticDeliveryIsOneHop) {
  Experiment ex(cfg(ProtocolKind::kSousa02, 2, 2));
  ex.castAllAt(kMs, 0, "x");
  ex.run();
  for (ProcessId p = 0; p < 4; ++p) {
    auto& n = dynamic_cast<abcast::SequencerNode&>(ex.node(p));
    EXPECT_EQ(n.optimisticOrder().size(), 1u);
  }
}

TEST(Vicente02, UniformDegreeTwoAndONSquared) {
  const int m = 2, d = 2, n = m * d;
  Experiment ex(fixedCfg(ProtocolKind::kVicente02, m, d));
  auto id = ex.castAllAt(kMs, 1, "x");
  auto r = ex.run(600 * kSec);
  EXPECT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite()[0];
  EXPECT_EQ(*r.trace.latencyDegree(id), 2);
  // data O(n) + echo O(n^2) + seq O(n): quadratic dominates.
  EXPECT_GE(r.traffic.at(Layer::kProtocol).total(),
            static_cast<uint64_t>(n) * (n - 1));
}

TEST(DetMerge00, LatencyDegreeOneWithSlowHeartbeats) {
  // Single-process groups: with an intra-group peer, the peer's next
  // heartbeat causally follows m (it received m microseconds after the
  // cast) and Lamport-inflates the measured span — the degree-1 run the
  // paper's Figure 1 accounts for is the one where the gating heartbeats
  // are concurrent with m.
  auto c = fixedCfg(ProtocolKind::kDetMerge00, 2, 1);
  c.merge.heartbeatPeriod = 200 * kMs;  // >= inter-group delay
  Experiment ex(c);
  auto id = ex.castAllAt(300 * kMs, 0, "x");
  auto r = ex.run(5 * kSec);
  EXPECT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite()[0];
  EXPECT_EQ(*r.trace.latencyDegree(id), 1);
}

TEST(DetMerge00, TotalOrderUnderConcurrentPublishers) {
  auto c = cfg(ProtocolKind::kDetMerge00, 2, 2);
  Experiment ex(c);
  for (int i = 0; i < 10; ++i)
    ex.castAllAt(100 * kMs + i * 70 * kMs, static_cast<ProcessId>(i % 4),
                 "x");
  auto r = ex.run(10 * kSec);
  EXPECT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite()[0];
  auto seqs = r.trace.sequences();
  for (ProcessId p = 1; p < 4; ++p) EXPECT_EQ(seqs[p], seqs[0]);
}

TEST(DetMerge00, MulticastModeDeliversAtAddresseesOnly) {
  // A cast to some of the groups: every process merges it, the shared
  // addressee rule (XcastNode::adeliver) delivers it at groups 0 and 1.
  auto c = fixedCfg(ProtocolKind::kDetMerge00, 3, 1);
  c.merge.heartbeatPeriod = 200 * kMs;
  Experiment ex(c);
  auto id = ex.castAt(300 * kMs, 0, GroupSet::of({0, 1}), "x");
  auto r = ex.run(5 * kSec);
  auto seqs = r.trace.sequences();
  EXPECT_EQ(seqs[0].size(), 1u);
  EXPECT_EQ(seqs[1].size(), 1u);
  EXPECT_TRUE(seqs[2].empty());  // group 2 is not addressed
  EXPECT_EQ(*r.trace.latencyDegree(id), 1);
}

TEST(DetMerge00, NeverQuiescent) {
  auto c = cfg(ProtocolKind::kDetMerge00, 2, 1);
  Experiment ex(c);
  ex.castAllAt(100 * kMs, 0, "x");
  auto r = ex.run(20 * kSec);
  // Heartbeats keep flowing long after the last cast: [1] trades
  // quiescence for its latency degree of 1.
  auto v = verify::checkQuiescence(r.checkContext(), r.lastAlgoSend, 5 * kSec);
  EXPECT_FALSE(v.empty());
}

// The remaining baselines' shared fault matrices (the other stacks run
// theirs from their own test files).
TEST(Baselines, Fritzke98StandardFaultMatrix) {
  for (const auto& r :
       wanmc::testing::runStandardMatrix(ProtocolKind::kFritzke98))
    EXPECT_TRUE(r.ok()) << r.report();
}

TEST(Baselines, Rodrigues98StandardFaultMatrix) {
  for (const auto& r :
       wanmc::testing::runStandardMatrix(ProtocolKind::kRodrigues98))
    EXPECT_TRUE(r.ok()) << r.report();
}

TEST(Baselines, ViaBcastStandardFaultMatrix) {
  for (const auto& r :
       wanmc::testing::runStandardMatrix(ProtocolKind::kViaBcast))
    EXPECT_TRUE(r.ok()) << r.report();
}

TEST(Baselines, DetMergeStandardFaultMatrix) {
  for (const auto& r :
       wanmc::testing::runStandardMatrix(ProtocolKind::kDetMerge00))
    EXPECT_TRUE(r.ok()) << r.report();
}

}  // namespace
}  // namespace wanmc
