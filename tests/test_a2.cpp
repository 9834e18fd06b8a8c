// Tests for Algorithm A2 (atomic broadcast with latency degree 1, paper §5).
#include <gtest/gtest.h>

#include "abcast/a2_node.hpp"
#include "core/experiment.hpp"
#include "testing/scenario.hpp"

namespace wanmc {
namespace {

using core::Experiment;
using core::ProtocolKind;
using core::RunConfig;

RunConfig cfg(int groups, int procs, uint64_t seed = 1) {
  RunConfig c;
  c.groups = groups;
  c.procsPerGroup = procs;
  c.seed = seed;
  c.protocol = ProtocolKind::kA2;
  c.latency = sim::LatencyModel{kMs, 2 * kMs, 95 * kMs, 110 * kMs};
  return c;
}

// Jitter-free variant for latency-degree assertions (best-case runs).
RunConfig fixedCfg(int groups, int procs, uint64_t seed = 1) {
  RunConfig c = cfg(groups, procs, seed);
  // Intra-group delays are two orders of magnitude below inter-group ones
  // so that group-local consensus always completes between WAN hops (the
  // interleaving the paper's theorems assume).
  c.latency = sim::LatencyModel::fixed(kMs / 10, 100 * kMs);
  return c;
}

TEST(A2, SingleMessageDeliveredEverywhere) {
  Experiment ex(cfg(2, 2));
  ex.castAllAt(kMs, 0, "x");
  auto r = ex.run();
  EXPECT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite()[0];
  auto seqs = r.trace.sequences();
  for (ProcessId p = 0; p < 4; ++p) EXPECT_EQ(seqs[p].size(), 1u);
}

TEST(A2, ColdStartLatencyDegreeTwo) {
  // Theorem 5.2: the first message after quiescence pays two delays — the
  // remote groups must be woken by our bundle before they answer with
  // theirs.
  Experiment ex(fixedCfg(2, 2));
  auto id = ex.castAllAt(kMs, 0, "x");
  auto r = ex.run();
  EXPECT_EQ(*r.trace.latencyDegree(id), 2);
}

TEST(A2, WarmRunReachesLatencyDegreeOne) {
  // Theorem 5.1: while rounds are running, a broadcast is delivered within
  // one inter-group delay. Keep the system busy with a steady stream and
  // check the minimum latency degree over the stream.
  Experiment ex(fixedCfg(2, 2));
  for (int i = 0; i < 30; ++i)
    ex.castAllAt(kMs + i * 40 * kMs, static_cast<ProcessId>(i % 4), "x");
  auto r = ex.run(600 * kSec);
  EXPECT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite()[0];
  ASSERT_FALSE(r.metrics.latencyDegrees.empty());
  EXPECT_EQ(r.metrics.latencyDegrees.begin()->first, 1);
}

TEST(A2, TotalOrderAcrossConcurrentSenders) {
  Experiment ex(cfg(3, 2, 9));
  for (int i = 0; i < 12; ++i)
    ex.castAllAt(kMs + (i % 3) * 10 * kMs + (i / 3) * 250 * kMs,
                 static_cast<ProcessId>(i % 6), "x");
  auto r = ex.run(600 * kSec);
  EXPECT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite()[0];
  // Full broadcast: all processes must have identical sequences.
  auto seqs = r.trace.sequences();
  for (ProcessId p = 1; p < 6; ++p) EXPECT_EQ(seqs[p], seqs[0]);
}

TEST(A2, QuiescentAfterFiniteBroadcasts) {
  // Prop. A.9: after the last message, at most one extra (empty) round runs
  // and then every process stops sending.
  Experiment ex(cfg(2, 2));
  ex.castAllAt(kMs, 0, "x");
  ex.castAllAt(400 * kMs, 2, "y");
  auto r = ex.run();
  auto v = verify::checkQuiescence(r.checkContext(), r.lastAlgoSend, 2 * kSec);
  EXPECT_TRUE(v.empty()) << v[0];
}

TEST(A2, RestartAfterQuiescenceStaysLive) {
  // Prediction mistakes are tolerated: a message broadcast long after the
  // system went quiescent is still delivered by everyone.
  Experiment ex(cfg(2, 2));
  ex.castAllAt(kMs, 0, "x");
  auto r1 = ex.run(10 * kSec);
  EXPECT_EQ(r1.trace.deliveries.size(), 4u);
  ex.castAllAt(20 * kSec, 3, "y");
  auto r2 = ex.run(60 * kSec);
  EXPECT_TRUE(r2.checkAtomicSuite().empty()) << r2.checkAtomicSuite()[0];
  EXPECT_EQ(r2.trace.deliveries.size(), 8u);
}

TEST(A2, EmptyRoundsDoNotRaiseBarrier) {
  Experiment ex(cfg(2, 2));
  ex.castAllAt(kMs, 0, "x");
  ex.run();
  auto& n0 = dynamic_cast<abcast::A2Node&>(ex.node(0));
  EXPECT_TRUE(n0.quiescentNow());
  // One useful round + one trailing empty round.
  EXPECT_EQ(n0.usefulRounds(), 1u);
  EXPECT_LE(n0.roundsExecuted(), 2u);
}

TEST(A2, BundleTrafficIsONSquaredPerRound) {
  const int m = 3, d = 2, n = m * d;
  Experiment ex(cfg(m, d));
  ex.castAllAt(kMs, 0, "x");
  auto r = ex.run();
  // Protocol-layer inter-group messages per round: every process sends its
  // group bundle to the (n - d) processes of the other groups. Two rounds
  // run (one useful + one empty).
  const uint64_t perRound = static_cast<uint64_t>(n) * (n - d);
  EXPECT_EQ(r.traffic.at(Layer::kProtocol).inter, 2 * perRound);
}

TEST(A2, RoundNumbersAdvanceInLockstep) {
  Experiment ex(cfg(3, 2));
  for (int i = 0; i < 5; ++i) ex.castAllAt(kMs + i * 300 * kMs, 0, "x");
  ex.run(600 * kSec);
  auto k0 = dynamic_cast<abcast::A2Node&>(ex.node(0)).round();
  for (ProcessId p = 1; p < 6; ++p)
    EXPECT_EQ(dynamic_cast<abcast::A2Node&>(ex.node(p)).round(), k0);
}

TEST(A2, HighFrequencyStreamAllRoundsUseful) {
  // §5.3: with inter-group latency ~100ms, >= 10 msg/s keeps the algorithm
  // non-reactive and every round delivers at least one message.
  Experiment ex(cfg(2, 2));
  const SimTime period = 50 * kMs;  // 20 msg/s
  for (int i = 0; i < 100; ++i)
    ex.castAllAt(10 * kMs + i * period, static_cast<ProcessId>(i % 4), "x");
  auto r = ex.run(600 * kSec);
  EXPECT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite()[0];
  auto& n0 = dynamic_cast<abcast::A2Node&>(ex.node(0));
  // All rounds but the trailing one delivered something.
  EXPECT_GE(n0.usefulRounds() + 1, n0.roundsExecuted());
}

class A2Sweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(A2Sweep, SafetyAcrossTopologiesAndSeeds) {
  auto [groups, procs, seed] = GetParam();
  Experiment ex(cfg(groups, procs, static_cast<uint64_t>(seed)));
  workload::Spec spec = workload::Spec::closedLoop(15, 35 * kMs);
  spec.seed = static_cast<uint64_t>(seed) * 17;
  ex.addWorkload(spec);
  auto r = ex.run(600 * kSec);
  auto v = r.checkAtomicSuite();
  EXPECT_TRUE(v.empty()) << v[0];
  // Broadcast: every correct process delivers every message.
  EXPECT_EQ(r.trace.deliveries.size(),
            15u * static_cast<size_t>(groups * procs));
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, A2Sweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(1, 2, 3)));

// The shared crash/drop/seed matrix every stack runs under (ScenarioRunner).
TEST(A2, StandardFaultMatrix) {
  for (const auto& r :
       wanmc::testing::runStandardMatrix(ProtocolKind::kA2))
    EXPECT_TRUE(r.ok()) << r.report();
}

}  // namespace
}  // namespace wanmc
