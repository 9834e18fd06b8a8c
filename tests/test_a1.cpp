// Tests for Algorithm A1 (genuine atomic multicast, paper §4).
#include <gtest/gtest.h>

#include "amcast/a1_node.hpp"
#include "core/experiment.hpp"
#include "testing/scenario.hpp"

namespace wanmc {
namespace {

using core::Experiment;
using core::ProtocolKind;
using core::RunConfig;

RunConfig cfg(int groups, int procs, uint64_t seed = 1,
              ProtocolKind kind = ProtocolKind::kA1) {
  RunConfig c;
  c.groups = groups;
  c.procsPerGroup = procs;
  c.seed = seed;
  c.protocol = kind;
  c.latency = sim::LatencyModel{kMs, 2 * kMs, 95 * kMs, 110 * kMs};
  return c;
}

// Jitter-free variant: latency-degree assertions reproduce the paper's
// best-case accounting, which assumes the favorable interleaving of the
// theorems' runs (the algorithm's latency degree is the MINIMUM over
// admissible runs); fixed link delays make that interleaving deterministic.
RunConfig fixedCfg(int groups, int procs, uint64_t seed = 1,
                   ProtocolKind kind = ProtocolKind::kA1) {
  RunConfig c = cfg(groups, procs, seed, kind);
  // Intra-group delays are two orders of magnitude below inter-group ones
  // so that group-local consensus always completes between WAN hops (the
  // interleaving the paper's theorems assume).
  c.latency = sim::LatencyModel::fixed(kMs / 10, 100 * kMs);
  return c;
}

TEST(A1, SingleGroupSingleMessage) {
  Experiment ex(cfg(1, 3));
  auto id = ex.castAt(kMs, 0, GroupSet::of({0}), "x");
  auto r = ex.run();
  EXPECT_TRUE(r.checkAtomicSuite().empty());
  // Latency degree 0: sender in the only destination group, everything
  // intra-group.
  EXPECT_EQ(*r.trace.latencyDegree(id), 0);
}

TEST(A1, SingleRemoteGroupLatencyDegreeOne) {
  Experiment ex(fixedCfg(2, 2));
  auto id = ex.castAt(kMs, 0, GroupSet::of({1}), "x");
  auto r = ex.run();
  EXPECT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite()[0];
  EXPECT_EQ(*r.trace.latencyDegree(id), 1);
}

TEST(A1, TwoGroupsLatencyDegreeTwo) {
  // Theorem 4.1: a message A-MCast to two groups with Delta(m, R) = 2.
  Experiment ex(fixedCfg(2, 2));
  auto id = ex.castAt(kMs, 0, GroupSet::of({0, 1}), "x");
  auto r = ex.run();
  EXPECT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite()[0];
  EXPECT_EQ(*r.trace.latencyDegree(id), 2);
}

TEST(A1, DeliversAtAllAddresseesOnly) {
  Experiment ex(cfg(3, 2));
  ex.castAt(kMs, 0, GroupSet::of({0, 1}), "x");
  auto r = ex.run();
  auto seqs = r.trace.sequences();
  for (ProcessId p = 0; p < 4; ++p)
    EXPECT_EQ(seqs[p].size(), 1u) << "p" << p;
  EXPECT_TRUE(seqs[4].empty());
  EXPECT_TRUE(seqs[5].empty());
}

TEST(A1, GenuinenessOnlyAddresseesParticipate) {
  Experiment ex(cfg(3, 2));
  ex.castAt(kMs, 0, GroupSet::of({0, 1}), "x");
  auto r = ex.run();
  auto v = verify::checkGenuineness(r.checkContext(), r.genuineness);
  EXPECT_TRUE(v.empty()) << v[0];
}

TEST(A1, InterGroupMessageCountMatchesFigure1a) {
  // d(k-1) for the reliable multicast + k(k-1)d^2 for the TS exchange.
  const int k = 3, d = 2;
  Experiment ex(cfg(k, d));
  ex.castAt(kMs, 0, GroupSet::of({0, 1, 2}), "x");
  auto r = ex.run();
  const uint64_t expected = static_cast<uint64_t>(d * (k - 1)) +
                            static_cast<uint64_t>(k * (k - 1) * d * d);
  EXPECT_EQ(r.traffic.interAlgorithmic(), expected);
}

TEST(A1, ConcurrentMessagesTotalOrderWithinOverlap) {
  Experiment ex(cfg(3, 2, 5));
  // Two concurrent messages to overlapping group sets.
  ex.castAt(kMs, 0, GroupSet::of({0, 1}), "a");
  ex.castAt(kMs, 5, GroupSet::of({1, 2}), "b");
  ex.castAt(kMs, 2, GroupSet::of({0, 1, 2}), "c");
  auto r = ex.run();
  EXPECT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite()[0];
}

TEST(A1, ManyMessagesMixedDestinations) {
  Experiment ex(cfg(3, 2, 7));
  ex.addWorkload(workload::Spec::closedLoop(40, 20 * kMs, 2));
  auto r = ex.run(600 * kSec);
  EXPECT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite()[0];
  EXPECT_EQ(r.trace.casts.size(), 40u);
}

TEST(A1, SingleGroupMessagesUseOneConsensusInstance) {
  // The skip optimization: single-group messages jump s0 -> s3.
  Experiment ex(cfg(1, 3));
  for (int i = 0; i < 5; ++i)
    ex.castAt(kMs + i * 50 * kMs, 0, GroupSet::of({0}), "x");
  auto r = ex.run();
  EXPECT_TRUE(r.checkAtomicSuite().empty());
  auto& node = dynamic_cast<amcast::A1Node&>(ex.node(0));
  // One consensus decision per message (no batching at 50ms spacing, no
  // second consensus).
  EXPECT_EQ(node.consensusInstancesDecided(), 5u);
}

TEST(A1, StageSkippingSparesConsensusVsFritzke) {
  // §4.1/§6: fewer consensus instances than [5], hence fewer intra-group
  // messages, at the same number of inter-group messages.
  struct Cost {
    uint64_t instances = 0;
    uint64_t intra = 0;
    uint64_t inter = 0;
  };
  auto measure = [](ProtocolKind kind) {
    Experiment ex(cfg(2, 2, 3, kind));
    for (int i = 0; i < 6; ++i)
      ex.castAt(kMs + i * 300 * kMs, 0, GroupSet::of({0, 1}), "x");
    auto r = ex.run();
    EXPECT_TRUE(r.checkAtomicSuite().empty());
    Cost c;
    for (ProcessId p = 0; p < 4; ++p)
      c.instances += dynamic_cast<amcast::A1Node&>(ex.node(p))
                         .consensusInstancesDecided();
    c.intra = r.traffic.intraTotal();
    c.inter = r.traffic.interAlgorithmic();
    return c;
  };
  const Cost a1 = measure(ProtocolKind::kA1);
  const Cost fritzke = measure(ProtocolKind::kFritzke98);
  EXPECT_LT(a1.instances, fritzke.instances);
  EXPECT_LT(a1.intra, fritzke.intra);
  EXPECT_EQ(a1.inter, fritzke.inter);
}

TEST(A1, QuiescentAfterFiniteCasts) {
  Experiment ex(cfg(2, 2));
  ex.castAt(kMs, 0, GroupSet::of({0, 1}), "x");
  auto r = ex.run();
  // Everything (including substrate chatter) happens within a settle budget
  // of a few WAN hops after the last cast.
  auto v = verify::checkQuiescence(r.checkContext(), r.lastAlgoSend, kSec);
  EXPECT_TRUE(v.empty()) << v[0];
}

TEST(A1, TablesEmptyAfterQuiescentWorkload) {
  // Once every cast is A-Delivered everywhere nothing may stay behind. In
  // particular a (TS, m) copy that arrives after m was A-Delivered must not
  // leave a stamp-table entry that no later step removes, and a consensus
  // copy that arrives after its instance decided must not bring the
  // instance back into the working table.
  Experiment ex(cfg(3, 3, 5));
  ex.addWorkload(workload::Spec::openLoopPoisson(300, 3 * kMs, 2));
  auto r = ex.run();
  ASSERT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite()[0];
  for (ProcessId p = 0; p < 9; ++p) {
    const auto& node = dynamic_cast<amcast::A1Node&>(ex.node(p));
    EXPECT_EQ(node.pendingCount(), 0u) << "p" << p;
    EXPECT_EQ(node.stampTableSize(), 0u) << "p" << p;
    EXPECT_GT(node.consensusInstancesDecided(), 0u) << "p" << p;
    EXPECT_EQ(node.groupConsensus().activeInstances(), 0u) << "p" << p;
  }
}

TEST(A1, SenderOutsideDestinationSet) {
  Experiment ex(fixedCfg(3, 2));
  auto id = ex.castAt(kMs, 0, GroupSet::of({1, 2}), "x");
  auto r = ex.run();
  EXPECT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite()[0];
  auto seqs = r.trace.sequences();
  EXPECT_TRUE(seqs[0].empty());
  EXPECT_EQ(seqs[2].size(), 1u);
  EXPECT_EQ(*r.trace.latencyDegree(id), 2);
}

TEST(A1, Footnote4TsMessagesPropagateTheMessage) {
  // Paper footnote 4: the (TS, m) message "also serves the purpose of
  // propagating m". Drop EVERY reliable-multicast packet headed to group 1
  // (as if the sender crashed after reaching only its own group): group 1
  // must still learn m from group 0's (TS, m) messages and deliver it.
  Experiment ex(cfg(2, 2));
  ex.runtime().setDropFilter(
      [&ex](ProcessId, ProcessId to, const Payload& p) {
        return p.layer() == Layer::kReliableMulticast &&
               ex.runtime().topology().group(to) == 1;
      });
  auto id = ex.castAt(kMs, 0, GroupSet::of({0, 1}), "x");
  auto r = ex.run(600 * kSec);
  auto seqs = r.trace.sequences();
  for (ProcessId p = 0; p < 4; ++p)
    EXPECT_EQ(seqs[p], std::vector<MsgId>{id}) << "p" << p;
  auto v = r.checkAtomicSuite();
  EXPECT_TRUE(v.empty()) << v[0];
}

class A1Sweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(A1Sweep, SafetyAcrossTopologiesAndSeeds) {
  auto [groups, procs, seed] = GetParam();
  Experiment ex(cfg(groups, procs, static_cast<uint64_t>(seed)));
  workload::Spec spec =
      workload::Spec::closedLoop(15, 40 * kMs, std::min(2, groups));
  spec.seed = static_cast<uint64_t>(seed) * 13;
  ex.addWorkload(spec);
  auto r = ex.run(600 * kSec);
  auto v = r.checkAtomicSuite();
  EXPECT_TRUE(v.empty()) << v[0];
  EXPECT_EQ(r.trace.casts.size(), 15u);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, A1Sweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(1, 2, 3)));

// The shared crash/drop/seed matrix every stack runs under (ScenarioRunner;
// see tests/test_scenario_matrix.cpp for the all-protocol sweep).
TEST(A1, StandardFaultMatrix) {
  for (const auto& r :
       wanmc::testing::runStandardMatrix(ProtocolKind::kA1))
    EXPECT_TRUE(r.ok()) << r.report();
}

}  // namespace
}  // namespace wanmc
