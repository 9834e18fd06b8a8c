// Tests for Algorithm A1 (genuine atomic multicast, paper §4).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "amcast/a1_node.hpp"
#include "channel/channel.hpp"
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
  // leave a pending record that no later step removes, the pending table
  // must have freed every page, and a consensus
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
    EXPECT_EQ(node.pendingPages(), 0u) << "p" << p;
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

TEST(A1, EntryLeavingStageOneWakesTheDeliveryTest) {
  // g1's clock runs ahead, so m's final timestamp is g1's proposal and g0
  // needs a second consensus for m. x, decided in g0 after m, waits behind
  // m's own proposal; once g1's (TS, m) lifts m's key past x's, x is
  // ready at once and must not wait for m's second consensus.
  Experiment ex(fixedCfg(2, 2));
  ex.castAt(kMs, 2, GroupSet::of({1}), "a");
  ex.castAt(3 * kMs, 2, GroupSet::of({1}), "b");
  const MsgId m = ex.castAt(5 * kMs, 0, GroupSet::of({0, 1}), "m");
  const MsgId x = ex.castAt(10 * kMs, 0, GroupSet::of({0}), "x");
  SimTime firstRemoteStamp = kTimeNever;  // g1's first (TS, m) to p0
  ex.runtime().setDropFilter([&](ProcessId from, ProcessId to,
                                 const Payload& p) {
    const auto* ts = dynamic_cast<const amcast::TsPayload*>(&p);
    if (ts != nullptr && ts->msg->id == m && from >= 2 && to == 0)
      firstRemoteStamp = std::min(firstRemoteStamp, ex.runtime().now());
    return false;
  });
  auto r = ex.run();
  ASSERT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite()[0];
  SimTime xAt = 0, mAt = 0;
  for (const DeliveryEvent& d : r.trace.deliveries) {
    if (d.process != 0) continue;
    if (d.msg == x) xAt = d.when;
    if (d.msg == m) mAt = d.when;
  }
  ASSERT_NE(firstRemoteStamp, kTimeNever);
  EXPECT_EQ(xAt, firstRemoteStamp + 100 * kMs);
  EXPECT_LT(xAt, mAt);
}

TEST(A1, EntryLeavingStageOneInItsOwnDecisionWakesTheDeliveryTest) {
  // The same wake-up on the decision path. g0 learns m from g1's (TS, m)
  // alone, so g1's proposal is in before g0 decides m, and m and x share
  // g0's decision. Line 32 finds x behind m's own proposal; checkStage1
  // then raises m to s2, and x is ready.
  RunConfig c = cfg(2, 2);
  c.latency = sim::LatencyModel::fixed(kMs, 100 * kMs);
  Experiment ex(c);
  ex.runtime().setDropFilter([](ProcessId from, ProcessId to,
                                const Payload& p) {
    return p.layer() == Layer::kReliableMulticast && from >= 2 && to < 2;
  });
  ex.castAt(kMs, 2, GroupSet::of({1}), "a");
  ex.castAt(10 * kMs, 2, GroupSet::of({1}), "b");
  const MsgId m = ex.castAt(19 * kMs, 2, GroupSet::of({0, 1}), "m");
  ex.castAt(121 * kMs, 1, GroupSet::of({0}), "y");  // g0's instance 1
  const MsgId x = ex.castAt(121 * kMs + 500, 0, GroupSet::of({0}), "x");
  auto r = ex.run();
  ASSERT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite()[0];
  SimTime xAt = 0, mAt = 0;
  for (const DeliveryEvent& d : r.trace.deliveries) {
    if (d.process != 0) continue;
    if (d.msg == x) xAt = d.when;
    if (d.msg == m) mAt = d.when;
  }
  EXPECT_LT(xAt, mAt);
}

// ---------------------------------------------------------------------------
// The floor read off the (TS, ·) streams (see a1_node.hpp).
// ---------------------------------------------------------------------------

// Per cast: the last addressee's delivery time minus the cast time.
std::vector<SimTime> messageLatencies(const core::RunResult& r) {
  std::map<MsgId, SimTime> last;
  for (const DeliveryEvent& d : r.trace.deliveries)
    last[d.msg] = std::max(last[d.msg], d.when);
  std::vector<SimTime> out;
  for (const CastEvent& c : r.trace.casts) out.push_back(last[c.msg] - c.when);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(A1StreamFloor, LoadedCastsToTwoGroupsStayBelowTwoAndAHalfDelta) {
  // The setting of the CI sweep's 8 ms point: 2 x 2, fixed 1 ms / 100 ms
  // links, every cast to both groups. Without the floor an own-group
  // message waiting for the remote (TS, m) holds back the later ones, and
  // the p50 reads 3 delta.
  RunConfig c = cfg(2, 2);
  c.latency = sim::LatencyModel::fixed(kMs, 100 * kMs);
  Experiment ex(c);
  ex.addWorkload(workload::Spec::closedLoop(600, 8 * kMs, 2));
  auto r = ex.run();
  ASSERT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite()[0];
  const auto lat = messageLatencies(r);
  ASSERT_EQ(lat.size(), 600u);
  EXPECT_LT(lat[lat.size() / 2], 250 * kMs);
}

TEST(A1StreamFloor, OutOfOrderCopiesHoldTheFloorUntilTheHoleFills) {
  Experiment ex(fixedCfg(2, 2));
  auto& node = dynamic_cast<amcast::A1Node&>(ex.node(2));  // in g1
  auto copy = [&](MsgId id, uint64_t proposal, uint32_t n) {
    node.onMessage(0, std::make_shared<const amcast::TsPayload>(
                          makeAppMessage(id, 0, GroupSet::of({0, 1})),
                          proposal, 0, amcast::TsPayload::Seq{n}));
  };
  copy(100, 5, 2);  // p0's second copy overtakes its first
  EXPECT_EQ(node.floorOf(0), 0u);
  EXPECT_EQ(node.heldCopies(), 1u);
  copy(101, 3, 1);
  EXPECT_EQ(node.floorOf(0), 5u);
  EXPECT_EQ(node.heldCopies(), 0u);
  copy(102, 7, 0);  // unnumbered: raises nothing
  EXPECT_EQ(node.floorOf(0), 5u);
}

TEST(A1StreamFloor, RejoinedIncarnationsNeitherNumberNorTrackCopies) {
  // p0 (g0, a sender) and p3 (g1, a receiver) crash and rejoin.
  RunConfig c = cfg(2, 3);
  c.stack.bootstrap.armed = true;
  c.stack.consensusRoundTimeout = 500 * kMs;
  Experiment ex(c);
  ex.crashAt(0, 300 * kMs);
  ex.crashAt(3, 300 * kMs);
  ex.recoverAt(0, 800 * kMs);
  ex.recoverAt(3, 800 * kMs);
  for (int i = 0; i < 20; ++i)
    ex.castAt(10 * kMs + i * 100 * kMs, i % 2 == 0 ? 1 : 4,
              GroupSet::of({0, 1}));
  uint32_t numberedBefore = 0, numberedAfter = 0, after = 0;
  ex.runtime().setDropFilter([&](ProcessId from, ProcessId, const Payload& p) {
    const auto* ts = dynamic_cast<const amcast::TsPayload*>(&p);
    if (ts == nullptr || from != 0) return false;
    const bool rejoined = ex.runtime().incarnation(0) > 0;
    after += rejoined ? 1 : 0;
    (rejoined ? numberedAfter : numberedBefore) += ts->seq[0] != 0 ? 1 : 0;
    return false;
  });
  auto r = ex.run(120 * kSec);
  ASSERT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite()[0];
  EXPECT_GT(numberedBefore, 0u);
  EXPECT_GT(after, 0u);
  EXPECT_EQ(numberedAfter, 0u);
  const auto& rejoined = dynamic_cast<amcast::A1Node&>(ex.node(3));
  const auto& first = dynamic_cast<amcast::A1Node&>(ex.node(4));
  EXPECT_EQ(rejoined.floorOf(0), 0u);
  EXPECT_EQ(rejoined.heldCopies(), 0u);
  EXPECT_GT(first.floorOf(0), 0u);
}

TEST(A1StreamFloor, CopyLostForGoodLeavesStateWithinTheWindow) {
  // No channels: p0's first (TS, ·) copy to p2 is lost for good. p2 holds
  // p0's later copies until the hole outlives the window, then abandons
  // p0's stream; p1's stream still raises g0's floor, and p1's copies
  // still give p2 every g0 proposal. Each cast sends p2 one copy from p0,
  // so a few casts more than the window abandon the stream.
  Experiment ex(fixedCfg(2, 2));
  bool lost = false;
  ex.runtime().setDropFilter([&](ProcessId from, ProcessId to,
                                 const Payload& p) {
    if (lost || from != 0 || to != 2 ||
        dynamic_cast<const amcast::TsPayload*>(&p) == nullptr)
      return false;
    return lost = true;
  });
  const int casts = static_cast<int>(amcast::A1Node::kReorderWindow) + 16;
  for (int i = 0; i < casts; ++i)
    ex.castAt(kMs + i * 4 * kMs, i % 4, GroupSet::of({0, 1}));
  const auto& node = dynamic_cast<amcast::A1Node&>(ex.node(2));
  ex.run(2 * kSec);  // about 500 of p0's copies are in
  ASSERT_TRUE(lost);
  EXPECT_GT(node.heldCopies(), 0u);
  EXPECT_LT(node.heldCopies(), amcast::A1Node::kReorderWindow);
  auto r = ex.run();
  ASSERT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite()[0];
  EXPECT_EQ(node.heldCopies(), 0u);  // p0's stream is abandoned
  EXPECT_GT(node.floorOf(0), 0u);
}

TEST(A1StreamFloor, AHoleTheChannelRefillsKeepsTheStream) {
  // Reliable channels hand copies up as they arrive. p0's first (TS, ·)
  // copy to p2 is lost once, and the channel resends it a request round
  // trip (2 delta) later. Meanwhile about 100 of p0's later copies reach
  // p2, far more than a fixed 32-copy window would hold. The stream keeps
  // them until the hole fills: its bound is the channel's send window.
  RunConfig c = fixedCfg(2, 2);
  c.stack.reliableChannels = true;
  Experiment ex(c);
  bool lost = false;
  ex.runtime().setDropFilter([&](ProcessId from, ProcessId to,
                                 const Payload& p) {
    const auto* d = dynamic_cast<const channel::DataPacket*>(&p);
    if (lost || from != 0 || to != 2 || d == nullptr ||
        dynamic_cast<const amcast::TsPayload*>(d->inner.get()) == nullptr)
      return false;
    return lost = true;
  });
  for (int i = 0; i < 150; ++i)
    ex.castAt(kMs + i * 2 * kMs, i % 4, GroupSet::of({0, 1}));
  const auto& node = dynamic_cast<amcast::A1Node&>(ex.node(2));
  ex.run(290 * kMs);  // the resend is still on its way
  ASSERT_TRUE(lost);
  EXPECT_GT(node.heldCopies(), 32u);
  const uint64_t floorBehindTheHole = node.floorOf(0);
  auto r = ex.run();
  ASSERT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite()[0];
  EXPECT_EQ(node.heldCopies(), 0u);  // the resend filled the hole
  EXPECT_GT(node.floorOf(0), floorBehindTheHole);
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
