// Crash-injection tests: the fault-tolerance obligations of the paper's
// algorithms under benign crash-stop failures (at least one correct process
// per group; consensus solvable, i.e. a majority correct per group).
#include <gtest/gtest.h>

#include "core/experiment.hpp"
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
  c.stack.fdOracleDelay = 30 * kMs;
  return c;
}

// Safety suite for crashed runs: uniform agreement obligations only bind
// correct processes; prefix order is checked on the final sequences.
void expectSafe(const core::RunResult& r, const std::string& tag) {
  auto ctx = r.checkContext();
  for (auto&& v : verify::checkUniformIntegrity(ctx))
    ADD_FAILURE() << tag << ": " << v;
  for (auto&& v : verify::checkValidity(ctx))
    ADD_FAILURE() << tag << ": " << v;
  for (auto&& v : verify::checkUniformAgreement(ctx))
    ADD_FAILURE() << tag << ": " << v;
  for (auto&& v : verify::checkUniformPrefixOrder(ctx))
    ADD_FAILURE() << tag << ": " << v;
}

TEST(A1Failures, MinorityCrashInDestinationGroup) {
  Experiment ex(cfg(ProtocolKind::kA1, 2, 3));
  ex.crashAt(4, 50 * kMs);  // one of three in group 1
  for (int i = 0; i < 8; ++i)
    ex.castAt(kMs + i * 60 * kMs, 0, GroupSet::of({0, 1}), "x");
  auto r = ex.run(600 * kSec);
  expectSafe(r, "A1 minority crash");
  // Every correct addressee delivered all 8 messages.
  auto seqs = r.trace.sequences();
  for (ProcessId p : r.correct) EXPECT_EQ(seqs[p].size(), 8u) << "p" << p;
}

TEST(A1Failures, SenderCrashesRightAfterCast) {
  Experiment ex(cfg(ProtocolKind::kA1, 2, 3));
  auto id = ex.castAt(100 * kMs, 0, GroupSet::of({0, 1}), "x");
  ex.crashAt(0, 100 * kMs + 1);
  auto r = ex.run(600 * kSec);
  expectSafe(r, "A1 sender crash");
  // The message was R-MCast before the crash: all correct addressees must
  // deliver it (agreement via intra-group relay + TS propagation).
  auto seqs = r.trace.sequences();
  for (ProcessId p : r.correct)
    EXPECT_EQ(seqs[p], std::vector<MsgId>{id}) << "p" << p;
}

TEST(A1Failures, CrashDuringTimestampExchange) {
  Experiment ex(cfg(ProtocolKind::kA1, 3, 3, 5));
  for (int i = 0; i < 6; ++i)
    ex.castAt(kMs + i * 80 * kMs, 1, GroupSet::of({0, 1, 2}), "x");
  // Crash one process per group mid-protocol (majorities survive).
  ex.crashAt(2, 120 * kMs);
  ex.crashAt(5, 170 * kMs);
  ex.crashAt(8, 220 * kMs);
  auto r = ex.run(600 * kSec);
  expectSafe(r, "A1 exchange crash");
  auto seqs = r.trace.sequences();
  for (ProcessId p : r.correct) EXPECT_EQ(seqs[p].size(), 6u) << "p" << p;
}

TEST(A2Failures, MinorityCrashPerGroup) {
  Experiment ex(cfg(ProtocolKind::kA2, 2, 3));
  ex.crashAt(1, 90 * kMs);
  ex.crashAt(4, 140 * kMs);
  for (int i = 0; i < 8; ++i)
    ex.castAllAt(kMs + i * 70 * kMs, static_cast<ProcessId>((i % 2) * 3),
                 "x");
  auto r = ex.run(600 * kSec);
  expectSafe(r, "A2 minority crash");
  auto seqs = r.trace.sequences();
  for (ProcessId p : r.correct) EXPECT_EQ(seqs[p].size(), 8u) << "p" << p;
}

TEST(A2Failures, SenderCrashesAfterLocalRMcast) {
  Experiment ex(cfg(ProtocolKind::kA2, 2, 3));
  auto id = ex.castAllAt(100 * kMs, 0, "x");
  ex.crashAt(0, 100 * kMs + 1);
  auto r = ex.run(600 * kSec);
  expectSafe(r, "A2 sender crash");
  auto seqs = r.trace.sequences();
  for (ProcessId p : r.correct)
    EXPECT_EQ(seqs[p], std::vector<MsgId>{id}) << "p" << p;
}

TEST(A2Failures, CrashWhileQuiescentThenRestart) {
  Experiment ex(cfg(ProtocolKind::kA2, 2, 3));
  ex.castAllAt(kMs, 0, "x");
  ex.run(10 * kSec);
  ex.crashAt(3, 11 * kSec);  // crash during the quiescent phase
  ex.castAllAt(15 * kSec, 1, "y");
  auto r = ex.run(60 * kSec);
  expectSafe(r, "A2 quiescent crash");
  auto seqs = r.trace.sequences();
  for (ProcessId p : r.correct) EXPECT_EQ(seqs[p].size(), 2u) << "p" << p;
}

TEST(RingFailures, MinorityCrashOnTheRing) {
  Experiment ex(cfg(ProtocolKind::kDelporte00, 3, 3, 7));
  ex.crashAt(4, 130 * kMs);  // one member of the middle group
  for (int i = 0; i < 5; ++i)
    ex.castAt(kMs + i * 150 * kMs, 0, GroupSet::of({0, 1, 2}), "x");
  auto r = ex.run(600 * kSec);
  expectSafe(r, "ring crash");
  auto seqs = r.trace.sequences();
  for (ProcessId p : r.correct) EXPECT_EQ(seqs[p].size(), 5u) << "p" << p;
}

TEST(SousaFailures, SequencerCrashFailsOver) {
  Experiment ex(cfg(ProtocolKind::kSousa02, 2, 2));
  ex.castAllAt(kMs, 1, "a");
  ex.crashAt(0, 500 * kMs);  // p0 is the initial sequencer
  ex.castAllAt(kSec, 1, "b");
  ex.castAllAt(kSec + 50 * kMs, 2, "c");
  auto r = ex.run(600 * kSec);
  // Non-uniform protocol: agreement obligations only among correct procs.
  auto ctx = r.checkContext();
  for (auto&& v : verify::checkUniformIntegrity(ctx)) ADD_FAILURE() << v;
  for (auto&& v : verify::checkAgreementCorrectOnly(ctx)) ADD_FAILURE() << v;
  for (auto&& v : verify::checkPrefixOrderCorrectOnly(ctx))
    ADD_FAILURE() << v;
  auto seqs = r.trace.sequences();
  for (ProcessId p : r.correct) EXPECT_EQ(seqs[p].size(), 3u) << "p" << p;
}

TEST(ConsensusFailures, A1SurvivesCoordinatorCrashMidConsensus) {
  // Crash the likely round-1 coordinator of an early instance while the
  // first message is being ordered.
  Experiment ex(cfg(ProtocolKind::kA1, 2, 3, 9));
  ex.castAt(100 * kMs, 0, GroupSet::of({0, 1}), "x");
  ex.crashAt(2, 101 * kMs);
  ex.crashAt(4, 101 * kMs);
  auto r = ex.run(600 * kSec);
  expectSafe(r, "A1 coordinator crash");
  auto seqs = r.trace.sequences();
  for (ProcessId p : r.correct) EXPECT_EQ(seqs[p].size(), 1u) << "p" << p;
}

// Random minority-crash sweeps, driven through the fault-injection harness
// (testing::ScenarioRunner): one victim per group at a seed-derived time,
// four seeds per protocol, every crash-tolerant stack. The deep 100-seed
// sweeps live in tests/test_seed_sweep.cpp under the `scenario` ctest label.
class CrashSweep : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(CrashSweep, RandomMinorityCrashesStaySafe) {
  const ProtocolKind kind = GetParam();
  wanmc::testing::Scenario s;
  s.name = std::string(protocolName(kind)) + "/crash-sweep";
  s.config.groups = 3;
  s.config.procsPerGroup = 3;
  s.config.protocol = kind;
  s.latency = wanmc::testing::LatencyPreset::kWan;
  s.workload = workload::Spec::closedLoop(10, 90 * kMs, 2);
  s.randomCrashes = wanmc::testing::RandomCrashes{1, 50 * kMs, kSec, 0x101};
  s.runUntil = 900 * kSec;
  s.withDefaultExpectations();
  s.expect.minDeliveries = 1;  // the run must not stall entirely
  for (const auto& r : wanmc::testing::ScenarioRunner(s).sweepSeeds(1, 4))
    EXPECT_TRUE(r.ok()) << r.report();
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, CrashSweep,
    ::testing::ValuesIn(wanmc::testing::crashTolerantProtocols()),
    [](const auto& info) {
      return wanmc::testing::protocolTestName(info.param);
    });

}  // namespace
}  // namespace wanmc
