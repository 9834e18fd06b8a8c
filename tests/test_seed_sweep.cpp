// Randomized property tests: >=100 seeds per protocol stack, each seed a
// fresh workload plus (for crash-tolerant stacks) a fresh random crash
// schedule of up to f processes per group (f = strict minority, so
// consensus stays solvable). Every run is checked against the agreement /
// total-order invariants appropriate to the stack.
#include <gtest/gtest.h>

#include "testing/scenario.hpp"

namespace wanmc {
namespace {

using core::ProtocolKind;
using wanmc::testing::RandomCrashes;
using wanmc::testing::Scenario;
using wanmc::testing::ScenarioRunner;

constexpr int kSeeds = 100;

Scenario sweepScenario(ProtocolKind kind, bool withCrashes) {
  Scenario s;
  s.name = std::string(core::protocolName(kind)) +
           (withCrashes ? "/crash-sweep" : "/sweep");
  s.config.groups = 3;
  s.config.procsPerGroup = 3;
  s.config.protocol = kind;
  s.latency = wanmc::testing::LatencyPreset::kWan;
  s.workload = workload::Spec::closedLoop(6, 80 * kMs, 2);
  s.runUntil = 900 * kSec;
  if (withCrashes)
    s.randomCrashes = RandomCrashes{1, 50 * kMs, kSec, 0xc4a5};
  s.withDefaultExpectations();
  return s;
}

class SeedSweep : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(SeedSweep, HundredSeedsSatisfyOrderAndAgreement) {
  const ProtocolKind kind = GetParam();
  const bool crashes =
      wanmc::testing::traitsOf(kind).toleratesCrashes;
  auto results =
      ScenarioRunner(sweepScenario(kind, crashes)).sweepSeeds(1, kSeeds);
  ASSERT_EQ(results.size(), static_cast<size_t>(kSeeds));
  int failures = 0;
  for (const auto& r : results) {
    if (!r.ok()) {
      ++failures;
      ADD_FAILURE() << r.report();
    }
    if (failures >= 5) break;  // don't flood the log
  }
}

// The thread-pool sweep must be a pure reordering of work: same seeds,
// same results, byte-identical fingerprints, output ordered by seed.
TEST(ParallelSweep, MatchesSerialSweepByteForByte) {
  Scenario s = sweepScenario(ProtocolKind::kA1, true);
  s.runUntil = 30 * kSec;
  const int kCount = 8;
  auto serial = ScenarioRunner(s).sweepSeeds(1, kCount, /*jobs=*/1);
  auto parallel = ScenarioRunner(s).sweepSeeds(1, kCount, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].seed, parallel[i].seed);
    EXPECT_EQ(serial[i].name, parallel[i].name);
    EXPECT_EQ(serial[i].fingerprint, parallel[i].fingerprint)
        << "parallel sweep diverged at seed " << serial[i].seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, SeedSweep,
    ::testing::ValuesIn(wanmc::testing::allProtocols()),
    [](const auto& info) {
      return wanmc::testing::protocolTestName(info.param);
    });

}  // namespace
}  // namespace wanmc
