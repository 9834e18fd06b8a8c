// Cross-protocol integration tests: every protocol against the full safety
// suite on shared workloads, plus the paper's headline cross-protocol
// claims (lower bounds, multicast-vs-broadcast tradeoff).
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "testing/scenario.hpp"
#include "workload/generator.hpp"

namespace wanmc {
namespace {

using core::Experiment;
using core::ProtocolKind;
using core::RunConfig;

RunConfig cfg(ProtocolKind kind, int groups, int procs, uint64_t seed) {
  RunConfig c;
  c.groups = groups;
  c.procsPerGroup = procs;
  c.seed = seed;
  c.protocol = kind;
  c.latency = sim::LatencyModel{kMs, 2 * kMs, 95 * kMs, 110 * kMs};
  return c;
}

class AllProtocols : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(AllProtocols, SafetySuiteOnMixedWorkload) {
  const auto kind = GetParam();
  Experiment ex(cfg(kind, 3, 2, 21));
  ex.addWorkload(workload::Spec::closedLoop(10, 80 * kMs, 2));
  auto r = ex.run(600 * kSec);
  auto v = r.checkAtomicSuite();
  EXPECT_TRUE(v.empty()) << protocolName(kind) << ": " << v[0];
  EXPECT_EQ(r.trace.casts.size(), 10u);
}

TEST_P(AllProtocols, DeterministicAcrossReruns) {
  const auto kind = GetParam();
  auto runOnce = [&] {
    Experiment ex(cfg(kind, 2, 2, 33));
    ex.addWorkload(workload::Spec::closedLoop(8, 70 * kMs));
    auto r = ex.run(600 * kSec);
    std::string fingerprint;
    for (const auto& d : r.trace.deliveries)
      fingerprint += std::to_string(d.process) + ":" +
                     std::to_string(d.msg) + ":" + std::to_string(d.when) +
                     ";";
    return fingerprint;
  };
  EXPECT_EQ(runOnce(), runOnce());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllProtocols,
    ::testing::ValuesIn(wanmc::testing::allProtocols()),
    [](const auto& info) {
      return wanmc::testing::protocolTestName(info.param);
    });

// ---------------------------------------------------------------------------
// Empirical lower bound (Prop. 3.1/3.2): no genuine multicast run delivers
// a >= 2-group message below latency degree 2.
// ---------------------------------------------------------------------------

TEST(LowerBound, NoGenuineMulticastBeatsDegreeTwo) {
  for (ProtocolKind kind :
       {ProtocolKind::kA1, ProtocolKind::kFritzke98,
        ProtocolKind::kDelporte00, ProtocolKind::kRodrigues98,
        ProtocolKind::kSkeen87}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      Experiment ex(cfg(kind, 3, 2, seed));
      workload::Spec spec = workload::Spec::closedLoop(10, 50 * kMs, 2);
      spec.seed = seed;
      auto& w = ex.addWorkload(spec);
      auto r = ex.run(600 * kSec);
      const std::vector<MsgId>& ids = w.issued();
      for (MsgId id : ids) {
        const auto cast = r.trace.castOf(id);
        ASSERT_TRUE(cast.has_value());
        if (cast->dest.size() < 2) continue;
        auto deg = r.trace.latencyDegree(id);
        ASSERT_TRUE(deg.has_value());
        EXPECT_GE(*deg, 2) << protocolName(kind) << " seed " << seed;
      }
    }
  }
}

// A1 attains the bound: degree exactly 2, so the bound is tight (Thm 4.1).
TEST(LowerBound, A1AttainsDegreeTwo) {
  auto c = cfg(ProtocolKind::kA1, 2, 2, 2);
  c.latency = sim::LatencyModel::fixed(kMs / 10, 100 * kMs);  // best case
  Experiment ex(c);
  auto id = ex.castAt(kMs, 0, GroupSet::of({0, 1}), "x");
  auto r = ex.run();
  EXPECT_EQ(*r.trace.latencyDegree(id), 2);
}

// ---------------------------------------------------------------------------
// The intro's tradeoff: broadcast-based multicast wins on latency, genuine
// multicast wins on inter-group bandwidth when few groups are addressed.
// ---------------------------------------------------------------------------

TEST(Tradeoff, GenuineSavesBandwidthViaBcastSavesLatency) {
  const int groups = 4, procs = 2;
  auto runOne = [&](ProtocolKind kind, SimTime period) {
    auto c = cfg(kind, groups, procs, 3);
    c.latency = sim::LatencyModel::fixed(kMs / 10, 100 * kMs);
    Experiment ex(c);
    // Stream addressed to 2 of 4 groups.
    for (int i = 0; i < 20; ++i)
      ex.castAt(kMs + i * period, 0, GroupSet::of({0, 1}), "x");
    return ex.run(600 * kSec);
  };
  // Dense streams for the bandwidth comparison and via-bcast's warm-path
  // latency; a sparse stream for A1's per-message degree (Lamport clocks
  // are global, so overlapping messages inflate each other's spans).
  auto a1Dense = runOne(ProtocolKind::kA1, 40 * kMs);
  auto a1Sparse = runOne(ProtocolKind::kA1, 500 * kMs);
  auto viaDense = runOne(ProtocolKind::kViaBcast, 40 * kMs);
  ASSERT_TRUE(a1Dense.checkAtomicSuite().empty());
  ASSERT_TRUE(viaDense.checkAtomicSuite().empty());
  // Latency: via-bcast reaches degree 1, genuine A1 cannot go below 2.
  ASSERT_FALSE(viaDense.metrics.latencyDegrees.empty());
  ASSERT_FALSE(a1Sparse.metrics.latencyDegrees.empty());
  EXPECT_EQ(viaDense.metrics.latencyDegrees.begin()->first, 1);
  EXPECT_EQ(a1Sparse.metrics.latencyDegrees.begin()->first, 2);
  // Bandwidth: A1 involves only the 2 addressed groups; via-bcast ships
  // bundles among all 4 groups every round.
  EXPECT_LT(a1Dense.traffic.interAlgorithmic(),
            viaDense.traffic.interAlgorithmic());
}

// Atomic multicast really is harder than broadcast: A2 (broadcast) beats
// the genuine multicast latency bound.
TEST(Tradeoff, BroadcastBeatsGenuineMulticastLatency) {
  auto c = cfg(ProtocolKind::kA2, 2, 2, 4);
  c.latency = sim::LatencyModel::fixed(kMs / 10, 100 * kMs);
  Experiment ex(c);
  for (int i = 0; i < 20; ++i)
    ex.castAllAt(kMs + i * 40 * kMs, static_cast<ProcessId>(i % 4), "x");
  auto r = ex.run(600 * kSec);
  ASSERT_FALSE(r.metrics.latencyDegrees.empty());
  EXPECT_EQ(r.metrics.latencyDegrees.begin()->first, 1);
}

}  // namespace
}  // namespace wanmc
