// Tests for the trace/statistics export module and the Experiment API
// surface (workload generation, cumulative runs, config handling).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <sstream>

#include "core/experiment.hpp"
#include "core/export.hpp"
#include "core/run_options.hpp"
#include "testing/scenario.hpp"

namespace wanmc {
namespace {

using core::Experiment;
using core::ProtocolKind;
using core::RunConfig;

core::RunResult sampleRun() {
  RunConfig c;
  c.groups = 2;
  c.procsPerGroup = 2;
  c.protocol = ProtocolKind::kA1;
  c.latency = sim::LatencyModel::fixed(kMs, 100 * kMs);
  Experiment ex(c);
  ex.castAt(kMs, 0, GroupSet::of({0, 1}), "x");
  ex.castAt(300 * kMs, 2, GroupSet::of({1}), "y");
  return ex.run();
}

TEST(ExportCsv, DeliveriesHaveHeaderAndRows) {
  auto r = sampleRun();
  std::ostringstream os;
  core::writeDeliveriesCsv(r, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("process,group,msg,sender,destGroups,lamport,"
                     "simTimeUs,order"),
            std::string::npos);
  // m1 delivered at 4 processes, m2 at 2: header + 6 rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 7);
}

TEST(ExportJson, SummaryContainsAggregates) {
  auto r = sampleRun();
  std::ostringstream os;
  core::writeSummaryJson(r, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"processes\": 4"), std::string::npos);
  EXPECT_NE(out.find("\"casts\": 2"), std::string::npos);
  EXPECT_NE(out.find("\"deliveries\": 6"), std::string::npos);
  EXPECT_NE(out.find("\"latencyDegreeHistogram\""), std::string::npos);
  EXPECT_NE(out.find("\"safetyViolations\": []"), std::string::npos);
}

TEST(ExportJson, SummaryCarriesStreamingMetrics) {
  auto r = sampleRun();
  std::ostringstream os;
  core::writeSummaryJson(r, os);
  const std::string out = os.str();
  // The redesigned summary is built on RunResult::metrics: percentile
  // block (now with p99), rates, breakdowns, quiescence.
  EXPECT_NE(out.find("\"wallLatencyUs\""), std::string::npos);
  EXPECT_NE(out.find("\"p99\""), std::string::npos);
  EXPECT_NE(out.find("\"metrics\""), std::string::npos);
  EXPECT_NE(out.find("\"completed\": 2"), std::string::npos);
  EXPECT_NE(out.find("\"fullyDelivered\": 2"), std::string::npos);
  EXPECT_NE(out.find("\"goodputPerSec\""), std::string::npos);
  EXPECT_NE(out.find("\"perGroupLatencyUs\""), std::string::npos);
  EXPECT_NE(out.find("\"perDestSizeLatencyUs\""), std::string::npos);
  EXPECT_NE(out.find("\"quiescence\""), std::string::npos);
}

TEST(ExportCsv, LatencyCsvHasScopedPercentileRows) {
  auto r = sampleRun();
  std::ostringstream os;
  core::writeLatencyCsv(r, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("scope,key,count,p50_us,p90_us,p99_us,max_us,mean_us"),
            std::string::npos);
  EXPECT_NE(out.find("message,,2,"), std::string::npos);
  EXPECT_NE(out.find("delivery,,6,"), std::string::npos);
  EXPECT_NE(out.find("group,0,"), std::string::npos);
  EXPECT_NE(out.find("group,1,"), std::string::npos);
  // m1 addressed to 2 groups, m2 to 1: both destsize scopes present.
  EXPECT_NE(out.find("destsize,1,"), std::string::npos);
  EXPECT_NE(out.find("destsize,2,"), std::string::npos);
}

TEST(ExportJson, ViolationsAreReported) {
  // Hand-build a trace with a duplicate delivery.
  core::RunResult r;
  r.topo = Topology(1, 1);
  r.correct = {0};
  r.trace.casts.push_back(CastEvent{0, 1, GroupSet::of({0}), 0, 0});
  r.trace.deliveries.push_back(DeliveryEvent{0, 1, 0, 1, 0});
  r.trace.deliveries.push_back(DeliveryEvent{0, 1, 0, 2, 1});
  std::ostringstream os;
  core::writeSummaryJson(r, os);
  EXPECT_NE(os.str().find("2 times"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Experiment API surface.
// ---------------------------------------------------------------------------

TEST(ExperimentApi, WorkloadIsDeterministicPerSeed) {
  auto gen = [](uint64_t seed) {
    RunConfig c;
    c.groups = 3;
    c.procsPerGroup = 2;
    c.protocol = ProtocolKind::kA1;
    Experiment ex(c);
    workload::Spec spec = workload::Spec::closedLoop(10, 50 * kMs);
    spec.seed = seed;
    ex.addWorkload(spec);
    // Reactive generation: ids are allocated as arrivals fire, so the run
    // must drain the workload before the ids can be compared.
    auto r = ex.run(600 * kSec);
    EXPECT_EQ(r.trace.casts.size(), 10u);
    return ex.workloadIds();
  };
  EXPECT_EQ(gen(3), gen(3));
}

TEST(ExperimentApi, WorkloadRespectsDestGroupCount) {
  RunConfig c;
  c.groups = 4;
  c.procsPerGroup = 2;
  c.protocol = ProtocolKind::kA1;
  c.latency = sim::LatencyModel::fixed(kMs, 100 * kMs);
  Experiment ex(c);
  ex.addWorkload(workload::Spec::closedLoop(12, 50 * kMs, 3));
  auto r = ex.run(600 * kSec);
  ASSERT_EQ(r.trace.casts.size(), 12u);
  for (const auto& cst : r.trace.casts) {
    EXPECT_EQ(cst.dest.size(), 3);
    // The sender's own group is always addressed.
    EXPECT_TRUE(cst.dest.contains(r.topo.group(cst.process)));
  }
}

TEST(ExperimentApi, BroadcastProtocolsAlwaysGetFullDest) {
  RunConfig c;
  c.groups = 3;
  c.procsPerGroup = 1;
  c.protocol = ProtocolKind::kA2;
  c.latency = sim::LatencyModel::fixed(kMs, 100 * kMs);
  workload::Spec spec = workload::Spec::closedLoop(5, 50 * kMs, 1);
  c.workload = spec;  // via RunConfig: installed by the constructor
  Experiment ex(c);
  auto r = ex.run(600 * kSec);
  ASSERT_EQ(r.trace.casts.size(), 5u);
  for (const auto& cst : r.trace.casts) EXPECT_EQ(cst.dest.size(), 3);
}

TEST(ExperimentApi, RunMoreAccumulates) {
  RunConfig c;
  c.groups = 2;
  c.procsPerGroup = 2;
  c.protocol = ProtocolKind::kA2;
  c.latency = sim::LatencyModel::fixed(kMs, 100 * kMs);
  Experiment ex(c);
  ex.castAllAt(kMs, 0, "a");
  auto r1 = ex.run(5 * kSec);
  EXPECT_EQ(r1.trace.casts.size(), 1u);
  ex.castAllAt(6 * kSec, 1, "b");
  auto r2 = ex.run(20 * kSec);
  EXPECT_EQ(r2.trace.casts.size(), 2u);
  EXPECT_EQ(r2.trace.deliveries.size(), 8u);
}

// The protocol roster: every row sits at its kind's index, every CLI key
// round-trips, and the keys, test names and cited names are each unique.
TEST(ExperimentApi, ProtocolNamesAreUnique) {
  std::set<std::string> keys;
  std::set<std::string> testNames;
  std::set<std::string> cited;
  for (size_t i = 0; i < std::size(core::kProtocols); ++i) {
    const core::ProtocolInfo& p = core::kProtocols[i];
    // Row i holds enumerator i, so protocolInfo's indexing is sound.
    EXPECT_EQ(static_cast<size_t>(p.kind), i) << p.key;
    EXPECT_EQ(&core::protocolInfo(p.kind), &p) << p.key;
    EXPECT_EQ(core::protocolFromName(p.key), p.kind) << p.key;
    keys.insert(p.key);
    testNames.insert(p.testName);
    cited.insert(p.cited);
  }
  EXPECT_EQ(keys.size(), std::size(core::kProtocols));
  EXPECT_EQ(testNames.size(), std::size(core::kProtocols));
  EXPECT_EQ(cited.size(), std::size(core::kProtocols));
  // The name inside the golden fingerprint and paper-table keys.
  EXPECT_STREQ(wanmc::testing::protocolTestName(ProtocolKind::kDelporte00),
               "Ring");
}

TEST(ExperimentApi, CrashedSetReflectedInResult) {
  RunConfig c;
  c.groups = 2;
  c.procsPerGroup = 2;
  c.protocol = ProtocolKind::kA2;
  Experiment ex(c);
  ex.crashAt(3, 10 * kMs);
  auto r = ex.run(kSec);
  EXPECT_EQ(r.correct, (std::set<ProcessId>{0, 1, 2}));
}

}  // namespace
}  // namespace wanmc
