// Stack-variant matrix tests: the core algorithms must be correct over
// EVERY substrate combination — the early-deciding consensus under both
// failure detectors (oracle and heartbeat), on regular and ragged
// topologies.
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace wanmc {
namespace {

using core::Experiment;
using core::ProtocolKind;
using core::RunConfig;

// `consensus` is always kEarly, the only kind. gtest prints a cell's
// parameter bytes into its ctest name, so the field keeps those names
// stable.
struct Variant {
  ProtocolKind protocol;
  consensus::ConsensusKind consensus;
  fd::FdKind fdKind;
};

class StackMatrix : public ::testing::TestWithParam<Variant> {};

RunConfig makeCfg(const Variant& v, int groups, int procs, uint64_t seed) {
  RunConfig c;
  c.groups = groups;
  c.procsPerGroup = procs;
  c.seed = seed;
  c.protocol = v.protocol;
  c.latency = sim::LatencyModel{kMs, 2 * kMs, 95 * kMs, 110 * kMs};
  c.stack.fdKind = v.fdKind;
  c.stack.fdHeartbeat = fd::HeartbeatFd::Params{20 * kMs, 100 * kMs};
  return c;
}

TEST_P(StackMatrix, FailureFreeWorkloadSafeAndComplete) {
  auto v = GetParam();
  Experiment ex(makeCfg(v, 3, 2, 5));
  ex.addWorkload(workload::Spec::closedLoop(10, 60 * kMs, 2));
  auto r = ex.run(120 * kSec);  // heartbeat FD never quiesces: bounded run
  auto errs = r.checkAtomicSuite();
  EXPECT_TRUE(errs.empty()) << errs[0];
  EXPECT_EQ(r.trace.casts.size(), 10u);
  // Every cast message was delivered by all its addressees.
  for (const auto& c : r.trace.casts) {
    size_t expected = 0;
    for (ProcessId p : r.topo.allProcesses())
      if (c.dest.contains(r.topo.group(p))) ++expected;
    size_t got = 0;
    for (const auto& d : r.trace.deliveries)
      if (d.msg == c.msg) ++got;
    EXPECT_EQ(got, expected) << "m" << c.msg;
  }
}

TEST_P(StackMatrix, SurvivesMinorityCrash) {
  auto v = GetParam();
  Experiment ex(makeCfg(v, 2, 3, 6));
  ex.crashAt(1, 100 * kMs);
  ex.crashAt(5, 200 * kMs);
  ex.addWorkload(workload::Spec::closedLoop(8, 90 * kMs, 2));
  auto r = ex.run(200 * kSec);
  auto ctx = r.checkContext();
  for (auto&& e : verify::checkUniformIntegrity(ctx)) ADD_FAILURE() << e;
  for (auto&& e : verify::checkValidity(ctx)) ADD_FAILURE() << e;
  for (auto&& e : verify::checkUniformAgreement(ctx)) ADD_FAILURE() << e;
  for (auto&& e : verify::checkUniformPrefixOrder(ctx)) ADD_FAILURE() << e;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, StackMatrix,
    ::testing::Values(
        Variant{ProtocolKind::kA1, consensus::ConsensusKind::kEarly,
                fd::FdKind::kOracle},
        Variant{ProtocolKind::kA1, consensus::ConsensusKind::kEarly,
                fd::FdKind::kHeartbeat},
        Variant{ProtocolKind::kA2, consensus::ConsensusKind::kEarly,
                fd::FdKind::kOracle},
        Variant{ProtocolKind::kA2, consensus::ConsensusKind::kEarly,
                fd::FdKind::kHeartbeat}),
    [](const auto& info) {
      const Variant& v = info.param;
      std::string name =
          v.protocol == ProtocolKind::kA1 ? "A1" : "A2";
      name += "_Early";
      name += v.fdKind == fd::FdKind::kOracle ? "_Oracle" : "_Heartbeat";
      return name;
    });

// ---------------------------------------------------------------------------
// Ragged topologies.
// ---------------------------------------------------------------------------

TEST(RaggedTopology, A1AcrossUnevenGroups) {
  RunConfig c;
  c.groupSizes = {1, 3, 2};
  c.protocol = ProtocolKind::kA1;
  c.latency = sim::LatencyModel{kMs, 2 * kMs, 95 * kMs, 110 * kMs};
  Experiment ex(c);
  ex.castAt(kMs, 0, GroupSet::of({0, 1}), "a");   // 1-proc group to 3-proc
  ex.castAt(50 * kMs, 1, GroupSet::of({1, 2}), "b");
  ex.castAt(90 * kMs, 5, GroupSet::of({0, 1, 2}), "c");
  auto r = ex.run(600 * kSec);
  auto v = r.checkAtomicSuite();
  EXPECT_TRUE(v.empty()) << v[0];
  EXPECT_EQ(r.topo.numProcesses(), 6);
  EXPECT_EQ(r.topo.groupSize(1), 3);
}

TEST(RaggedTopology, A2AcrossUnevenGroups) {
  RunConfig c;
  c.groupSizes = {2, 1, 3};
  c.protocol = ProtocolKind::kA2;
  c.latency = sim::LatencyModel{kMs, 2 * kMs, 95 * kMs, 110 * kMs};
  Experiment ex(c);
  for (int i = 0; i < 6; ++i)
    ex.castAllAt(kMs + i * 80 * kMs, static_cast<ProcessId>(i), "x");
  auto r = ex.run(600 * kSec);
  auto v = r.checkAtomicSuite();
  EXPECT_TRUE(v.empty()) << v[0];
  EXPECT_EQ(r.trace.deliveries.size(), 6u * 6u);
}

TEST(RaggedTopology, CrashInSingletonGroupBlocksOnlyLiveness) {
  // With a singleton group crashed, no multicast addressed to it can be
  // delivered (no correct process there — outside the paper's assumption),
  // but messages among the other groups still flow.
  RunConfig c;
  c.groupSizes = {1, 2, 2};
  c.protocol = ProtocolKind::kA1;
  c.latency = sim::LatencyModel{kMs, 2 * kMs, 95 * kMs, 110 * kMs};
  Experiment ex(c);
  ex.crashAt(0, 10 * kMs);
  ex.castAt(100 * kMs, 1, GroupSet::of({1, 2}), "ok");
  auto r = ex.run(60 * kSec);
  auto ctx = r.checkContext();
  for (auto&& e : verify::checkUniformIntegrity(ctx)) ADD_FAILURE() << e;
  for (auto&& e : verify::checkValidity(ctx)) ADD_FAILURE() << e;
  EXPECT_EQ(r.trace.deliveries.size(), 4u);
}

}  // namespace
}  // namespace wanmc
