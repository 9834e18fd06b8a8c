// Differential backend test: every protocol stack runs one standard-matrix
// cell on BOTH execution backends and must satisfy the SAME verify::
// safety properties on each.
//
// The contract is property equality, not order equality: the threaded
// backend schedules on real threads with a real clock, so its interleaving
// (and hence the delivered order and the fingerprint) may legitimately
// differ from the sim oracle's. What may NOT differ is whether the
// paper's §2.2 properties hold — integrity, validity, agreement, prefix
// order are backend-independent obligations of the protocol, and a stack
// that satisfies them only under the simulator's cooperative scheduler is
// broken.
#include <gtest/gtest.h>

#include <optional>

#include "exec/context.hpp"
#include "oracle.hpp"
#include "testing/scenario.hpp"

namespace wanmc {
namespace {

using core::ProtocolKind;

// The first failure-free cell of the standard matrix: no crash schedule,
// no drops, no partitions — the axes the threaded backend (v1) rejects.
std::optional<testing::Scenario> failureFreeCell(ProtocolKind kind) {
  testing::MatrixOptions opt;
  opt.seedsPerCell = 1;
  for (auto& s : testing::standardFaultMatrix(kind, opt)) {
    const bool faulty = !s.crashes.empty() || s.randomCrashes.has_value() ||
                        !s.recoveries.empty() ||
                        s.randomRecoveries.has_value() || s.churn.has_value() ||
                        !s.partitions.empty() || !s.drops.empty();
    if (!faulty) return std::move(s);
  }
  return std::nullopt;
}

class ExecBackends : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ExecBackends, FailureFreeCellHoldsOnBothBackends) {
  auto cell = failureFreeCell(GetParam());
  ASSERT_TRUE(cell.has_value()) << "no failure-free cell in the matrix";

  testing::Scenario simCell = *cell;
  simCell.config.backend = exec::Backend::kSim;
  const auto simResult = testing::ScenarioRunner(simCell).run();
  EXPECT_TRUE(simResult.ok()) << "[sim] " << simResult.report();

  testing::Scenario thrCell = *cell;
  thrCell.config.backend = exec::Backend::kThreaded;
  const auto thrResult = testing::ScenarioRunner(thrCell).run();
  EXPECT_TRUE(thrResult.ok()) << "[threaded] " << thrResult.report();

  // Safety + liveness held on both; the workloads were identical, so the
  // delivery LEDGERS must agree even though the delivered orders need not:
  // same casts completed, same total number of deliveries.
  EXPECT_EQ(simResult.run.trace.casts.size(), thrResult.run.trace.casts.size());
  EXPECT_EQ(simResult.run.trace.deliveries.size(),
            thrResult.run.trace.deliveries.size());

  // The threaded Summary is a replay of the merged trace: it must equal the
  // oracle's independent rebuild, with the runtime's traffic and last
  // algorithmic send injected, and count every cast as completed.
  const core::RunResult& thr = thrResult.run;
  EXPECT_EQ(thr.metrics,
            oracle::summarizeTrace(thr.trace, thr.topo, thr.traffic,
                                   thr.lastAlgoSend, thr.endTime));
  EXPECT_EQ(thr.metrics.completed, thr.metrics.casts);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ExecBackends,
    ::testing::ValuesIn(wanmc::testing::allProtocols()),
    [](const auto& info) {
      return wanmc::testing::protocolTestName(info.param);
    });

}  // namespace
}  // namespace wanmc
