// Prefix order and the metrics Summary against their reference oracles
// (tests/oracle.hpp) over the full standard matrix: for every (protocol,
// scenario, seed) cell, verify::checkUniformPrefixOrder and
// checkPrefixOrderCorrectOnly (a trace replay into the streaming checker)
// must return exactly the violations the pairwise oracle returns, and the
// Recorder's Summary must equal the oracle's rebuild. Synthetic violating
// traces cover the positive (violation-reporting) paths, which real
// protocols never exercise, and pin the violation wording.
#include <gtest/gtest.h>

#include <string>

#include "oracle.hpp"
#include "testing/scenario.hpp"
#include "verify/streaming.hpp"

namespace wanmc {
namespace {

using core::ProtocolKind;
using testing::MatrixOptions;
using testing::ScenarioResult;
using verify::Violations;

constexpr ProtocolKind kAllProtocols[] = {
    ProtocolKind::kA1,        ProtocolKind::kFritzke98,
    ProtocolKind::kDelporte00, ProtocolKind::kRodrigues98,
    ProtocolKind::kViaBcast,  ProtocolKind::kSkeen87,
    ProtocolKind::kA2,        ProtocolKind::kSousa02,
    ProtocolKind::kVicente02, ProtocolKind::kDetMerge00,
};

// Both prefix-order verdicts of `r` against the pairwise oracle.
void expectOrderMatchesOracle(const core::RunResult& r,
                              const std::string& name = {}) {
  const auto ctx = r.checkContext();
  EXPECT_EQ(verify::checkUniformPrefixOrder(ctx),
            oracle::uniformPrefixOrder(ctx))
      << name;
  EXPECT_EQ(verify::checkPrefixOrderCorrectOnly(ctx),
            oracle::prefixOrderCorrectOnly(ctx))
      << name;
}

TEST(StreamingOrder, MatchesTraceCheckersOnFullStandardMatrix) {
  for (ProtocolKind kind : kAllProtocols) {
    for (const ScenarioResult& res :
         runStandardMatrix(kind, MatrixOptions{})) {
      expectOrderMatchesOracle(res.run, res.name);
      // The channel-substrate and bootstrap blocks are maintained by their
      // planes and injected at harvest — like lastAlgoSend they are not
      // reconstructible from the trace, so the oracle takes them verbatim.
      metrics::Summary expected = oracle::summarizeTrace(
          res.run.trace, res.run.topo, res.run.traffic,
          res.run.lastAlgoSend, res.run.endTime);
      expected.channels = res.run.metrics.channels;
      expected.bootstrap = res.run.metrics.bootstrap;
      EXPECT_EQ(res.run.metrics, expected) << res.name;
    }
  }
}

// ---------------------------------------------------------------------------
// Synthetic violating runs: the checker and the oracle must agree on the
// violation, its position, and its wording.
// ---------------------------------------------------------------------------

core::RunResult syntheticRun() {
  core::RunResult r;
  r.topo = Topology(2, 2);  // p0,p1 in g0; p2,p3 in g1
  r.correct = {0, 1, 2, 3};
  return r;
}

void cast(core::RunResult& r, MsgId m, ProcessId sender, GroupSet dest,
          SimTime when) {
  r.trace.casts.push_back(CastEvent{sender, m, dest, 0, when});
}

void deliver(core::RunResult& r, ProcessId p, MsgId m, SimTime when) {
  r.trace.deliveries.push_back(DeliveryEvent{p, m, 0, when, 0});
}

TEST(StreamingOrder, FlagsSwappedPairIdenticallyToOracle) {
  auto r = syntheticRun();
  const GroupSet both = GroupSet::of({0, 1});
  cast(r, 1, 0, both, 0);
  cast(r, 2, 2, both, 0);
  // p0 delivers m1 then m2; p2 delivers m2 then m1: divergence at pos 0.
  deliver(r, 0, 1, 10);
  deliver(r, 2, 2, 11);
  deliver(r, 0, 2, 12);
  deliver(r, 2, 1, 13);
  // p1 and p3 agree with p0.
  for (ProcessId p : {1, 3}) {
    deliver(r, p, 1, 20);
    deliver(r, p, 2, 21);
  }

  expectOrderMatchesOracle(r);
  // p2 disagrees with p0 and p1; p3 disagrees with p2.
  EXPECT_EQ(
      verify::checkUniformPrefixOrder(r.checkContext()),
      (Violations{
          "prefix order violated between p0 and p2 at position 0: m1 vs m2",
          "prefix order violated between p1 and p2 at position 0: m1 vs m2",
          "prefix order violated between p2 and p3 at position 0: m2 vs m1"}));

  // Fed live, the checker flags the divergence as soon as it happens.
  verify::StreamingOrderChecker checker(r.topo);
  for (const auto& c : r.trace.casts) checker.onCast(c);
  for (size_t i = 0; i < r.trace.deliveries.size(); ++i) {
    checker.onDeliver(r.trace.deliveries[i]);
    EXPECT_EQ(checker.anyViolation(), i >= 1) << "after delivery " << i;
  }
}

TEST(StreamingOrder, CorrectOnlyFiltersCrashedPairs) {
  auto r = syntheticRun();
  const GroupSet both = GroupSet::of({0, 1});
  cast(r, 1, 0, both, 0);
  cast(r, 2, 2, both, 0);
  // Only p3 disagrees, and p3 crashed.
  for (ProcessId p : {0, 1, 2}) {
    deliver(r, p, 1, 10);
    deliver(r, p, 2, 11);
  }
  deliver(r, 3, 2, 10);
  deliver(r, 3, 1, 11);
  r.correct = {0, 1, 2};

  expectOrderMatchesOracle(r);
  const auto ctx = r.checkContext();
  // Uniform: p3 counts.
  EXPECT_EQ(
      verify::checkUniformPrefixOrder(ctx),
      (Violations{
          "prefix order violated between p0 and p3 at position 0: m1 vs m2",
          "prefix order violated between p1 and p3 at position 0: m1 vs m2",
          "prefix order violated between p2 and p3 at position 0: m1 vs m2"}));
  // Correct-only: it does not.
  EXPECT_TRUE(verify::checkPrefixOrderCorrectOnly(ctx).empty());
}

TEST(StreamingOrder, DivergenceDeepInSequenceReportsPosition) {
  auto r = syntheticRun();
  const GroupSet both = GroupSet::of({0, 1});
  for (MsgId m = 1; m <= 6; ++m) cast(r, m, 0, both, 0);
  // All four processes agree on m1..m4; p0/p1 then deliver m5,m6 while
  // p2/p3 deliver m6,m5.
  for (ProcessId p : {0, 1, 2, 3})
    for (MsgId m = 1; m <= 4; ++m) deliver(r, p, m, 10 + m);
  for (ProcessId p : {0, 1}) {
    deliver(r, p, 5, 20);
    deliver(r, p, 6, 21);
  }
  for (ProcessId p : {2, 3}) {
    deliver(r, p, 6, 20);
    deliver(r, p, 5, 21);
  }

  expectOrderMatchesOracle(r);
  // The four cross pairs.
  EXPECT_EQ(
      verify::checkUniformPrefixOrder(r.checkContext()),
      (Violations{
          "prefix order violated between p0 and p2 at position 4: m5 vs m6",
          "prefix order violated between p0 and p3 at position 4: m5 vs m6",
          "prefix order violated between p1 and p2 at position 4: m5 vs m6",
          "prefix order violated between p1 and p3 at position 4: m5 vs m6"}));
}

TEST(StreamingOrder, PrefixTruncationIsNotAViolation) {
  auto r = syntheticRun();
  const GroupSet both = GroupSet::of({0, 1});
  cast(r, 1, 0, both, 0);
  cast(r, 2, 0, both, 1);
  // p2 stops after m1 (a strict prefix of p0's sequence): legal.
  deliver(r, 0, 1, 10);
  deliver(r, 0, 2, 11);
  deliver(r, 2, 1, 10);
  for (ProcessId p : {1, 3}) {
    deliver(r, p, 1, 12);
    deliver(r, p, 2, 13);
  }

  expectOrderMatchesOracle(r);
  EXPECT_TRUE(verify::checkUniformPrefixOrder(r.checkContext()).empty());
}

TEST(StreamingOrder, IgnoresNonAddresseesAndUnknownMessages) {
  auto r = syntheticRun();
  cast(r, 1, 0, GroupSet::of({0}), 0);  // g0 only
  deliver(r, 0, 1, 10);
  deliver(r, 1, 1, 11);
  deliver(r, 2, 1, 12);   // p2 is not an addressee (integrity's problem)
  deliver(r, 3, 99, 13);  // never cast
  expectOrderMatchesOracle(r);
  EXPECT_TRUE(verify::checkUniformPrefixOrder(r.checkContext()).empty());
}

}  // namespace
}  // namespace wanmc
