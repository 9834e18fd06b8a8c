// The trace checkers and the metrics Summary against their reference
// oracles (tests/oracle.hpp) over the full standard matrix: for every
// (protocol, scenario, seed) cell, verify::checkUniformPrefixOrder and
// checkPrefixOrderCorrectOnly (a trace replay into the streaming checker)
// must return exactly the violations the pairwise oracle returns; the
// integrity, validity, agreement and recovered-delivery checkers (dense bit
// tables) exactly what the set-based oracles return; and the Recorder's
// Summary must equal the oracle's rebuild. Real protocols violate nothing,
// so each cell's trace is also mutated by seeded faults (duplicated,
// dropped, unknown and misaddressed deliveries, an extra recovery, a
// process taken out of the correct set) and every checker must still match
// its oracle, word for word. Synthetic violating traces cover the
// prefix-order reporting paths and pin the violation wording.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "oracle.hpp"
#include "testing/scenario.hpp"
#include "verify/streaming.hpp"

namespace wanmc {
namespace {

using testing::MatrixOptions;
using testing::ScenarioResult;
using verify::Violations;

// Every trace checker's verdict on `ctx` against its oracle, and the whole
// suite (whose checks share one delivery table) against the oracles'
// concatenation.
void expectMatchesOracle(const verify::CheckContext& ctx,
                         const std::string& name = {}) {
  const Violations order = oracle::uniformPrefixOrder(ctx);
  const Violations integrity = oracle::uniformIntegrity(ctx);
  const Violations validity = oracle::validity(ctx);
  const Violations agreement = oracle::uniformAgreement(ctx);
  EXPECT_EQ(verify::checkUniformPrefixOrder(ctx), order) << name;
  EXPECT_EQ(verify::checkPrefixOrderCorrectOnly(ctx),
            oracle::prefixOrderCorrectOnly(ctx))
      << name;
  EXPECT_EQ(verify::checkUniformIntegrity(ctx), integrity) << name;
  EXPECT_EQ(verify::checkValidity(ctx), validity) << name;
  EXPECT_EQ(verify::checkUniformAgreement(ctx), agreement) << name;
  EXPECT_EQ(verify::checkAgreementCorrectOnly(ctx),
            oracle::agreementCorrectOnly(ctx))
      << name;
  EXPECT_EQ(verify::checkRecoveredDelivery(ctx),
            oracle::recoveredDelivery(ctx))
      << name;
  Violations suite = integrity;
  for (const Violations* v : {&validity, &agreement, &order})
    suite.insert(suite.end(), v->begin(), v->end());
  EXPECT_EQ(verify::checkAtomicSuite(ctx), suite) << name;
}

// A run's trace and correct set after one seeded fault.
struct Mutant {
  std::string name;
  RunTrace trace;
  std::set<ProcessId> correct;
};

// The seeded mutations of `r` the checkers are compared on.
std::vector<Mutant> mutantsOf(const core::RunResult& r, uint64_t seed) {
  SplitMix64 rng(seed);
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng.next() % n); };
  const auto& ds = r.trace.deliveries;
  const auto procs = static_cast<size_t>(r.topo.numProcesses());
  auto someProcess = [&] { return static_cast<ProcessId>(pick(procs)); };
  std::vector<Mutant> out;
  auto add = [&](const char* what, auto&& mutate) {
    Mutant m{what, r.trace, r.correct};
    mutate(m);
    out.push_back(std::move(m));
  };
  // Inserts a delivery of `msg` by `p` at a random position, at the time
  // of the delivery it displaces.
  auto insert = [&](Mutant& m, ProcessId p, MsgId msg) {
    auto& dv = m.trace.deliveries;
    const size_t at = pick(dv.size() + 1);
    const SimTime when = at < dv.size() ? dv[at].when : r.endTime;
    dv.insert(dv.begin() + static_cast<std::ptrdiff_t>(at),
              DeliveryEvent{p, msg, 0, when, 0});
  };
  auto at = [](std::vector<DeliveryEvent>& dv, size_t i) {
    return dv.begin() + static_cast<std::ptrdiff_t>(i);
  };

  if (!ds.empty()) {
    add("duplicate a delivery", [&](Mutant& m) {
      const size_t i = pick(ds.size());
      m.trace.deliveries.insert(at(m.trace.deliveries,
                                   i + 1 + pick(ds.size() - i)),
                                ds[i]);
    });
    add("drop a delivery", [&](Mutant& m) {
      m.trace.deliveries.erase(at(m.trace.deliveries, pick(ds.size())));
    });
  }
  add("deliver a never-cast id past the last cast, twice", [&](Mutant& m) {
    MsgId lastCast = 0;
    for (const CastEvent& c : r.trace.casts)
      lastCast = std::max(lastCast, c.msg);
    const ProcessId p = someProcess();
    const MsgId past = lastCast + 1 + pick(3);
    insert(m, p, past);
    insert(m, p, past);
  });
  add("deliver id 0", [&](Mutant& m) { insert(m, someProcess(), 0); });
  if (!r.trace.casts.empty()) {
    // A process outside the cast's destination delivers it; under a
    // broadcast, the cast loses one destination group instead, so that
    // group's deliveries of it are the misaddressed ones.
    add("deliver to a non-addressee", [&](Mutant& m) {
      CastEvent& c = m.trace.casts[pick(m.trace.casts.size())];
      const GroupSet outside(r.topo.allGroups().bits() & ~c.dest.bits());
      if (!outside.empty()) {
        const auto groups = outside.groups();
        const auto& members = r.topo.members(groups[pick(groups.size())]);
        insert(m, members[pick(members.size())], c.msg);
      } else if (c.dest.size() > 1) {
        const auto groups = c.dest.groups();
        c.dest.remove(groups[pick(groups.size())]);
      }
    });
  }
  add("insert a recovery", [&](Mutant& m) {
    const ProcessId p = someProcess();
    m.trace.recoveries.push_back(
        RecoveryEvent{p, ds.empty() ? 0 : ds[pick(ds.size())].when});
    m.correct.erase(p);  // a recovered process is not correct
  });
  if (!r.correct.empty()) {
    add("remove a process from correct", [&](Mutant& m) {
      m.correct.erase(std::next(
          m.correct.begin(),
          static_cast<std::ptrdiff_t>(pick(m.correct.size()))));
    });
  }
  return out;
}

TEST(StreamingOrder, MatchesTraceCheckersOnFullStandardMatrix) {
  uint64_t cell = 0;
  for (const core::ProtocolInfo& p : core::kProtocols) {
    for (const ScenarioResult& res :
         runStandardMatrix(p.kind, MatrixOptions{})) {
      expectMatchesOracle(res.run.checkContext(), res.name);
      for (const Mutant& m : mutantsOf(res.run, ++cell))
        expectMatchesOracle(
            verify::CheckContext{&m.trace, &res.run.topo, m.correct},
            res.name + " / " + m.name);
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

  expectMatchesOracle(r.checkContext());
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

  expectMatchesOracle(r.checkContext());
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

  expectMatchesOracle(r.checkContext());
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

  expectMatchesOracle(r.checkContext());
  EXPECT_TRUE(verify::checkUniformPrefixOrder(r.checkContext()).empty());
}

TEST(StreamingOrder, IgnoresNonAddresseesAndUnknownMessages) {
  auto r = syntheticRun();
  cast(r, 1, 0, GroupSet::of({0}), 0);  // g0 only
  deliver(r, 0, 1, 10);
  deliver(r, 1, 1, 11);
  deliver(r, 2, 1, 12);   // p2 is not an addressee (integrity's problem)
  deliver(r, 3, 99, 13);  // never cast
  expectMatchesOracle(r.checkContext());
  EXPECT_TRUE(verify::checkUniformPrefixOrder(r.checkContext()).empty());
}

}  // namespace
}  // namespace wanmc
