// Tests for the workload:: subsystem: arrival-model schedules, legacy
// closed-loop equivalence, Zipf skew, trace replay, spec serialization,
// the castAt/topology validation added alongside it, and golden-pinned
// fingerprints for ragged topologies under the open-loop models.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "golden_util.hpp"
#include "testing/scenario.hpp"
#include "workload/generator.hpp"

namespace wanmc {
namespace {

using core::Experiment;
using core::ProtocolKind;
using core::RunConfig;
using wanmc::testing::Scenario;
using wanmc::testing::ScenarioRunner;

RunConfig wanCfg(ProtocolKind kind, int groups, int procs, uint64_t seed) {
  RunConfig c;
  c.groups = groups;
  c.procsPerGroup = procs;
  c.seed = seed;
  c.protocol = kind;
  c.latency = sim::LatencyModel{kMs, 2 * kMs, 95 * kMs, 110 * kMs};
  return c;
}

RunConfig lanCfg(ProtocolKind kind, int groups, int procs, uint64_t seed) {
  RunConfig c = wanCfg(kind, groups, procs, seed);
  c.latency = sim::LatencyModel{kMs, 2 * kMs, kMs, 2 * kMs};
  return c;
}

// ---------------------------------------------------------------------------
// Closed loop: the legacy schedule, and the in-flight cap.
// ---------------------------------------------------------------------------

TEST(ClosedLoop, ReproducesLegacyRotatingSchedule) {
  // The uncapped closed loop must reproduce the retired scheduleWorkload()
  // schedule exactly: cast i at start + i*interval, sender and extra
  // destination groups drawn from SplitMix64(seed) in the legacy order.
  Experiment ex(wanCfg(ProtocolKind::kA1, 3, 2, 11));
  workload::Spec spec = workload::Spec::closedLoop(8, 50 * kMs, 2);
  spec.seed = 7;
  auto& w = ex.addWorkload(spec);
  auto r = ex.run(600 * kSec);

  ASSERT_EQ(r.trace.casts.size(), 8u);
  ASSERT_EQ(w.issued().size(), 8u);
  SplitMix64 rng(7);
  for (int i = 0; i < 8; ++i) {
    const auto& c = r.trace.casts[static_cast<size_t>(i)];
    EXPECT_EQ(c.when, 10 * kMs + i * 50 * kMs);
    const auto sender = static_cast<ProcessId>(rng.next() % 6);
    EXPECT_EQ(c.process, sender);
    GroupSet dest;
    dest.add(r.topo.group(sender));
    while (dest.size() < 2) dest.add(static_cast<GroupId>(rng.next() % 3));
    EXPECT_EQ(c.dest, dest);
    EXPECT_EQ(w.issued()[static_cast<size_t>(i)], c.msg);
  }
}

TEST(ClosedLoop, InFlightCapDefersArrivals) {
  // cap=1 with a 5ms think time on a WAN: every cast after the first must
  // wait for its predecessor's first delivery, so arrivals are spaced by
  // delivery latency (hundreds of ms), not by the nominal interval.
  Experiment ex(wanCfg(ProtocolKind::kA1, 2, 2, 3));
  workload::Spec spec = workload::Spec::closedLoop(5, 5 * kMs, 2);
  spec.inFlightCap = 1;
  ex.addWorkload(spec);
  auto r = ex.run(600 * kSec);

  ASSERT_EQ(r.trace.casts.size(), 5u);
  EXPECT_TRUE(r.checkAtomicSuite().empty());
  for (size_t i = 0; i + 1 < r.trace.casts.size(); ++i) {
    const MsgId prev = r.trace.casts[i].msg;
    SimTime firstDelivery = kTimeNever;
    for (const auto& d : r.trace.deliveries)
      if (d.msg == prev) firstDelivery = std::min(firstDelivery, d.when);
    ASSERT_NE(firstDelivery, kTimeNever);
    EXPECT_GE(r.trace.casts[i + 1].when, firstDelivery)
        << "cast " << i + 1 << " issued before cast " << i << " completed";
  }
}

// ---------------------------------------------------------------------------
// Open-loop models.
// ---------------------------------------------------------------------------

TEST(OpenLoop, FixedGapIgnoresDeliveryProgress) {
  Experiment ex(wanCfg(ProtocolKind::kA1, 2, 2, 5));
  workload::Spec spec;
  spec.model = workload::Model::kOpenLoopFixed;
  spec.count = 10;
  spec.meanGap = 7 * kMs;  // far below the WAN delivery latency
  ex.addWorkload(spec);
  auto r = ex.run(600 * kSec);
  ASSERT_EQ(r.trace.casts.size(), 10u);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(r.trace.casts[static_cast<size_t>(i)].when,
              10 * kMs + i * 7 * kMs);
  EXPECT_TRUE(r.checkAtomicSuite().empty());
}

TEST(OpenLoop, PoissonGapsJitterButReplayDeterministically) {
  auto runOnce = [] {
    Experiment ex(lanCfg(ProtocolKind::kSkeen87, 3, 1, 5));
    ex.addWorkload(workload::Spec::openLoopPoisson(30, 20 * kMs, 2));
    auto r = ex.run(600 * kSec);
    std::vector<SimTime> whens;
    for (const auto& c : r.trace.casts) whens.push_back(c.when);
    return whens;
  };
  const auto whens = runOnce();
  ASSERT_EQ(whens.size(), 30u);
  std::set<SimTime> gaps;
  for (size_t i = 1; i < whens.size(); ++i)
    gaps.insert(whens[i] - whens[i - 1]);
  EXPECT_GT(gaps.size(), 3u) << "Poisson arrivals should jitter";
  EXPECT_EQ(whens, runOnce()) << "same seed must replay the same schedule";
}

TEST(Bursty, HonorsOnOffPhases) {
  Experiment ex(lanCfg(ProtocolKind::kSkeen87, 3, 1, 5));
  workload::Spec spec;
  spec.model = workload::Model::kBursty;
  spec.count = 6;
  spec.onDuration = 20 * kMs;
  spec.offDuration = 300 * kMs;
  spec.burstGap = 10 * kMs;
  ex.addWorkload(spec);
  auto r = ex.run(600 * kSec);
  ASSERT_EQ(r.trace.casts.size(), 6u);
  const SimTime expected[] = {10 * kMs,  20 * kMs,  330 * kMs,
                              340 * kMs, 650 * kMs, 660 * kMs};
  for (size_t i = 0; i < 6; ++i)
    EXPECT_EQ(r.trace.casts[i].when, expected[i]) << "cast " << i;
}

// ---------------------------------------------------------------------------
// Skew and replay.
// ---------------------------------------------------------------------------

TEST(Zipf, SenderSkewConcentratesLoad) {
  Experiment ex(lanCfg(ProtocolKind::kSkeen87, 3, 2, 9));
  workload::Spec spec;
  spec.model = workload::Model::kOpenLoopFixed;
  spec.count = 200;
  spec.meanGap = 5 * kMs;
  spec.senderZipf = 2.0;
  ex.addWorkload(spec);
  auto r = ex.run(3600 * kSec);
  ASSERT_EQ(r.trace.casts.size(), 200u);
  std::map<ProcessId, int> bySender;
  for (const auto& c : r.trace.casts) ++bySender[c.process];
  // Under Zipf(2) over 6 processes, rank 0 carries ~65% of the mass; a
  // uniform draw would put ~33 casts on each sender.
  EXPECT_GT(bySender[0], 90);
  EXPECT_GT(bySender[0], 2 * bySender[1]);
}

TEST(Zipf, DestinationSkewFavorsPopularGroups) {
  Experiment ex(lanCfg(ProtocolKind::kSkeen87, 4, 1, 9));
  workload::Spec spec;
  spec.model = workload::Model::kOpenLoopFixed;
  spec.count = 200;
  spec.meanGap = 5 * kMs;
  spec.destGroups = 2;
  spec.destZipf = 1.5;
  ex.addWorkload(spec);
  auto r = ex.run(3600 * kSec);
  ASSERT_EQ(r.trace.casts.size(), 200u);
  std::map<GroupId, int> byGroup;
  for (const auto& c : r.trace.casts)
    for (GroupId g : c.dest.groups()) ++byGroup[g];
  // Group 0 is the popular destination; group 3 is only ever addressed as
  // a sender's own group or a rare tail draw.
  EXPECT_GT(byGroup[0], byGroup[3] * 2);
}

TEST(TraceReplay, ReplaysVerbatim) {
  Experiment ex(wanCfg(ProtocolKind::kA1, 2, 2, 4));
  std::vector<workload::TraceCast> trace = {
      {5 * kMs, 1, GroupSet::of({0})},
      {9 * kMs, 3, GroupSet::of({0, 1})},
      {13 * kMs, 0, GroupSet{}},  // empty = all groups
  };
  auto& w = ex.addWorkload(workload::Spec::traceReplay(trace));
  auto r = ex.run(600 * kSec);
  ASSERT_EQ(r.trace.casts.size(), 3u);
  EXPECT_EQ(w.issued().size(), 3u);
  EXPECT_EQ(r.trace.casts[0].when, 5 * kMs);
  EXPECT_EQ(r.trace.casts[0].process, 1);
  EXPECT_EQ(r.trace.casts[0].dest, GroupSet::of({0}));
  EXPECT_EQ(r.trace.casts[1].process, 3);
  EXPECT_EQ(r.trace.casts[1].dest, GroupSet::of({0, 1}));
  EXPECT_EQ(r.trace.casts[2].dest, r.topo.allGroups());
  EXPECT_TRUE(r.checkAtomicSuite().empty());
}

TEST(Workloads, LayeredGeneratorsCompose) {
  Experiment ex(wanCfg(ProtocolKind::kA1, 2, 2, 6));
  ex.addWorkload(workload::Spec::closedLoop(3, 40 * kMs, 2));
  ex.addWorkload(workload::Spec::traceReplay(
      {{15 * kMs, 2, GroupSet::of({1})}, {25 * kMs, 0, GroupSet::of({0})}}));
  auto r = ex.run(600 * kSec);
  EXPECT_EQ(r.trace.casts.size(), 5u);
  const std::vector<MsgId> ids = ex.workloadIds();
  EXPECT_EQ(ids.size(), 5u);
  std::set<MsgId> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), 5u);
  EXPECT_TRUE(r.checkAtomicSuite().empty());
}

// ---------------------------------------------------------------------------
// Spec serialization.
// ---------------------------------------------------------------------------

TEST(Spec, SerializationRoundTripsEveryModel) {
  std::vector<workload::Spec> specs;
  specs.push_back(workload::Spec::closedLoop(12, 30 * kMs, 3));
  specs.back().inFlightCap = 4;
  specs.back().senderZipf = 1.25;
  specs.push_back(workload::Spec::openLoopPoisson(50, 20 * kMs));
  specs.back().destZipf = 0.5;
  {
    workload::Spec s;
    s.model = workload::Model::kOpenLoopFixed;
    s.meanGap = 8 * kMs;
    s.seed = 99;
    specs.push_back(s);
  }
  {
    workload::Spec s;
    s.model = workload::Model::kBursty;
    s.onDuration = 50 * kMs;
    s.offDuration = 250 * kMs;
    s.burstGap = 2 * kMs;
    specs.push_back(s);
  }
  specs.push_back(workload::Spec::traceReplay(
      {{kMs, 0, GroupSet::of({0})}, {2 * kMs, 3, GroupSet{}}}));

  for (const workload::Spec& s : specs) {
    const std::string text = workload::toString(s);
    auto parsed = workload::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(*parsed, s) << text;
  }
}

TEST(Spec, ParseRejectsMalformedInput) {
  EXPECT_FALSE(workload::parse("").has_value());
  EXPECT_FALSE(workload::parse("warp-drive count=3").has_value());
  EXPECT_FALSE(workload::parse("closed-loop bogus=1").has_value());
  EXPECT_FALSE(workload::parse("closed-loop count=x").has_value());
  EXPECT_FALSE(workload::parse("trace cast=nonsense").has_value());
}

TEST(Spec, ParseRejectsKeysTheModelDoesNotRead) {
  // Each model-specific key is accepted only by the model that reads it.
  for (const char* text :
       {"open-fixed count=5 interval=20000", "open-poisson interval=20000",
        "open-poisson cap=2", "closed-loop mean=20000", "bursty mean=20000",
        "closed-loop gap=5000", "open-fixed on=100000 off=100000",
        "trace mean=20000", "closed-loop cast=1000:0:3"})
    EXPECT_FALSE(workload::parse(text).has_value()) << text;
  for (const char* text :
       {"closed-loop interval=20000 cap=2", "open-fixed mean=5",
        "open-poisson mean=20000", "bursty on=1 off=2 gap=3",
        "trace cast=1000:0:3"})
    EXPECT_TRUE(workload::parse(text).has_value()) << text;
}

TEST(Spec, DocumentedSpecStringsParse) {
  // The --workload-spec examples in README, ROADMAP and wanmc_cli's usage,
  // and the per-stack loss table's command.
  for (const char* text :
       {"open-poisson count=50 mean=20000",
        "open-poisson count=50 mean=20000 szipf=1.2",
        "open-poisson count=3000 mean=3000",
        "open-poisson count=20000 dest=2 mean=3000",
        "open-fixed count=100000 dest=2 mean=5",
        "open-poisson count=600 dest=3 mean=10000"})
    EXPECT_TRUE(workload::parse(text).has_value()) << text;
}

// ---------------------------------------------------------------------------
// Validation: castAt arguments and scale ceilings.
// ---------------------------------------------------------------------------

TEST(Validation, CastAtRejectsBadArguments) {
  Experiment ex(wanCfg(ProtocolKind::kA1, 2, 2, 1));
  EXPECT_THROW(ex.castAt(kMs, -1, GroupSet::of({0})),
               std::invalid_argument);
  EXPECT_THROW(ex.castAt(kMs, 4, GroupSet::of({0})),
               std::invalid_argument);  // pids are 0..3
  EXPECT_THROW(ex.castAt(kMs, 0, GroupSet{}), std::invalid_argument);
  EXPECT_THROW(ex.castAt(kMs, 0, GroupSet::of({0, 5})),
               std::invalid_argument);  // group 5 does not exist
  EXPECT_NO_THROW(ex.castAt(kMs, 0, GroupSet::of({0, 1})));
}

TEST(Validation, BroadcastProtocolsRequireFullGroupSet) {
  // DetMerge00 merges every event at every process, so a cast to some of
  // the groups is a multicast there, A-Delivered at its addressees only.
  for (ProtocolKind kind : {ProtocolKind::kA2, ProtocolKind::kSousa02,
                            ProtocolKind::kVicente02,
                            ProtocolKind::kDetMerge00}) {
    Experiment ex(wanCfg(kind, 3, 1, 1));
    const char* name = core::protocolName(kind);
    if (kind == ProtocolKind::kDetMerge00) {
      EXPECT_NO_THROW(ex.castAt(kMs, 0, GroupSet::of({0, 1}))) << name;
    } else {
      EXPECT_THROW(ex.castAt(kMs, 0, GroupSet::of({0, 1})),
                   std::invalid_argument)
          << name;
    }
    EXPECT_NO_THROW(ex.castAllAt(kMs, 0)) << name;
  }
}

TEST(Validation, TopologyRejectsGroupSetCeiling) {
  EXPECT_THROW(Topology(65, 1), std::invalid_argument);
  EXPECT_THROW(Topology(std::vector<int>(70, 2)), std::invalid_argument);
  EXPECT_THROW(Topology({2, 0, 2}), std::invalid_argument);
  EXPECT_NO_THROW(Topology(64, 1));
}

TEST(Validation, RodriguesAcceptsWorkloadsPastTwoToTheTwenty) {
  // Rodrigues98 scopes each message's consensus as kScopeBase + msgId:
  // distinct ids get distinct scopes, and the stack runs no group-scoped
  // consensus for them to meet, so its id space is as large as any other
  // stack's. A 2^20-cast workload installs, batched or not.
  const workload::Spec spec = workload::Spec::closedLoop(1 << 20, kMs, 2);
  RunConfig plain = wanCfg(ProtocolKind::kRodrigues98, 2, 2, 1);
  EXPECT_NO_THROW(Experiment(plain).addWorkload(spec));
  RunConfig batched = plain;
  batched.stack.batchWindow = 50 * kMs;
  batched.stack.batchMaxSize = 4;
  EXPECT_NO_THROW(Experiment(batched).addWorkload(spec));
}

TEST(ClosedLoop, CrashedSenderDoesNotWedgeTheCap) {
  // A cast whose sender already crashed is suppressed (the id is consumed,
  // nothing is sent): it must not count as in-flight, or a cap-1 loop
  // would wait forever for a delivery that cannot happen.
  Experiment ex(wanCfg(ProtocolKind::kA1, 2, 3, 2));
  ex.crashAt(0, kMs);
  workload::Spec spec = workload::Spec::closedLoop(12, 5 * kMs, 2);
  spec.inFlightCap = 1;
  ex.addWorkload(spec);
  auto r = ex.run(600 * kSec);
  // Every arrival fired; casts by the crashed pid 0 are absent from the
  // trace but the loop kept going.
  EXPECT_EQ(ex.workloadIds().size(), 12u);
  EXPECT_GE(r.trace.casts.size(), 8u);
  EXPECT_LT(r.trace.casts.size(), 12u)
      << "seed 2 must draw the crashed sender at least once for this test "
         "to bite; pick another seed if the workload RNG changes";
  EXPECT_TRUE(r.checkAtomicSuite().empty());
}

TEST(Bursty, MidRunInstallNeverRewindsTheClock) {
  // Installing a workload whose phase anchor lies in the past must clamp
  // arrivals to the present; a rewound scheduler clock would corrupt
  // every latency stat downstream.
  Experiment ex(wanCfg(ProtocolKind::kA1, 2, 2, 8));
  ex.run(5 * kSec);  // advance the clock past spec.start
  workload::Spec spec;
  spec.model = workload::Model::kBursty;
  spec.count = 6;
  spec.onDuration = 20 * kMs;
  spec.offDuration = 300 * kMs;
  spec.burstGap = 10 * kMs;
  ex.addWorkload(spec);  // start = 10ms, long gone
  auto r = ex.run(600 * kSec);
  ASSERT_EQ(r.trace.casts.size(), 6u);
  SimTime prev = 5 * kSec;
  for (const auto& c : r.trace.casts) {
    EXPECT_GE(c.when, prev) << "cast timestamps must be monotone";
    prev = c.when;
  }
}

// ---------------------------------------------------------------------------
// Ragged topologies x open-loop/skewed/capped models, swept over seeds and
// pinned to golden fingerprints (tests/golden/workload_fingerprints.txt).
// ---------------------------------------------------------------------------

std::map<std::string, uint64_t> raggedWorkloadCells() {
  struct ModelCase {
    const char* tag;
    workload::Spec spec;
  };
  std::vector<ModelCase> models;
  {
    workload::Spec s = workload::Spec::openLoopPoisson(6, 60 * kMs, 2);
    models.push_back({"open-poisson", s});
  }
  {
    workload::Spec s;
    s.model = workload::Model::kBursty;
    s.count = 6;
    s.onDuration = 60 * kMs;
    s.offDuration = 250 * kMs;
    s.burstGap = 15 * kMs;
    models.push_back({"bursty", s});
  }
  {
    workload::Spec s = workload::Spec::closedLoop(6, 60 * kMs, 2);
    s.senderZipf = 1.2;
    s.destZipf = 0.8;
    models.push_back({"skew-zipf", s});
  }
  {
    workload::Spec s = workload::Spec::closedLoop(6, 20 * kMs, 2);
    s.inFlightCap = 2;
    models.push_back({"closed-cap2", s});
  }

  const std::vector<std::vector<int>> topologies = {{4, 1, 3}, {2, 5, 1, 2}};
  std::map<std::string, uint64_t> out;
  for (ProtocolKind kind : {ProtocolKind::kA1, ProtocolKind::kA2}) {
    for (const auto& sizes : topologies) {
      std::string topoTag = "topo";
      for (int n : sizes) {
        topoTag += '-';  // appended separately: GCC 12 -Wrestrict false
        topoTag += std::to_string(n);  // positive on the operator+ form
      }
      for (const ModelCase& m : models) {
        Scenario s;
        s.name = std::string(wanmc::testing::protocolTestName(kind)) + "/" +
                 topoTag + "/" + m.tag;
        s.config.groupSizes = sizes;
        s.config.protocol = kind;
        s.latency = wanmc::testing::LatencyPreset::kWan;
        s.workload = m.spec;
        s.runUntil = 900 * kSec;
        s.withDefaultExpectations();
        s.expect.minDeliveries = 1;
        for (const auto& r : ScenarioRunner(s).sweepSeeds(1, 2)) {
          EXPECT_TRUE(r.ok()) << r.report();
          out[r.name] = wanmc::testing::fnv1a64(r.fingerprint);
        }
      }
    }
  }
  return out;
}

TEST(RaggedWorkloads, GoldenFingerprintsPinned) {
  wanmc::testing::checkOrRegenGolden(
      std::string(WANMC_SOURCE_DIR) + "/tests/golden/workload_fingerprints.txt",
      raggedWorkloadCells());
}

}  // namespace
}  // namespace wanmc
