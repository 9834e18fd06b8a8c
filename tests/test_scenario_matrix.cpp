// Every protocol stack is exercised under the SAME crash/drop/seed matrix
// (testing::standardFaultMatrix): failure-free runs on three latency
// presets, random minority crashes, sender crashes, targeted and
// probabilistic omission faults, and crash+loss combinations — each swept
// over multiple seeds, with expectations derived from the protocol's
// published guarantees (uniform vs non-uniform, crash-tolerant or not).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "testing/scenario.hpp"

namespace wanmc {
namespace {

using core::ProtocolKind;

class ScenarioMatrix : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ScenarioMatrix, AllCellsSatisfyDerivedExpectations) {
  wanmc::testing::MatrixOptions opt;
  opt.seedsPerCell = 3;
  auto results = wanmc::testing::runStandardMatrix(GetParam(), opt);
  ASSERT_FALSE(results.empty());
  for (const auto& r : results) EXPECT_TRUE(r.ok()) << r.report();
}

TEST_P(ScenarioMatrix, EveryCellIsReproducible) {
  // One pass over the matrix at a single seed, run twice: byte-identical.
  wanmc::testing::MatrixOptions opt;
  opt.seedsPerCell = 1;
  auto a = wanmc::testing::runStandardMatrix(GetParam(), opt);
  auto b = wanmc::testing::runStandardMatrix(GetParam(), opt);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].fingerprint, b[i].fingerprint) << a[i].name;
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ScenarioMatrix,
    ::testing::ValuesIn(wanmc::testing::allProtocols()),
    [](const auto& info) {
      return wanmc::testing::protocolTestName(info.param);
    });

// Loss together with a crash, which no matrix cell combines: 3 x 3,
// 5% iid loss with reliable channels, and p7 crashing at 200 ms with its
// channel retransmissions. Every crash-tolerant stack must keep the full
// §2.2 suite. Sousa02 used to stall for ever at seeds 2, 4 and 7: a lost
// data copy of p7's last cast was never resent, and its SEQ did not carry
// the message.
class LossPlusCrash : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(LossPlusCrash, SenderCrashUnderLossKeepsTheSuite) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    core::RunConfig c;
    c.protocol = GetParam();
    c.groups = 3;
    c.procsPerGroup = 3;
    c.seed = seed;
    c.latency = sim::LatencyModel::fixed(kMs, 100 * kMs);
    c.lossRate = 0.05;
    c.stack.reliableChannels = true;
    core::Experiment ex(c);
    ex.crashAt(7, 200 * kMs);
    ex.addWorkload(workload::Spec::closedLoop(40, 40 * kMs, 2));
    const auto v = ex.run(3600 * kSec).checkAtomicSuite();
    EXPECT_TRUE(v.empty()) << "seed " << seed << ", " << v.size()
                           << " violations, first: " << v[0];
  }
}

INSTANTIATE_TEST_SUITE_P(
    CrashTolerantStacks, LossPlusCrash,
    ::testing::ValuesIn(wanmc::testing::crashTolerantProtocols()),
    [](const auto& info) {
      return wanmc::testing::protocolTestName(info.param);
    });

// The fault path of the benchmark (its a1_churn_arq setting) as one
// experiment: 3 x 3 with 1-2 ms / 95-110 ms links, 1% iid loss, reliable
// channels, the bootstrap plane and a 500 ms consensus round timeout;
// Poisson casts every 3 ms on average, each from one of the eight
// processes other than p4, to two random groups (A2: to all). p4 crashes
// at 2 s and comes back after `downtime`, a fresh incarnation that knows
// nothing of the consensus instances in flight. A group that waits for it
// to coordinate their round 1 sits out the 500 ms round timer, and the
// p99 then reads about 694 ms (A1, either outage) and 658 ms (A2). The
// 30 ms outage lies inside the oracle's 50 ms detection delay, so only an
// oracle that reports every recovery tells p4's groupmates. A2 stalls
// that way only at some seeds (at seed 1 its p99 reads 276 ms even so);
// seed 2 shows the stall in all three cases.
struct FaultPath {
  const char* name;
  ProtocolKind kind;
  SimTime downtime;
  SimTime p99Bound;
};

void PrintTo(const FaultPath& fp, std::ostream* os) { *os << fp.name; }

class FaultPathTail : public ::testing::TestWithParam<FaultPath> {};

// Nearest-rank p99 over every cast, from its due time to its last
// A-Deliver at a never-crashed process (deliveries happen only at
// addressees).
SimTime p99Latency(const core::RunResult& r) {
  std::unordered_map<MsgId, SimTime> last;
  for (const DeliveryEvent& d : r.trace.deliveries)
    if (r.correct.count(d.process) != 0)
      last[d.msg] = std::max(last[d.msg], d.when);
  std::vector<SimTime> lat;
  for (const CastEvent& c : r.trace.casts) lat.push_back(last[c.msg] - c.when);
  std::sort(lat.begin(), lat.end());
  return lat[(lat.size() * 99 + 99) / 100 - 1];
}

TEST_P(FaultPathTail, RejoinDoesNotStallTheTail) {
  const FaultPath& fp = GetParam();
  core::RunConfig c;
  c.protocol = fp.kind;
  c.groups = 3;
  c.procsPerGroup = 3;
  c.seed = 2;
  c.latency = sim::LatencyModel{kMs, 2 * kMs, 95 * kMs, 110 * kMs};
  c.lossRate = 0.01;
  c.stack.reliableChannels = true;
  c.stack.bootstrap.armed = true;
  c.stack.consensusRoundTimeout = 500 * kMs;
  const std::vector<ProcessId> senders = {0, 1, 2, 3, 5, 6, 7, 8};
  SplitMix64 rng(c.seed);
  std::vector<workload::TraceCast> casts;
  double due = 10 * kMs;
  for (int i = 0; i < 3000; ++i) {
    due += -std::log1p(-rng.uniform01()) * 3 * kMs;
    workload::TraceCast cast;
    cast.when = std::llround(due);
    cast.sender = senders[rng.next() % senders.size()];
    cast.dest = GroupSet::all(3);
    if (!core::isBroadcastProtocol(fp.kind))
      cast.dest.remove(static_cast<GroupId>(rng.next() % 3));
    casts.push_back(cast);
  }
  core::Experiment ex(c);
  ex.crashAt(4, 2 * kSec);
  ex.recoverAt(4, 2 * kSec + fp.downtime);
  ex.addWorkload(workload::Spec::traceReplay(std::move(casts)));
  const auto r = ex.run(3600 * kSec);
  const auto v = r.checkAtomicSuite();
  EXPECT_TRUE(v.empty()) << v.size() << " violations, first: " << v[0];
  ASSERT_EQ(r.trace.recoveries.size(), 1u);
  EXPECT_LT(p99Latency(r), fp.p99Bound);
}

INSTANTIATE_TEST_SUITE_P(
    Rejoin, FaultPathTail,
    ::testing::Values(FaultPath{"A1_DownOneSecond", ProtocolKind::kA1, kSec,
                                450 * kMs},
                      FaultPath{"A1_DownThirtyMs", ProtocolKind::kA1,
                                30 * kMs, 450 * kMs},
                      FaultPath{"A2_DownOneSecond", ProtocolKind::kA2, kSec,
                                300 * kMs}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace wanmc
