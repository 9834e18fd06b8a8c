// Unit tests for the failure detectors.
#include <gtest/gtest.h>

#include <memory>

#include "fd/failure_detector.hpp"
#include "sim/runtime.hpp"

namespace wanmc {
namespace {

class FdHost final : public sim::Node {
 public:
  FdHost(sim::Runtime& rt, ProcessId pid, fd::FdKind kind,
         SimTime oracleDelay, fd::HeartbeatFd::Params hb)
      : sim::Node(rt, pid) {
    det = fd::makeFd(kind, rt, pid, rt.topology().members(gid()),
                     oracleDelay, hb);
    det->onSuspicion([this](ProcessId p) { suspicions.push_back(p); });
  }
  void onStart() override { det->start(); }
  void onMessage(ProcessId from, const PayloadPtr& p) override {
    det->onMessage(from, *p);
  }
  std::unique_ptr<fd::FailureDetector> det;
  std::vector<ProcessId> suspicions;
};

struct Fixture {
  Fixture(int procs, fd::FdKind kind, SimTime oracleDelay = 0,
          fd::HeartbeatFd::Params hb = {})
      : rt(Topology(1, procs), sim::LatencyModel::fixed(kMs, 100 * kMs), 1) {
    for (ProcessId p = 0; p < procs; ++p) {
      auto n = std::make_unique<FdHost>(rt, p, kind, oracleDelay, hb);
      hosts.push_back(n.get());
      rt.attach(p, std::move(n));
    }
    rt.start();
  }
  sim::Runtime rt;
  std::vector<FdHost*> hosts;
};

TEST(OracleFd, NoSuspicionWithoutCrash) {
  Fixture f(3, fd::FdKind::kOracle);
  f.rt.run(kSec);
  for (auto* h : f.hosts) {
    EXPECT_TRUE(h->suspicions.empty());
    for (ProcessId p = 0; p < 3; ++p) EXPECT_FALSE(h->det->suspects(p));
  }
}

TEST(OracleFd, SuspectsAfterCrashImmediately) {
  Fixture f(3, fd::FdKind::kOracle, /*oracleDelay=*/0);
  f.rt.crash(1);
  f.rt.run(kSec);
  EXPECT_TRUE(f.hosts[0]->det->suspects(1));
  EXPECT_TRUE(f.hosts[2]->det->suspects(1));
  EXPECT_EQ(f.hosts[0]->suspicions, std::vector<ProcessId>{1});
}

TEST(OracleFd, DetectionDelayIsHonored) {
  Fixture f(2, fd::FdKind::kOracle, /*oracleDelay=*/50 * kMs);
  f.rt.scheduleCrash(1, 10 * kMs);
  f.rt.run(30 * kMs);
  EXPECT_FALSE(f.hosts[0]->det->suspects(1));
  f.rt.run(200 * kMs);
  EXPECT_TRUE(f.hosts[0]->det->suspects(1));
}

TEST(OracleFd, SendsNoMessages) {
  Fixture f(3, fd::FdKind::kOracle);
  f.rt.crash(2);
  f.rt.run(kSec);
  EXPECT_EQ(f.rt.traffic().at(Layer::kFailureDetector).total(), 0u);
}

TEST(HeartbeatFd, NoFalseSuspicionInQuietSystem) {
  fd::HeartbeatFd::Params hb{20 * kMs, 80 * kMs};
  Fixture f(3, fd::FdKind::kHeartbeat, 0, hb);
  f.rt.run(2 * kSec);
  for (auto* h : f.hosts) EXPECT_TRUE(h->suspicions.empty());
}

TEST(HeartbeatFd, DetectsCrashWithinTimeout) {
  fd::HeartbeatFd::Params hb{20 * kMs, 80 * kMs};
  Fixture f(3, fd::FdKind::kHeartbeat, 0, hb);
  f.rt.scheduleCrash(1, 500 * kMs);
  f.rt.run(2 * kSec);
  EXPECT_TRUE(f.hosts[0]->det->suspects(1));
  EXPECT_TRUE(f.hosts[2]->det->suspects(1));
  EXPECT_FALSE(f.hosts[0]->det->suspects(2));
}

TEST(HeartbeatFd, GeneratesPeriodicTraffic) {
  fd::HeartbeatFd::Params hb{20 * kMs, 80 * kMs};
  Fixture f(2, fd::FdKind::kHeartbeat, 0, hb);
  f.rt.run(kSec);
  // ~50 ticks x 2 processes x 1 peer each.
  const auto total = f.rt.traffic().at(Layer::kFailureDetector).total();
  EXPECT_GT(total, 80u);
  EXPECT_LT(total, 120u);
}

// ---------------------------------------------------------------------------
// Cross-group scoping (fault plane v2): per-remote-group heartbeat lanes,
// suspicion retraction on recovery and partition heal.
// ---------------------------------------------------------------------------

// A host whose detector monitors its own group PLUS every remote group
// (the widened scope a cross-group consensus stack like Rodrigues uses).
class ScopedFdHost final : public sim::Node {
 public:
  ScopedFdHost(sim::Runtime& rt, ProcessId pid, fd::FdKind kind,
               SimTime oracleDelay)
      : sim::Node(rt, pid) {
    det = fd::makeFd(kind, rt, pid, rt.topology().members(gid()),
                     oracleDelay,
                     fd::HeartbeatFd::Params{20 * kMs, 80 * kMs});
    for (GroupId g = 0; g < rt.topology().numGroups(); ++g)
      if (g != gid()) det->addRemoteGroup(g, rt.topology().members(g));
    det->onSuspicion([this](ProcessId p) { suspicions.push_back(p); });
    det->onRetraction([this](ProcessId p, bool fresh) {
      retractions.push_back(p);
      retractionFresh.push_back(fresh ? 1 : 0);
      retractionAt.push_back(runtime().now());
    });
  }
  void onStart() override { det->start(); }
  void onMessage(ProcessId from, const PayloadPtr& p) override {
    det->onMessage(from, *p);
  }
  std::unique_ptr<fd::FailureDetector> det;
  std::vector<ProcessId> suspicions;
  std::vector<ProcessId> retractions;
  std::vector<uint8_t> retractionFresh;  // parallel to retractions
  std::vector<SimTime> retractionAt;     // parallel to retractions
};

struct ScopedFixture {
  ScopedFixture(int groups, int procs, fd::FdKind kind,
                SimTime oracleDelay = 0)
      : rt(Topology(groups, procs),
           sim::LatencyModel::fixed(kMs, 100 * kMs), 1) {
    for (ProcessId p = 0; p < groups * procs; ++p) {
      auto n = std::make_unique<ScopedFdHost>(rt, p, kind, oracleDelay);
      hosts.push_back(n.get());
      rt.attach(p, std::move(n));
    }
    rt.setNodeFactory([this, kind, oracleDelay](ProcessId p) {
      auto n = std::make_unique<ScopedFdHost>(rt, p, kind, oracleDelay);
      hosts[static_cast<size_t>(p)] = n.get();
      return n;
    });
    rt.start();
  }
  sim::Runtime rt;
  std::vector<ScopedFdHost*> hosts;
};

TEST(HeartbeatFdScoped, SuspectsRemoteGroupCrash) {
  // g0 = {0,1}, g1 = {2,3}: p0 must learn of p2's crash through its
  // remote lane — the pre-v2 detector (own-group scope) never would.
  ScopedFixture f(2, 2, fd::FdKind::kHeartbeat);
  f.rt.scheduleCrash(2, 500 * kMs);
  f.rt.run(2 * kSec);
  EXPECT_TRUE(f.hosts[0]->det->suspects(2));
  EXPECT_TRUE(f.hosts[1]->det->suspects(2));
  EXPECT_TRUE(f.hosts[3]->det->suspects(2));  // own group still works
  EXPECT_FALSE(f.hosts[0]->det->suspects(3));
}

TEST(HeartbeatFdScoped, NoFalseSuspicionAcrossAliveLinks) {
  // Partition g0 away: g1 and g2 stay connected to each other. g1 may
  // (correctly) suspect the unreachable g0 processes, but must never
  // suspect g2's — their link is alive — and g0's members must not
  // suspect EACH OTHER (the intra lane never crossed the cut).
  ScopedFixture f(3, 2, fd::FdKind::kHeartbeat);
  f.rt.partition(GroupSet::single(0), 100 * kMs, kTimeNever);
  f.rt.run(3 * kSec);
  for (ProcessId p : {2, 3, 4, 5}) {
    EXPECT_FALSE(f.hosts[2]->det->suspects(p)) << "p" << p;
    EXPECT_FALSE(f.hosts[4]->det->suspects(p)) << "p" << p;
  }
  EXPECT_TRUE(f.hosts[2]->det->suspects(0));  // cut side IS unreachable
  EXPECT_FALSE(f.hosts[0]->det->suspects(1));  // intra lane unaffected
  EXPECT_TRUE(f.hosts[0]->det->suspects(2));  // and symmetric outward
}

TEST(HeartbeatFdScoped, RetractsAfterHeal) {
  ScopedFixture f(2, 2, fd::FdKind::kHeartbeat);
  f.rt.partition(GroupSet::single(0), 100 * kMs, 1500 * kMs);
  f.rt.run(1200 * kMs);
  ASSERT_TRUE(f.hosts[0]->det->suspects(2));  // suspected during the cut
  f.rt.run(3 * kSec);  // heal at 1.5s: heartbeats flow again
  EXPECT_FALSE(f.hosts[0]->det->suspects(2));
  EXPECT_FALSE(f.hosts[2]->det->suspects(0));
  // The rehabilitation was signalled, not just flag-cleared — and marked
  // as a SAME-incarnation rehabilitation: the peer kept its state.
  ASSERT_FALSE(f.hosts[0]->retractions.empty());
  EXPECT_EQ(f.hosts[0]->retractions[0],
            f.hosts[0]->suspicions[0]);
  EXPECT_EQ(f.hosts[0]->retractionFresh[0], 0);
}

TEST(HeartbeatFdScoped, RecoverDuringPartitionIsReportedFresh) {
  // Regression (PR 6): p0 crashes AND recovers entirely inside a
  // partition window, so no timeout-based evidence distinguishes it from
  // a process that was merely unreachable. Before heartbeats carried the
  // sender incarnation, the post-heal retraction was indistinguishable
  // from a rehabilitation and state-re-introduction layers (Rodrigues
  // kData re-sends) would wrongly assume p0 kept its pre-crash state.
  ScopedFixture f(2, 2, fd::FdKind::kHeartbeat);
  f.rt.partition(GroupSet::single(0), 100 * kMs, 2 * kSec);
  f.rt.scheduleCrash(0, 500 * kMs);
  f.rt.scheduleRecover(0, 1 * kSec);  // reborn while still cut off
  f.rt.run(1800 * kMs);
  ASSERT_TRUE(f.hosts[2]->det->suspects(0));  // unreachable during cut
  f.rt.run(5 * kSec);  // heal: the fresh incarnation's heartbeats flow
  EXPECT_FALSE(f.hosts[2]->det->suspects(0));
  ASSERT_FALSE(f.hosts[2]->retractions.empty());
  ASSERT_EQ(f.hosts[2]->retractions[0], 0);
  EXPECT_EQ(f.hosts[2]->retractionFresh[0], 1) << "recover-during-"
      "partition must be reported as a fresh incarnation, not a "
      "rehabilitation";
  // Contrast on the same run: p2's own group peer p3 never saw p0's lane
  // drop... while p1 (same side of the cut, same group as p0) watched the
  // crash directly: its intra lane timed out and the recovery heartbeats
  // carry the new incarnation too.
  ASSERT_FALSE(f.hosts[1]->retractions.empty());
  EXPECT_EQ(f.hosts[1]->retractions[0], 0);
  EXPECT_EQ(f.hosts[1]->retractionFresh[0], 1);
}

TEST(HeartbeatFdScoped, RetractsAfterRecovery) {
  ScopedFixture f(2, 2, fd::FdKind::kHeartbeat);
  f.rt.scheduleCrash(2, 200 * kMs);
  f.rt.scheduleRecover(2, 1500 * kMs);
  f.rt.run(1200 * kMs);
  ASSERT_TRUE(f.hosts[0]->det->suspects(2));
  ASSERT_TRUE(f.hosts[3]->det->suspects(2));
  f.rt.run(4 * kSec);  // recovered: fresh heartbeats rehabilitate
  EXPECT_FALSE(f.hosts[0]->det->suspects(2));
  EXPECT_FALSE(f.hosts[3]->det->suspects(2));
  // ... and the heartbeats betray the new incarnation.
  ASSERT_FALSE(f.hosts[0]->retractions.empty());
  EXPECT_EQ(f.hosts[0]->retractionFresh[0], 1);
  // The fresh incarnation's own detector starts clean and suspects
  // nobody who is alive.
  for (ProcessId p = 0; p < 4; ++p)
    EXPECT_FALSE(f.hosts[2]->det->suspects(p)) << "p" << p;
}

TEST(OracleFd, RetractsOnRecoveryAndSeedsLateDetectors) {
  ScopedFixture f(2, 2, fd::FdKind::kOracle);
  f.rt.scheduleCrash(2, 100 * kMs);
  f.rt.scheduleRecover(2, 500 * kMs);
  f.rt.run(300 * kMs);
  ASSERT_TRUE(f.hosts[0]->det->suspects(2));
  f.rt.run(kSec);
  // Retraction at the instant of recovery — the oracle reads the truth.
  EXPECT_FALSE(f.hosts[0]->det->suspects(2));
  EXPECT_EQ(f.hosts[0]->retractions, std::vector<ProcessId>{2});
  // A detector constructed mid-run (the recovered node's) is seeded with
  // the processes that are crashed at construction time.
  ScopedFixture g(2, 2, fd::FdKind::kOracle);
  g.rt.scheduleCrash(0, 100 * kMs);
  g.rt.scheduleCrash(2, 150 * kMs);
  g.rt.scheduleRecover(2, 400 * kMs);  // p0 still down at p2's rebirth
  g.rt.run(2 * kSec);
  EXPECT_TRUE(g.hosts[2]->det->suspects(0));
  EXPECT_FALSE(g.hosts[2]->det->suspects(1));
}

TEST(OracleFd, RecoveryInsideTheDetectionDelayRetractsFresh) {
  // p2 crashes at 200 ms and recovers at 220 ms, inside the 50 ms
  // detection delay, so nobody ever suspects it. Every live peer must
  // still learn of the fresh incarnation, once and at the instant of the
  // recovery, as HeartbeatFd reports an incarnation advance it never
  // timed out on (next test). Without it, nobody would know that p2 lost
  // its state: no bootstrap donor would announce itself, and consensus
  // would wait for p2 to coordinate rounds it knows nothing of.
  ScopedFixture f(2, 2, fd::FdKind::kOracle, /*oracleDelay=*/50 * kMs);
  f.rt.scheduleCrash(2, 200 * kMs);
  f.rt.scheduleRecover(2, 220 * kMs);
  f.rt.run(kSec);
  for (ProcessId p : {0, 1, 3}) {
    const ScopedFdHost& h = *f.hosts[static_cast<size_t>(p)];
    EXPECT_TRUE(h.suspicions.empty()) << "p" << p;
    ASSERT_EQ(h.retractions, std::vector<ProcessId>{2}) << "p" << p;
    EXPECT_EQ(h.retractionFresh[0], 1) << "p" << p;
    EXPECT_EQ(h.retractionAt[0], 220 * kMs) << "p" << p;
    EXPECT_FALSE(h.det->suspects(2)) << "p" << p;
  }
}

TEST(HeartbeatFdScoped, FastRecoveryWhileUnsuspectedStillRetractsFresh) {
  // Regression (PR 7): p2 crashes and recovers FASTER than any lane's
  // timeout can notice (intra timeout 80ms, crash window 30ms), so no
  // peer ever suspects it. The fresh incarnation's first heartbeat must
  // still fire onRetraction(fresh=true) — without it, the Rodrigues-style
  // state-re-introduction hooks would never learn the amnesiac rejoined
  // until some unrelated suspicion cycle happened to fire.
  ScopedFixture f(2, 2, fd::FdKind::kHeartbeat);
  f.rt.scheduleCrash(2, 200 * kMs);
  f.rt.scheduleRecover(2, 230 * kMs);
  f.rt.run(2 * kSec);
  // Own-group peer p3: never suspected, yet told about the incarnation.
  EXPECT_TRUE(f.hosts[3]->suspicions.empty());
  ASSERT_FALSE(f.hosts[3]->retractions.empty());
  EXPECT_EQ(f.hosts[3]->retractions[0], 2);
  EXPECT_EQ(f.hosts[3]->retractionFresh[0], 1);
  EXPECT_FALSE(f.hosts[3]->det->suspects(2));
  // Remote-lane observer p0 (remote timeout 400ms) is equally blind to
  // the 30ms window and must learn the same way.
  EXPECT_TRUE(f.hosts[0]->suspicions.empty());
  ASSERT_FALSE(f.hosts[0]->retractions.empty());
  EXPECT_EQ(f.hosts[0]->retractions[0], 2);
  EXPECT_EQ(f.hosts[0]->retractionFresh[0], 1);
}

}  // namespace
}  // namespace wanmc
