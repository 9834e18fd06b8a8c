// Bootstrap plane tests: recovery state transfer (src/bootstrap/).
//
// The rejoin contract under test: a recovered process requests an
// order-state snapshot plus delivery suffix from a live donor, installs it,
// and resumes as a full protocol participant — for EVERY protocol stack.
// The adversity tests pin the handshake's failure paths: donor crash
// mid-transfer (retry), rejoin inside an unhealed partition (no completion
// until heal), a second crash racing the offer (stale-session drop), a
// joining donor (deny + advance), and a lagging donor (decisions above its
// clock apply at resume). The vote-rejoin tests crash a Skeen87 or
// Rodrigues98 addressee while the timestamp votes are in flight, the
// merge-rejoin test a batched DetMerge00 subscriber before it hears of any
// event, and the A1 cross-group tests a process alone in its group while
// the other groups' proposals are in flight. The quiescent-snapshot test
// checks, for every stack, that nothing of a message outlives its
// A-Delivery.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "amcast/a1_node.hpp"
#include "common/rng.hpp"
#include "consensus/consensus.hpp"
#include "core/experiment.hpp"
#include "testing/scenario.hpp"
#include "verify/properties.hpp"
#include "workload/spec.hpp"

namespace wanmc {
namespace {

using core::Experiment;
using core::ProtocolKind;
using core::RunConfig;

RunConfig cfg(ProtocolKind kind, int groups, int procs, uint64_t seed = 1) {
  RunConfig c;
  c.groups = groups;
  c.procsPerGroup = procs;
  c.seed = seed;
  c.protocol = kind;
  c.latency = sim::LatencyModel{kMs, 2 * kMs, 95 * kMs, 110 * kMs};
  c.stack.fdOracleDelay = 30 * kMs;
  c.stack.bootstrap.armed = true;
  // Liveness under crash-recovery: an amnesiac rejoin can be a silent
  // consensus coordinator. Consensus passes over its round 1 once the
  // detector reports the new incarnation; a round timeout moves every
  // other stalled round on (a two-member group, whose majority needs the
  // rejoiner, and rounds >= 2).
  c.stack.consensusRoundTimeout = 500 * kMs;
  return c;
}

// The recovered process's delivery sequence from `since` on (i.e. the new
// incarnation's sequence: replay + everything it earned afterwards).
std::vector<MsgId> sequenceSince(const core::RunResult& r, ProcessId pid,
                                 SimTime since) {
  std::vector<MsgId> out;
  for (const DeliveryEvent& d : r.trace.deliveries)
    if (d.process == pid && d.when >= since) out.push_back(d.msg);
  return out;
}

// Approximate size of p's protocol snapshot blob (every stack ships one).
uint64_t protocolBytes(Experiment& ex, ProcessId p) {
  return ex.node(p).makeSnapshot()->protocol->approxBytes();
}

void expectRejoinSafe(const core::RunResult& r, const std::string& tag) {
  auto ctx = r.checkContext();
  for (auto&& v : verify::checkUniformIntegrity(ctx))
    ADD_FAILURE() << tag << ": " << v;
  for (auto&& v : verify::checkRecoveredDelivery(ctx))
    ADD_FAILURE() << tag << ": " << v;
}

// ---------------------------------------------------------------------------
// Per-protocol rejoin smoke: with the plane armed, a crash+recover cycle
// ends with the rejoiner holding its donor's full sequence and earning its
// own deliveries afterwards — for all ten stacks.
// ---------------------------------------------------------------------------

class RejoinSmoke : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(RejoinSmoke, RecoveredProcessRejoins) {
  const ProtocolKind kind = GetParam();
  Experiment ex(cfg(kind, 2, 3));
  const SimTime recoverAt = 800 * kMs;
  ex.crashAt(1, 300 * kMs);
  ex.recoverAt(1, recoverAt);
  auto cast = [&](SimTime when, ProcessId sender) {
    if (core::isBroadcastProtocol(kind)) return ex.castAllAt(when, sender);
    return ex.castAt(when, sender, GroupSet::of({0, 1}));
  };
  cast(100 * kMs, 0);       // delivered before the crash
  cast(500 * kMs, 3);       // cast while p1 is down
  cast(750 * kMs, 5);       // copies land in the joining window
  cast(2 * kSec, 2);        // cast after the install
  const MsgId last = cast(2500 * kMs, 4);
  const uint64_t emptyState = protocolBytes(ex, 1);
  auto r = ex.run(120 * kSec);

  expectRejoinSafe(r, protocolName(kind));
  ASSERT_GE(r.rejoins.size(), 1u) << protocolName(kind);
  EXPECT_EQ(r.rejoins[0].pid, 1);
  EXPECT_GE(r.metrics.bootstrap.snapshotsInstalled, 1u);
  EXPECT_GE(r.metrics.bootstrap.snapshotsServed, 1u);
  EXPECT_GT(r.metrics.bootstrap.snapshotBytes, 0u);

  // The new incarnation's sequence equals a never-crashed groupmate's full
  // sequence: the replay reproduced the donor's history and the rejoined
  // protocol earned the rest on its own.
  const auto seqs = r.trace.sequences();
  const auto mine = sequenceSince(r, 1, recoverAt);
  EXPECT_EQ(mine, seqs.at(2)) << protocolName(kind);
  EXPECT_TRUE(std::find(mine.begin(), mine.end(), last) != mine.end());
  // Nothing the joining window or the install brought in outlives its
  // message's A-Delivery.
  EXPECT_EQ(protocolBytes(ex, 1), emptyState) << protocolName(kind);

  // Catch-up accounting: the install happened within the settle window
  // plus one request round-trip, and the rejoiner delivered after it.
  const auto& rj = r.rejoins[0];
  EXPECT_GE(rj.installedAt, recoverAt);
  EXPECT_LE(rj.installedAt, recoverAt + kSec);
  EXPECT_GT(rj.firstDeliveryAfter, rj.installedAt);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, RejoinSmoke,
    ::testing::ValuesIn(wanmc::testing::allProtocols()),
    [](const auto& info) {
      return wanmc::testing::protocolTestName(info.param);
    });

// ---------------------------------------------------------------------------
// Adversity: the handshake's failure paths.
// ---------------------------------------------------------------------------

TEST(BootstrapAdversity, DonorCrashMidTransferRetriesNextCandidate) {
  // One group of three. p1 rejoins and asks p0 (first candidate); p0 dies
  // with the request in flight. The retry timer must advance to p2.
  Experiment ex(cfg(ProtocolKind::kA1, 1, 3));
  ex.castAt(100 * kMs, 0, GroupSet::of({0}));
  ex.crashAt(1, 300 * kMs);
  ex.recoverAt(1, 800 * kMs);
  // settle = interMax + intraMax + slack = 162 ms: the request leaves at
  // t=962 ms and needs 1-2 ms to p0. Crash p0 at 962.5 ms: after the send,
  // before the arrival.
  ex.crashAt(0, 962 * kMs + 500);
  ex.castAt(2 * kSec, 2, GroupSet::of({0}));
  auto r = ex.run(120 * kSec);

  expectRejoinSafe(r, "donor-crash");
  EXPECT_GE(r.metrics.bootstrap.retries, 1u);
  EXPECT_GE(r.metrics.bootstrap.snapshotsRequested, 2u);
  EXPECT_EQ(r.metrics.bootstrap.snapshotsInstalled, 1u);
  ASSERT_EQ(r.rejoins.size(), 1u);
  // Both post-install survivors (p1 rejoined, p2 correct) hold everything.
  const auto seqs = r.trace.sequences();
  EXPECT_EQ(sequenceSince(r, 1, 800 * kMs), seqs.at(2));
}

TEST(BootstrapAdversity, RejoinInsidePartitionCompletesAfterHeal) {
  // p0 is alone in group 0 (so every donor is cross-group) and rejoins
  // while its group is cut off. No offer can land before the heal; the
  // retry loop must carry the handshake across it. Reliable channels are
  // armed so protocol traffic lost in the cut is retransmitted — the
  // substrate this plane is designed to sit on.
  RunConfig c = cfg(ProtocolKind::kVicente02, 2, 2);
  c.groupSizes = {1, 2};
  c.stack.reliableChannels = true;
  Experiment ex(c);
  const SimTime heal = 3 * kSec;
  ex.castAllAt(100 * kMs, 1);
  ex.crashAt(0, 300 * kMs);
  ex.recoverAt(0, 800 * kMs);
  ex.partitionAt(GroupSet::of({0}), 700 * kMs, heal);
  ex.castAllAt(4 * kSec, 2);
  auto r = ex.run(120 * kSec);

  expectRejoinSafe(r, "partition-rejoin");
  EXPECT_GE(r.metrics.bootstrap.retries, 1u);
  ASSERT_GE(r.rejoins.size(), 1u);
  EXPECT_EQ(r.rejoins[0].pid, 0);
  // The snapshot could only cross the link once the partition healed.
  EXPECT_GE(r.rejoins[0].installedAt, heal);
  const auto seqs = r.trace.sequences();
  EXPECT_EQ(sequenceSince(r, 0, 800 * kMs), seqs.at(2));
}

TEST(BootstrapAdversity, SecondCrashDropsStaleOfferAndRestartsHandshake) {
  // p1 rejoins, requests, then crashes AGAIN with the offer in flight and
  // recovers immediately. The offer reaches the third incarnation carrying
  // the second incarnation's session: it must be dropped as stale, and the
  // fresh handshake must install on its own.
  Experiment ex(cfg(ProtocolKind::kA1, 2, 3));
  ex.castAt(100 * kMs, 0, GroupSet::of({0, 1}));
  ex.crashAt(1, 300 * kMs);
  ex.recoverAt(1, 800 * kMs);
  // Request leaves at 962 ms; the offer returns ~964-966 ms. Crash in
  // between and recover before it lands.
  ex.crashAt(1, 962 * kMs + 200);
  ex.recoverAt(1, 962 * kMs + 400);
  ex.castAt(2 * kSec, 2, GroupSet::of({0, 1}));
  auto r = ex.run(120 * kSec);

  expectRejoinSafe(r, "second-crash");
  EXPECT_EQ(r.metrics.bootstrap.staleDropped, 1u);
  EXPECT_EQ(r.metrics.bootstrap.snapshotsInstalled, 1u);
  ASSERT_EQ(r.rejoins.size(), 1u);
  EXPECT_EQ(r.rejoins[0].pid, 1);
  const auto seqs = r.trace.sequences();
  EXPECT_EQ(sequenceSince(r, 1, 962 * kMs + 400), seqs.at(2));
}

TEST(BootstrapAdversity, JoiningDonorDeniesAndRejoinerAdvances) {
  // Both members of group 0 rejoin, staggered. Each one's first candidate
  // is its (still joining) groupmate, which must deny; the deny advances
  // the rejoiner to a cross-group donor immediately, without waiting out
  // the retry timer. The heartbeat detector watches only its own group,
  // so no cross-group member announces itself as a donor, and a joining
  // groupmate never does: the candidate list alone picks the target.
  RunConfig c = cfg(ProtocolKind::kA1, 2, 2);
  c.stack.fdKind = fd::FdKind::kHeartbeat;
  Experiment ex(c);
  ex.castAt(100 * kMs, 2, GroupSet::of({0, 1}));
  ex.crashAt(0, 400 * kMs);
  ex.crashAt(1, 400 * kMs);
  ex.recoverAt(0, 640 * kMs);   // requests p1 at ~803 ms: p1 joins at 800
  ex.recoverAt(1, 800 * kMs);   // requests p0 at ~963 ms: p0 installs ~1010
  ex.castAt(2 * kSec, 2, GroupSet::of({0, 1}));
  ex.castAt(2500 * kMs, 3, GroupSet::of({0, 1}));
  auto r = ex.run(120 * kSec);

  expectRejoinSafe(r, "joining-donor");
  EXPECT_EQ(r.metrics.bootstrap.denies, 2u);
  EXPECT_EQ(r.metrics.bootstrap.snapshotsInstalled, 2u);
  EXPECT_EQ(r.rejoins.size(), 2u);
  const auto seqs = r.trace.sequences();
  EXPECT_EQ(sequenceSince(r, 0, 640 * kMs), seqs.at(3));
  EXPECT_EQ(sequenceSince(r, 1, 800 * kMs), seqs.at(3));
}

TEST(BootstrapAdversity, LaggingDonorsDecisionsAboveItsClockApplyAtResume) {
  // The group stacks apply their group's decisions in clock order, reading
  // them from the consensus service. Here the donor lags. In one group of
  // three, p2 casts every 20 or 50 ms. Every consensus copy to p0 of the
  // first instance it hears of after 300 ms is dropped until 1.2 s, so
  // p0's clock stalls there while it decides the next instances with its
  // groupmates. p1 crashes at 400 ms and recovers at 700 ms; p2's
  // bootstrap packets are dropped, so p0, the first candidate, donates.
  // For each stack one of the two periods has p0 hold, above its clock,
  // decisions that p1's new incarnation never reaches itself. p1 must
  // apply them once its clock gets there: running those instances again
  // would leave it a round timeout behind p0.
  for (ProtocolKind kind : {ProtocolKind::kFritzke98, ProtocolKind::kA1,
                            ProtocolKind::kDelporte00, ProtocolKind::kA2}) {
    for (SimTime every : {20 * kMs, 50 * kMs}) {
      for (uint64_t seed = 1; seed <= 5; ++seed) {
        const std::string tag = std::string(protocolName(kind)) + " every " +
                                std::to_string(every / kMs) + " ms seed " +
                                std::to_string(seed);
        const RunConfig c = cfg(kind, 1, 3, seed);
        Experiment ex(c);
        for (SimTime t = 50 * kMs; t <= 2500 * kMs; t += every)
          ex.castAllAt(t, 2);
        std::optional<consensus::Instance> stalled;
        ex.runtime().setDropFilter(
            [&](ProcessId from, ProcessId to, const Payload& p) {
              if (p.layer() == Layer::kBootstrap) return from == 2;
              const SimTime now = ex.runtime().now();
              if (to != 0 || p.layer() != Layer::kConsensus ||
                  now < 300 * kMs || now >= 1200 * kMs)
                return false;
              const auto k =
                  static_cast<const consensus::ConsensusPayload&>(p).instance;
              if (!stalled) stalled = k;
              return k == *stalled;
            });
        ex.crashAt(1, 400 * kMs);
        ex.recoverAt(1, 700 * kMs);
        auto r = ex.run(60 * kSec);

        const auto v = r.checkAtomicSuite();
        EXPECT_TRUE(v.empty()) << tag << ": " << v[0];
        expectRejoinSafe(r, tag);
        ASSERT_EQ(r.rejoins.size(), 1u) << tag;
        const SimTime installedAt = r.rejoins[0].installedAt;
        std::map<MsgId, SimTime> atP0;
        for (const DeliveryEvent& d : r.trace.deliveries)
          if (d.process == 0) atP0.emplace(d.msg, d.when);
        SimTime behind = 0;  // p1's largest lag behind p0 after the install
        size_t earned = 0;
        for (const DeliveryEvent& d : r.trace.deliveries) {
          if (d.process != 1 || d.when <= installedAt) continue;
          ++earned;
          behind = std::max(behind, d.when - atP0.at(d.msg));
        }
        EXPECT_GT(earned, 0u) << tag;
        EXPECT_LT(behind, c.stack.consensusRoundTimeout) << tag;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Vote-ordering rejoins (Skeen87, Rodrigues98). A Skeen87 process whose
// dead incarnation voted on m must not vote on m again: peers that decided
// on the first vote keep it and the others take the second, so m's final
// timestamp, and the order around it, would differ between correct
// processes. Rodrigues98 re-votes by design (consensus fixes one
// maximum); the sweep runs it as the other user of the same install merge.
// ---------------------------------------------------------------------------

TEST(VoteRejoin, Skeen87RejoinDuringVoteExchangeKeepsPrefixOrder) {
  // p1 votes on p0's cast at ~101 ms and crashes at 105 ms, before p3's
  // cast or any group-1 vote reaches group 0 (95-110 ms after sending). It
  // recovers at 150 ms and hears of both casts while it is still joining
  // (its snapshot request leaves after the 162 ms settle).
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Experiment ex(cfg(ProtocolKind::kSkeen87, 2, 3, seed));
    ex.castAt(100 * kMs, 0, GroupSet::of({0, 1}));
    ex.castAt(100 * kMs, 3, GroupSet::of({0, 1}));
    ex.crashAt(1, 105 * kMs);
    ex.recoverAt(1, 150 * kMs);
    auto r = ex.run(60 * kSec);
    const auto v = r.checkAtomicSuite();
    EXPECT_TRUE(v.empty()) << "seed " << seed << ": " << v[0];
    EXPECT_EQ(r.rejoins.size(), 1u) << "seed " << seed;
    EXPECT_EQ(r.trace.deliveries.size(), 12u) << "seed " << seed;
  }
}

// Each seed draws 2 or 3 groups of 3, 2-7 casts at 90-210 ms to {0, 1} or
// to every group from any process but p1, and a crash of p1 at 95-155 ms
// with its recovery 1-150 ms later: the crash and the joining window fall
// among the votes in flight. Among these runs are rejoiners that hear of
// a message before the install and whose donor holds the dead
// incarnation's vote on it.
class VoteRejoinSweep : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(VoteRejoinSweep, EveryRunSafeWithOneRejoin) {
  const ProtocolKind kind = GetParam();
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    SplitMix64 rng(seed);
    const auto groups = static_cast<int>(rng.uniform(2, 3));
    Experiment ex(cfg(kind, groups, 3, seed));
    const auto casts = rng.uniform(2, 7);
    for (int64_t i = 0; i < casts; ++i) {
      const SimTime when = rng.uniform(90 * kMs, 210 * kMs);
      const GroupSet dest = rng.uniform(0, 1) == 0 ? GroupSet::of({0, 1})
                                                   : GroupSet::all(groups);
      auto sender = static_cast<ProcessId>(rng.uniform(0, 3 * groups - 2));
      if (sender >= 1) ++sender;  // anyone but p1
      ex.castAt(when, sender, dest);
    }
    const SimTime crash = rng.uniform(95 * kMs, 155 * kMs);
    ex.crashAt(1, crash);
    ex.recoverAt(1, crash + rng.uniform(1 * kMs, 150 * kMs));
    auto r = ex.run(60 * kSec);
    const auto v = r.checkAtomicSuite();
    EXPECT_TRUE(v.empty()) << "seed " << seed << ": " << v[0];
    EXPECT_EQ(r.rejoins.size(), 1u) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, VoteRejoinSweep,
    ::testing::Values(ProtocolKind::kSkeen87, ProtocolKind::kRodrigues98),
    [](const auto& info) {
      return wanmc::testing::protocolTestName(info.param);
    });

// ---------------------------------------------------------------------------
// A batched DetMerge00 rejoin. p1 crashes and recovers before any event of
// its peers reaches it, so its fresh streams merge batch carriers while it
// is still joining. The install must drop from its merge buffer every
// carrier the donor had already delivered; pruned by the suffix's
// constituent casts instead, those carriers stayed and p1 delivered their
// casts a second time.
// ---------------------------------------------------------------------------

TEST(MergeRejoin, BatchedEarlyRejoinDeliversEachCastOnce) {
  const ProcessId senders[] = {0, 2, 3};
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (SimTime crash : {100 * kUs, 300 * kUs, 600 * kUs}) {
      RunConfig c = cfg(ProtocolKind::kDetMerge00, 2, 2, seed);
      c.latency = sim::LatencyModel{kMs, 2 * kMs, 20 * kMs, 30 * kMs};
      c.merge.heartbeatPeriod = 10 * kMs;
      c.stack.batchWindow = 5 * kMs;
      c.stack.batchMaxSize = 8;
      Experiment ex(c);
      for (int i = 0; i < 30; ++i) ex.castAllAt(i * 5 * kMs, senders[i % 3]);
      ex.crashAt(1, crash);
      ex.recoverAt(1, crash + 200 * kUs);
      auto r = ex.run(2 * kSec);
      const std::string tag = "seed " + std::to_string(seed) +
                              ", crash at " + std::to_string(crash) + " us";
      const auto v = r.checkAtomicSuite();
      EXPECT_TRUE(v.empty()) << tag << ": " << v[0];
      EXPECT_EQ(r.rejoins.size(), 1u) << tag;
    }
  }
}

// ---------------------------------------------------------------------------
// An A1 rejoiner with no live groupmate installs from a donor in another
// group. The donor's pending records bring the proposals other groups made
// for messages still waiting on the rejoiner's group, but not their stages,
// which only a groupmate's apply. For a message the rejoiner has not heard
// of yet, its record holds those proposals alone until a (TS, m) copy
// introduces the message. Proposals for messages addressed elsewhere stay
// with the donor.
// ---------------------------------------------------------------------------

TEST(A1CrossGroupRejoin, ProposalsInstalledBeforeTheirMessage) {
  // p0 is alone in group 0. m2 and m3 are cast to both groups while it is
  // down: group 1 decides its proposals for them and waits for group 0's.
  // Reliable channels re-offer the copies sent to the dead incarnation to
  // the new one; dropping its R-MCast and (TS, m) copies until a second
  // after the recovery makes the install (about 0.37 s after it) come
  // first. The install marks m2 and m3 R-Delivered, so a resent (TS, m)
  // copy is what introduces each to p0.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const std::string tag = "seed " + std::to_string(seed);
    RunConfig c = cfg(ProtocolKind::kA1, 2, 2, seed);
    c.groupSizes = {1, 2};
    c.stack.reliableChannels = true;
    Experiment ex(c);
    const SimTime recover = 800 * kMs;
    const SimTime heal = recover + kSec;
    ex.runtime().setDropFilter(
        [&](ProcessId, ProcessId to, const Payload& p) {
          const SimTime now = ex.runtime().now();
          return to == 0 && now >= recover && now < heal &&
                 (p.layer() == Layer::kReliableMulticast ||
                  p.layer() == Layer::kProtocol);
        });
    const GroupSet both = GroupSet::of({0, 1});
    std::vector<MsgId> casts = {ex.castAt(100 * kMs, 1, both)};
    ex.crashAt(0, 300 * kMs);
    casts.push_back(ex.castAt(400 * kMs, 2, both));
    casts.push_back(ex.castAt(450 * kMs, 1, both));
    ex.recoverAt(0, recover);
    const auto first = ex.run(heal);
    ASSERT_EQ(first.rejoins.size(), 1u) << tag;
    {
      const auto& p0 = dynamic_cast<amcast::A1Node&>(ex.node(0));
      EXPECT_EQ(p0.pendingCount(), 0u) << tag;
      EXPECT_EQ(p0.stampTableSize(), 2u) << tag;  // m2's and m3's
    }
    casts.push_back(ex.castAt(3 * kSec, 1, both));
    auto r = ex.run(120 * kSec);

    const auto v = r.checkAtomicSuite();
    EXPECT_TRUE(v.empty()) << tag << ": " << v[0];
    expectRejoinSafe(r, tag);
    EXPECT_EQ(r.rejoins.size(), 1u) << tag;
    // Every incarnation A-Delivers every cast once; p0's new one replays
    // m1 from the snapshot and earns the rest.
    const auto seqs = r.trace.sequences();
    for (std::vector<MsgId> seq :
         {seqs.at(1), seqs.at(2), sequenceSince(r, 0, recover)}) {
      std::sort(seq.begin(), seq.end());
      EXPECT_EQ(seq, casts) << tag;
    }
    const auto& p0 = dynamic_cast<amcast::A1Node&>(ex.node(0));
    EXPECT_EQ(p0.stampTableSize(), 0u) << tag;
    EXPECT_EQ(p0.pendingPages(), 0u) << tag;
  }
}

TEST(A1CrossGroupRejoin, ProposalsForOtherGroupsStayWithTheDonor) {
  // p0 is alone in group 0 and rejoins from a donor in another group while
  // that group orders casts addressed to groups 1 and 2 only. No (TS, m)
  // copy or A-Delivery of those casts ever reaches p0, so a proposal the
  // install took for one of them would stay in p0's table for good.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const std::string tag = "seed " + std::to_string(seed);
    RunConfig c = cfg(ProtocolKind::kA1, 3, 2, seed);
    c.groupSizes = {1, 2, 2};
    c.stack.reliableChannels = true;
    Experiment ex(c);
    ex.crashAt(0, 300 * kMs);
    ex.recoverAt(0, 800 * kMs);
    const GroupSet dest = GroupSet::of({1, 2});
    for (int i = 0; i < 8; ++i)
      ex.castAt(900 * kMs + i * 10 * kMs, static_cast<ProcessId>(1 + i % 4),
                dest);
    auto r = ex.run(120 * kSec);

    ASSERT_EQ(r.rejoins.size(), 1u) << tag;
    const auto v = r.checkAtomicSuite();
    EXPECT_TRUE(v.empty()) << tag << ": " << v[0];
    expectRejoinSafe(r, tag);
    const auto& p0 = dynamic_cast<amcast::A1Node&>(ex.node(0));
    EXPECT_EQ(p0.stampTableSize(), 0u) << tag;
    EXPECT_EQ(p0.pendingPages(), 0u) << tag;
  }
}

// ---------------------------------------------------------------------------
// Quiescence: a stack keeps a message's ordering state only until it is
// A-Delivered, so once every cast is delivered everywhere each process's
// protocol snapshot is as small as before the first cast. A late copy
// (another member's bundle, ack or SEQ) must not bring any of it back.
// ---------------------------------------------------------------------------

class QuiescentSnapshot
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, bool>> {};

TEST_P(QuiescentSnapshot, ProtocolStateBackToItsSizeBeforeTheRun) {
  const auto [kind, batched] = GetParam();
  RunConfig c = cfg(kind, 3, 3);
  c.stack.bootstrap.armed = false;
  if (batched) {
    c.stack.batchWindow = 5 * kMs;
    c.stack.batchMaxSize = 8;
  }
  Experiment ex(c);
  ex.addWorkload(workload::Spec::openLoopPoisson(300, 3 * kMs, 2));
  std::vector<uint64_t> before;
  for (ProcessId p = 0; p < 9; ++p) before.push_back(protocolBytes(ex, p));
  auto r = ex.run();

  const auto v = r.checkAtomicSuite();
  ASSERT_TRUE(v.empty()) << v[0];
  EXPECT_EQ(r.trace.casts.size(), 300u);
  for (ProcessId p = 0; p < 9; ++p)
    EXPECT_EQ(protocolBytes(ex, p), before[static_cast<size_t>(p)])
        << "p" << p;
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, QuiescentSnapshot,
    ::testing::Combine(::testing::ValuesIn(wanmc::testing::allProtocols()),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(
                 wanmc::testing::protocolTestName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_Batched" : "_Unbatched");
    });

// ---------------------------------------------------------------------------
// Unarmed: the plane does not exist, nothing changes.
// ---------------------------------------------------------------------------

TEST(BootstrapUnarmed, NoPlaneNoTrafficNoRejoins) {
  RunConfig c = cfg(ProtocolKind::kA1, 2, 3);
  c.stack.bootstrap.armed = false;
  Experiment ex(c);
  ex.crashAt(1, 300 * kMs);
  ex.recoverAt(1, 800 * kMs);
  ex.castAt(100 * kMs, 0, GroupSet::of({0, 1}));
  ex.castAt(2 * kSec, 2, GroupSet::of({0, 1}));
  auto r = ex.run(60 * kSec);

  EXPECT_TRUE(r.rejoins.empty());
  EXPECT_EQ(r.metrics.bootstrap, BootstrapStats{});
  const auto& boot =
      r.traffic.perLayer[static_cast<size_t>(Layer::kBootstrap)];
  EXPECT_EQ(boot.intra, 0u);
  EXPECT_EQ(boot.inter, 0u);
}

}  // namespace
}  // namespace wanmc
