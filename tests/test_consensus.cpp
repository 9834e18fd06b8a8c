// Unit tests for the early-deciding uniform consensus service
// (consensus::ConsensusService), including crash and suspicion cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/runtime.hpp"
#include "consensus/consensus.hpp"
#include "core/stack_node.hpp"

namespace wanmc {
namespace {

using consensus::ConsensusKind;
using consensus::Instance;

// A bare test node hosting one consensus service over every process of
// the topology (in a one-group topology, its whole group).
class ConsensusHost final : public core::StackNode {
 public:
  ConsensusHost(sim::Runtime& rt, ProcessId pid, const core::StackConfig& cfg)
      : core::StackNode(rt, pid, cfg) {
    svc = &addConsensus(/*scope=*/0, rt.topology().allProcesses());
    svc->onDecide([this](Instance k, const ConsensusValue& v) {
      decisions[k] = v;
      decisionOrder.push_back(k);
      decisionLamport[k] = runtime().lamport(this->pid());
    });
  }
  void onProtocolMessage(ProcessId, const PayloadPtr&) override {}

  consensus::ConsensusService* svc = nullptr;
  std::map<Instance, ConsensusValue> decisions;
  std::vector<Instance> decisionOrder;
  std::map<Instance, uint64_t> decisionLamport;  // modified Lamport clock
};

struct Fixture {
  explicit Fixture(int procs) : Fixture(1, procs) {}
  Fixture(int groups, int procsPerGroup, uint64_t seed = 1,
          fd::FdKind fdKind = fd::FdKind::kOracle)
      : rt(Topology(groups, procsPerGroup),
           sim::LatencyModel::fixed(kMs, 100 * kMs), seed) {
    const int procs = groups * procsPerGroup;
    core::StackConfig cfg;
    cfg.fdKind = fdKind;
    cfg.fdOracleDelay = 10 * kMs;
    for (ProcessId p = 0; p < procs; ++p) {
      auto n = std::make_unique<ConsensusHost>(rt, p, cfg);
      hosts.push_back(n.get());
      rt.attach(p, std::move(n));
    }
    rt.start();
  }

  sim::Runtime rt;
  std::vector<ConsensusHost*> hosts;
};

ConsensusValue num(uint64_t v) { return ConsensusValue{v}; }

// Instantiated once per ConsensusKind; kEarly is the only kind, so every
// case runs the one service and is named "<case>/Early".
class ConsensusParamTest : public ::testing::TestWithParam<ConsensusKind> {};

TEST_P(ConsensusParamTest, SingleProcessDecidesOwnValue) {
  Fixture f(1);
  f.hosts[0]->svc->propose(1, num(42));
  f.rt.run();
  ASSERT_TRUE(f.hosts[0]->decisions.count(1));
  EXPECT_TRUE(valueEquals(f.hosts[0]->decisions[1], num(42)));
}

TEST_P(ConsensusParamTest, AllDecideSameValue) {
  Fixture f(3);
  for (int p = 0; p < 3; ++p)
    f.hosts[p]->svc->propose(1, num(100 + static_cast<uint64_t>(p)));
  f.rt.run();
  for (int p = 0; p < 3; ++p) {
    ASSERT_TRUE(f.hosts[p]->decisions.count(1)) << "p" << p;
    EXPECT_TRUE(valueEquals(f.hosts[p]->decisions[1],
                            f.hosts[0]->decisions[1]));
  }
}

TEST_P(ConsensusParamTest, UniformIntegrityDecidedWasProposed) {
  Fixture f(5);
  for (int p = 0; p < 5; ++p)
    f.hosts[p]->svc->propose(1, num(static_cast<uint64_t>(p)));
  f.rt.run();
  const auto v = f.hosts[0]->decisions[1].get<uint64_t>();
  EXPECT_LT(v, 5u);
}

TEST_P(ConsensusParamTest, IndependentInstances) {
  Fixture f(3);
  for (int p = 0; p < 3; ++p) {
    f.hosts[p]->svc->propose(7, num(70));
    f.hosts[p]->svc->propose(9, num(90));
  }
  f.rt.run();
  for (int p = 0; p < 3; ++p) {
    EXPECT_TRUE(valueEquals(f.hosts[p]->decisions[7], num(70)));
    EXPECT_TRUE(valueEquals(f.hosts[p]->decisions[9], num(90)));
  }
}

TEST_P(ConsensusParamTest, LatecomerProposerStillDecides) {
  Fixture f(3);
  f.hosts[0]->svc->propose(1, num(5));
  f.hosts[1]->svc->propose(1, num(6));
  f.rt.run();  // majority may already decide
  f.hosts[2]->svc->propose(1, num(7));
  f.rt.run();
  for (int p = 0; p < 3; ++p) {
    ASSERT_TRUE(f.hosts[p]->decisions.count(1)) << "p" << p;
    EXPECT_TRUE(valueEquals(f.hosts[p]->decisions[1],
                            f.hosts[0]->decisions[1]));
  }
}

TEST_P(ConsensusParamTest, ToleratesMinorityCrashBeforePropose) {
  Fixture f(3);
  f.rt.crash(2);
  f.hosts[0]->svc->propose(1, num(11));
  f.hosts[1]->svc->propose(1, num(12));
  f.rt.run();
  ASSERT_TRUE(f.hosts[0]->decisions.count(1));
  ASSERT_TRUE(f.hosts[1]->decisions.count(1));
  EXPECT_TRUE(
      valueEquals(f.hosts[0]->decisions[1], f.hosts[1]->decisions[1]));
}

TEST_P(ConsensusParamTest, ToleratesCoordinatorCrashMidInstance) {
  Fixture f(5);
  // The round-1 coordinator of instance 1 is members[(1 + 0) % 5] = p1.
  // Crash it shortly after proposals go out.
  for (int p = 0; p < 5; ++p)
    f.hosts[p]->svc->propose(1, num(static_cast<uint64_t>(p) + 1));
  f.rt.scheduleCrash(1, kMs / 2);
  f.rt.run();
  std::optional<uint64_t> decided;
  for (int p = 0; p < 5; ++p) {
    if (p == 1) continue;
    ASSERT_TRUE(f.hosts[p]->decisions.count(1)) << "p" << p;
    const auto v = f.hosts[p]->decisions[1].get<uint64_t>();
    if (!decided) decided = v;
    EXPECT_EQ(*decided, v);
  }
}

TEST_P(ConsensusParamTest, ManySequentialInstances) {
  Fixture f(3);
  for (Instance k = 1; k <= 20; ++k)
    for (int p = 0; p < 3; ++p) f.hosts[p]->svc->propose(k, num(k * 10));
  f.rt.run();
  for (int p = 0; p < 3; ++p)
    for (Instance k = 1; k <= 20; ++k)
      EXPECT_TRUE(valueEquals(f.hosts[p]->decisions[k], num(k * 10)));
}

TEST_P(ConsensusParamTest, SparseInstanceNumbers) {
  // A1 numbers instances by the (jumping) group clock.
  Fixture f(3);
  for (Instance k : {5u, 17u, 1000000u})
    for (int p = 0; p < 3; ++p) f.hosts[p]->svc->propose(k, num(k));
  f.rt.run();
  for (int p = 0; p < 3; ++p)
    for (Instance k : {5u, 17u, 1000000u})
      EXPECT_TRUE(valueEquals(f.hosts[p]->decisions[k], num(k)));
}

TEST_P(ConsensusParamTest, SecondProposalPerInstanceIgnored) {
  Fixture f(3);
  for (int p = 0; p < 3; ++p) f.hosts[p]->svc->propose(1, num(1));
  f.rt.run();
  const auto before = f.hosts[0]->decisions[1];
  f.hosts[0]->svc->propose(1, num(999));
  f.rt.run();
  EXPECT_TRUE(valueEquals(f.hosts[0]->decisions[1], before));
}

TEST_P(ConsensusParamTest, WorksWithHeartbeatFd) {
  Fixture f(1, 3, /*seed=*/3, fd::FdKind::kHeartbeat);
  for (int p = 0; p < 3; ++p) f.hosts[p]->svc->propose(1, num(8));
  f.rt.run(5 * kSec);  // heartbeats never stop; bound the run
  for (int p = 0; p < 3; ++p)
    EXPECT_TRUE(valueEquals(f.hosts[p]->decisions[1], num(8)));
}

TEST_P(ConsensusParamTest, CrashWithHeartbeatFdStillLive) {
  Fixture f(1, 3, /*seed=*/4, fd::FdKind::kHeartbeat);
  for (int p = 0; p < 3; ++p)
    f.hosts[p]->svc->propose(1, num(static_cast<uint64_t>(p)));
  f.rt.scheduleCrash(1, kMs);
  f.rt.run(10 * kSec);
  ASSERT_TRUE(f.hosts[0]->decisions.count(1));
  ASSERT_TRUE(f.hosts[2]->decisions.count(1));
  EXPECT_TRUE(
      valueEquals(f.hosts[0]->decisions[1], f.hosts[2]->decisions[1]));
}

TEST_P(ConsensusParamTest, BundleValuesRoundTrip) {
  Fixture f(3);
  MsgBundle b{makeAppMessage(3, 0, GroupSet::of({0})),
              makeAppMessage(1, 1, GroupSet::of({0}))};
  canonicalize(b);
  std::vector<ConsensusValue> proposals;
  for (int p = 0; p < 3; ++p) {
    proposals.emplace_back(b);
    f.hosts[p]->svc->propose(1, proposals.back());
  }
  f.rt.run();
  const auto& d = f.hosts[1]->decisions[1].get<MsgBundle>();
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0]->id, 1u);
  EXPECT_EQ(d[1]->id, 3u);
  // Values are shared, not copied: every host decided the winning
  // proposal's own bundle object.
  const bool fromAProposal =
      std::any_of(proposals.begin(), proposals.end(),
                  [&](const ConsensusValue& v) {
                    return &v.get<MsgBundle>() == &d;
                  });
  EXPECT_TRUE(fromAProposal);
  for (int p = 0; p < 3; ++p)
    EXPECT_EQ(&f.hosts[p]->decisions[1].get<MsgBundle>(), &d) << "p" << p;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ConsensusParamTest,
                         ::testing::Values(ConsensusKind::kEarly),
                         [](const auto&) { return "Early"; });

TEST(EarlyConsensus, DecidesInTwoIntraDelaysFailureFree) {
  // The early-deciding fast path: propose -> PROPOSE broadcast -> ACK
  // broadcast -> decide. With 1ms intra links that is ~2-3ms, well under
  // one WAN delay — the basis of the paper's "consensus costs no
  // inter-group delay" accounting.
  Fixture f(3);
  for (int p = 0; p < 3; ++p) f.hosts[p]->svc->propose(1, num(1));
  f.rt.run(5 * kMs);
  for (int p = 0; p < 3; ++p) EXPECT_TRUE(f.hosts[p]->decisions.count(1));
}

TEST(Consensus, NoInterGroupTrafficForGroupScopedInstances) {
  Fixture f(3);
  for (int p = 0; p < 3; ++p) f.hosts[p]->svc->propose(1, num(1));
  f.rt.run();
  EXPECT_EQ(f.rt.traffic().at(Layer::kConsensus).inter, 0u);
  EXPECT_GT(f.rt.traffic().at(Layer::kConsensus).intra, 0u);
}

TEST(Consensus, DecisionPointerOutlivesLaterDecisions) {
  // decision(k) points into the decided table, and a group stack reads
  // through it while later instances decide: no insert may move it.
  Fixture f(3);
  for (int p = 0; p < 3; ++p) f.hosts[p]->svc->propose(1, num(11));
  f.rt.run();
  const ConsensusValue* first = f.hosts[0]->svc->decision(1);
  ASSERT_NE(first, nullptr);
  for (Instance k = 2; k <= 10001; ++k)
    for (int p = 0; p < 3; ++p) f.hosts[p]->svc->propose(k, num(k));
  f.rt.run();
  EXPECT_EQ(f.hosts[0]->decisionOrder.size(), 10001u);
  EXPECT_EQ(f.hosts[0]->svc->decision(1), first);
  EXPECT_EQ(first->get<uint64_t>(), 11u);
}

TEST(EarlyConsensus, AcrossGroupsCostsTwoDelaysAndQuadraticMessages) {
  // §6's accounting of [11], run across k groups of d: every member decides
  // at modified-Lamport degree 2 (every clock starts at 0), and the
  // instance sends at most 2kd(kd-1) inter-group messages.
  for (auto [k, d] : {std::pair{2, 2}, {2, 3}, {3, 2}, {3, 3}}) {
    Fixture f(k, d);
    const int n = k * d;
    for (int p = 0; p < n; ++p) f.hosts[p]->svc->propose(1, num(42));
    f.rt.run();
    for (int p = 0; p < n; ++p) {
      ASSERT_TRUE(f.hosts[p]->decisions.count(1))
          << k << "x" << d << " p" << p;
      EXPECT_EQ(f.hosts[p]->decisionLamport[1], 2u)
          << k << "x" << d << " p" << p;
    }
    EXPECT_LE(f.rt.traffic().at(Layer::kConsensus).inter,
              static_cast<uint64_t>(2 * n * (n - 1)))
        << k << "x" << d;
  }
}

// ---------------------------------------------------------------------------
// Rejoin skip: a member's fresh incarnation does not coordinate round 1
// until it shows that it can.
// ---------------------------------------------------------------------------

// Three members on the oracle detector (50 ms detection delay) with the
// 500 ms round timer of the recovery runs. A recovered process comes back
// as a fresh, amnesiac ConsensusHost. Every consensus copy passes a filter
// that counts the ESTIMATEs and drops what `drop` names.
struct RejoinFixture {
  using Type = consensus::ConsensusPayload::Type;

  RejoinFixture()
      : rt(Topology(1, 3), sim::LatencyModel::fixed(kMs, 100 * kMs), 1) {
    cfg.consensusRoundTimeout = 500 * kMs;
    for (ProcessId p = 0; p < 3; ++p) {
      auto n = std::make_unique<ConsensusHost>(rt, p, cfg);
      hosts.push_back(n.get());
      rt.attach(p, std::move(n));
    }
    rt.setNodeFactory([this](ProcessId p) {
      auto n = std::make_unique<ConsensusHost>(rt, p, cfg);
      hosts[static_cast<size_t>(p)] = n.get();
      return n;
    });
    rt.setDropFilter([this](ProcessId from, ProcessId to, const Payload& p) {
      if (p.layer() != Layer::kConsensus) return false;
      const auto& cp = static_cast<const consensus::ConsensusPayload&>(p);
      if (cp.type == Type::kEstimate) ++estimates;
      return drop && drop(from, to, cp);
    });
    rt.start();
  }

  core::StackConfig cfg;
  sim::Runtime rt;
  std::vector<ConsensusHost*> hosts;
  uint64_t estimates = 0;
  std::function<bool(ProcessId, ProcessId, const consensus::ConsensusPayload&)>
      drop;
};

TEST(ConsensusRejoin, SurvivorsPassOverTheRejoinersRoundOne) {
  // Instance 1's round-1 coordinator is p1 (members[(1 + 0) % 3]). p1
  // crashes at 10 ms, is suspected at 60 ms and recovers at 200 ms as a
  // fresh incarnation that knows nothing of instance 1. The survivors
  // propose at 300 ms: they pass over round 1 and decide in round 2
  // within a few 1 ms delays, instead of waiting out the 500 ms round
  // timer for a PROPOSE that p1 would never send.
  RejoinFixture f;
  f.rt.scheduleCrash(1, 10 * kMs);
  f.rt.scheduleRecover(1, 200 * kMs);
  f.rt.run(300 * kMs);
  f.hosts[0]->svc->propose(1, num(10));
  f.hosts[2]->svc->propose(1, num(12));
  f.rt.run(310 * kMs);
  for (int p = 0; p < 3; ++p)
    ASSERT_TRUE(f.hosts[p]->decisions.count(1)) << "p" << p;
  EXPECT_TRUE(valueEquals(f.hosts[0]->decisions[1], f.hosts[2]->decisions[1]));
  EXPECT_TRUE(valueEquals(f.hosts[1]->decisions[1], f.hosts[2]->decisions[1]));
  EXPECT_GT(f.estimates, 0u);  // round 2 ran
}

TEST(ConsensusRejoin, AValueLockedInTheSkippedRoundIsDecided) {
  // p1 coordinates round 1 of instance 1 and proposes 11 at 0 ms; p2
  // proposes 12. Only p0 receives p1's PROPOSE: p0 locks 11 and ACKs, and
  // p1 decides 11 on its own ACK and p0's. The filter keeps every other
  // copy of p1's first incarnation from p0 and p2, so p2 waits in round 1
  // with 12 unlocked. p1 crashes at 3 ms and recovers at 20 ms, inside the
  // detection delay, so the recovery alone moves p0 and p2 past p1's
  // round 1. Round 2's coordinator, p2, must pick the locked 11 over its
  // own 12: every member, the new p1 included, decides what the dead
  // incarnation decided.
  RejoinFixture f;
  f.drop = [&f](ProcessId from, ProcessId to,
                const consensus::ConsensusPayload& cp) {
    return from == 1 && f.rt.incarnation(1) == 0 && to != 1 &&
           !(to == 0 && cp.type == RejoinFixture::Type::kPropose);
  };
  f.hosts[1]->svc->propose(1, num(11));
  f.hosts[2]->svc->propose(1, num(12));
  f.rt.run(3 * kMs);
  ASSERT_TRUE(f.hosts[1]->decisions.count(1));
  ASSERT_TRUE(valueEquals(f.hosts[1]->decisions[1], num(11)));
  ASSERT_TRUE(f.hosts[0]->decisions.empty());
  ASSERT_TRUE(f.hosts[2]->decisions.empty());
  f.rt.crash(1);
  f.rt.scheduleRecover(1, 20 * kMs);
  f.rt.run(30 * kMs);
  for (int p = 0; p < 3; ++p) {
    ASSERT_TRUE(f.hosts[p]->decisions.count(1)) << "p" << p;
    EXPECT_TRUE(valueEquals(f.hosts[p]->decisions[1], num(11))) << "p" << p;
  }
}

TEST(ConsensusRejoin, TheSkipEndsWithTheRejoinersFirstRoundOnePropose) {
  // p1 crashes at 10 ms and recovers at 200 ms; the survivors pass over
  // its round 1 of instance 1. At 400 ms the new p1 proposes to instance
  // 4, whose round 1 it coordinates (members[(4 + 0) % 3]), and decides
  // it with both survivors: its round-1 PROPOSE shows that it coordinates
  // again. Instance 7, the next one it coordinates, then runs round 1 at
  // every member, with no ESTIMATE on the wire.
  RejoinFixture f;
  f.rt.scheduleCrash(1, 10 * kMs);
  f.rt.scheduleRecover(1, 200 * kMs);
  f.rt.run(300 * kMs);
  for (int p : {0, 2}) f.hosts[p]->svc->propose(1, num(1));
  f.rt.run(310 * kMs);
  ASSERT_TRUE(f.hosts[0]->decisions.count(1));
  ASSERT_GT(f.estimates, 0u);
  f.rt.run(400 * kMs);
  f.hosts[1]->svc->propose(4, num(4));
  f.rt.run(410 * kMs);
  for (int p = 0; p < 3; ++p)
    ASSERT_TRUE(f.hosts[p]->decisions.count(4)) << "p" << p;
  const uint64_t before = f.estimates;
  for (int p = 0; p < 3; ++p) f.hosts[p]->svc->propose(7, num(7));
  f.rt.run(420 * kMs);
  for (int p = 0; p < 3; ++p)
    EXPECT_TRUE(f.hosts[p]->decisions.count(7)) << "p" << p;
  EXPECT_EQ(f.estimates, before);
}

// One ConsensusService (p0) among two processes that only record the
// consensus copies they receive (p1, p2). Copies reach p0 by direct
// onMessage calls, so each case controls exactly what p0 sees.
struct ServiceUnderTest {
  using Type = consensus::ConsensusPayload::Type;
  using Copies = std::vector<std::pair<Type, Instance>>;

  class Recorder final : public exec::Process {
   public:
    using exec::Process::Process;
    void onMessage(ProcessId, const PayloadPtr& p) override {
      if (p->layer() != Layer::kConsensus) return;
      const auto& cp = static_cast<const consensus::ConsensusPayload&>(*p);
      got.emplace_back(cp.type, cp.instance);
    }
    Copies got;
  };

  ServiceUnderTest()
      : rt(Topology(1, 3), sim::LatencyModel::fixed(kMs, 100 * kMs), 1) {
    core::StackConfig cfg;
    cfg.fdKind = fd::FdKind::kOracle;
    auto h = std::make_unique<ConsensusHost>(rt, 0, cfg);
    host = h.get();
    rt.attach(0, std::move(h));
    for (ProcessId p : {1, 2}) {
      auto r = std::make_unique<Recorder>(rt, p);
      peers.push_back(r.get());
      rt.attach(p, std::move(r));
    }
    rt.start();
  }

  // Hands p0 one copy of (type, k, round 1) from `from`, then lets every
  // resulting send arrive.
  void deliver(ProcessId from, Type type, Instance k) {
    consensus::ConsensusPayload p;
    p.instance = k;
    p.round = 1;
    p.type = type;
    p.value = num(50);
    host->svc->onMessage(from, p);
    rt.run();
  }

  sim::Runtime rt;
  ConsensusHost* host = nullptr;
  std::vector<Recorder*> peers;  // p1, p2
};

TEST(Consensus, InstalledDecisionRunsOnLocalDecisionIgnoresLateCopies) {
  using Type = ServiceUnderTest::Type;
  const ServiceUnderTest::Copies ackThenDecide{{Type::kAck, 5},
                                               {Type::kDecide, 5}};
  {
    // A decision installed from a snapshot is not one this incarnation
    // reached: the service still takes part in the instance (it ACKs the
    // PROPOSE and relays the DECIDE), and no decide callback fires,
    // because the donated state already reflects the decision. decision()
    // reads it from the install on, as the group stacks do at resume.
    ServiceUnderTest t;
    consensus::ConsensusService& svc = *t.host->svc;
    EXPECT_EQ(svc.decision(5), nullptr);
    svc.installDecisions({{5, num(50)}});
    ASSERT_NE(svc.decision(5), nullptr);
    EXPECT_EQ(svc.decision(5)->get<uint64_t>(), 50u);
    // p2 coordinates round 1 of instance 5: members[(5 + 1 - 1) % 3].
    t.deliver(2, Type::kPropose, 5);
    t.deliver(2, Type::kDecide, 5);
    for (const auto* peer : t.peers) EXPECT_EQ(peer->got, ackThenDecide);
    EXPECT_TRUE(t.host->decisions.empty());
    // Decided here as well now; the table still holds the one value.
    ASSERT_NE(svc.decision(5), nullptr);
    EXPECT_EQ(svc.decision(5)->get<uint64_t>(), 50u);
  }
  {
    // Once the service decided the instance itself, a late ACK, DECIDE
    // or PROPOSE makes it send nothing and fire nothing.
    ServiceUnderTest t;
    t.deliver(2, Type::kPropose, 5);  // p0 ACKs, and counts its own ACK
    t.deliver(1, Type::kAck, 5);      // majority: p0 decides and relays
    ASSERT_EQ(t.host->decisionOrder, std::vector<Instance>{5});
    for (const auto* peer : t.peers) ASSERT_EQ(peer->got, ackThenDecide);
    t.deliver(2, Type::kAck, 5);
    t.deliver(2, Type::kDecide, 5);
    t.deliver(2, Type::kPropose, 5);
    for (const auto* peer : t.peers) EXPECT_EQ(peer->got, ackThenDecide);
    EXPECT_EQ(t.host->decisionOrder, std::vector<Instance>{5});
  }
}

}  // namespace
}  // namespace wanmc
