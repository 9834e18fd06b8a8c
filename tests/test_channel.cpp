// Unit tests for the reliable retransmitting channel substrate
// (src/channel/): every packet reaches a live receiver exactly once, handed
// up when it first arrives, so a lost copy holds back no later one;
// selective-repeat loss recovery (hole requests, per-packet deadlines on
// per-link-class timeouts, capped backoff); duplicate and stale-incarnation
// suppression, including across a re-key; the send window; and the loss
// model underneath it all.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "channel/channel.hpp"
#include "core/experiment.hpp"
#include "sim/runtime.hpp"

namespace wanmc {
namespace {

struct TestMsg final : Payload {
  explicit TestMsg(int i) : id(i) {}
  int id;
  [[nodiscard]] Layer layer() const override { return Layer::kProtocol; }
  [[nodiscard]] std::string debugString() const override {
    return "t" + std::to_string(id);
  }
};

class ChanHost final : public sim::Node {
 public:
  using sim::Node::Node;
  void onMessage(ProcessId from, const PayloadPtr& p) override {
    if (const auto* m = dynamic_cast<const TestMsg*>(p.get())) {
      got.push_back({from, m->id});
      at.push_back(now());
    }
  }
  std::vector<std::pair<ProcessId, int>> got;
  std::vector<SimTime> at;  // arrival time of each entry of `got`
};

struct ChanFixture {
  ChanFixture(int groups, int procs, sim::LatencyModel lm,
              channel::Config cfg = {}, uint64_t seed = 1)
      : rt(Topology(groups, procs), lm, seed), plane(rt, cfg) {
    rt.setChannelHook(&plane);
    for (ProcessId p = 0; p < rt.topology().numProcesses(); ++p) {
      auto n = std::make_unique<ChanHost>(rt, p);
      hosts.push_back(n.get());
      rt.attach(p, std::move(n));
    }
    rt.setNodeFactory([this](ProcessId p) {
      auto n = std::make_unique<ChanHost>(rt, p);
      hosts[static_cast<size_t>(p)] = n.get();
      return n;
    });
    rt.start();
  }

  std::vector<int> idsAt(ProcessId p) const {
    std::vector<int> out;
    for (const auto& [from, id] : hosts[static_cast<size_t>(p)]->got)
      out.push_back(id);
    return out;
  }
  // The ids p got, sorted: iota(n) means each of ids 0..n-1 exactly once.
  std::vector<int> sortedIdsAt(ProcessId p) const {
    std::vector<int> out = idsAt(p);
    std::sort(out.begin(), out.end());
    return out;
  }

  sim::Runtime rt;
  channel::Plane plane;
  std::vector<ChanHost*> hosts;
};

std::vector<int> iota(int n) {
  std::vector<int> out;
  for (int i = 0; i < n; ++i) out.push_back(i);
  return out;
}

// ---------------------------------------------------------------------------
// Counters on a clean link; reordered copies.
// ---------------------------------------------------------------------------

TEST(Channel, CleanLinkDeliversInOrderWithMinimalTraffic) {
  ChanFixture f(1, 3, sim::LatencyModel::fixed(kMs, 100 * kMs));
  for (int i = 0; i < 8; ++i)
    f.rt.multicast(0, {1, 2}, std::make_shared<TestMsg>(i));
  f.rt.run(10 * kSec);
  EXPECT_EQ(f.idsAt(1), iota(8));
  EXPECT_EQ(f.idsAt(2), iota(8));
  const auto& s = f.plane.stats();
  EXPECT_EQ(s.dataSent, 16u);   // one per (message, destination)
  EXPECT_EQ(s.delivered, 16u);
  EXPECT_EQ(s.acksSent, 16u);   // one cumulative ACK per DATA arrival
  EXPECT_EQ(s.retransmits, 0u);  // nothing lost: the RTO never fires
  EXPECT_EQ(s.nacksSent, 0u);
  EXPECT_EQ(s.duplicatesDropped, 0u);
  EXPECT_EQ(s.staleDropped, 0u);
  EXPECT_EQ(s.holdbackOverflow, 0u);
}

TEST(Channel, ReorderedCopiesAreEachHandedUpOnce) {
  // Wide iid jitter: 30 copies drawn independently from [1ms, 50ms] arrive
  // scrambled. The link hands each up once, as it arrives.
  ChanFixture f(1, 2, sim::LatencyModel{kMs, 50 * kMs, kMs, 50 * kMs});
  for (int i = 0; i < 30; ++i)
    f.rt.send(0, 1, std::make_shared<TestMsg>(i));
  f.rt.run(30 * kSec);
  EXPECT_EQ(f.sortedIdsAt(1), iota(30));
  EXPECT_NE(f.idsAt(1), iota(30));  // not in send order: no holdback
  EXPECT_EQ(f.plane.stats().delivered, 30u);
  // The premise actually bit: at least one arrival opened a gap.
  EXPECT_GT(f.plane.stats().nacksSent, 0u)
      << "seed 1 must scramble at least one pair for this test to bite; "
         "pick another seed if the latency RNG changes";
}

// ---------------------------------------------------------------------------
// Loss recovery.
// ---------------------------------------------------------------------------

TEST(Channel, LossIsRecoveredExactlyOnce) {
  ChanFixture f(2, 1, sim::LatencyModel::fixed(kMs, 100 * kMs));
  f.rt.setLossRate(0.3);
  for (int i = 0; i < 30; ++i)
    f.rt.send(0, 1, std::make_shared<TestMsg>(i));
  f.rt.run(120 * kSec);
  EXPECT_EQ(f.sortedIdsAt(1), iota(30));  // every loss masked, no dup
  const auto& s = f.plane.stats();
  EXPECT_GT(f.rt.trace().lossDrops, 0u);
  EXPECT_GT(s.retransmits, 0u);
  EXPECT_EQ(s.delivered, 30u);
  // A retransmitted copy whose original got through is suppressed by seq.
  EXPECT_GT(s.duplicatesDropped, 0u);
}

// Drops the first `copies` transmissions of seq 0 on any link.
auto dropSeq0(int& dropped, int copies) {
  return [&dropped, copies](ProcessId, ProcessId, const Payload& p) {
    const auto* d = dynamic_cast<const channel::DataPacket*>(&p);
    if (d != nullptr && d->seq == 0 && dropped < copies) {
      ++dropped;
      return true;
    }
    return false;
  };
}

TEST(Channel, ALostCopyDoesNotHoldBackLaterCopies) {
  // Seq 0's first copy is lost on a 100 ms link. Seqs 1..4 reach the host
  // as they arrive; seq 0 follows one request round trip later.
  ChanFixture f(2, 1, sim::LatencyModel::fixed(kMs, 100 * kMs));
  int dropped = 0;
  f.rt.setDropFilter(dropSeq0(dropped, 1));
  for (int i = 0; i < 5; ++i)
    f.rt.send(0, 1, std::make_shared<TestMsg>(i));
  f.rt.run(30 * kSec);
  EXPECT_EQ(f.idsAt(1), (std::vector<int>{1, 2, 3, 4, 0}));
  EXPECT_EQ(f.hosts[1]->at,
            (std::vector<SimTime>{100 * kMs, 100 * kMs, 100 * kMs, 100 * kMs,
                                  300 * kMs}));
  EXPECT_EQ(f.plane.stats().retransmits, 1u);
}

TEST(Channel, BoundedHoldbackOverflowStillConvergesViaRetransmit) {
  // Drop the first transmission of seq 0 only, with a 2-packet send
  // window: seqs 0 and 1 go out, 2..4 wait for the base to slide. The
  // receiver hands seq 1 up and tracks it past the gap, never more than
  // that (the window bounds it); the hole request resends seq 0, and the
  // sliding window releases the rest.
  channel::Config cfg;
  cfg.holdbackCap = 2;
  ChanFixture f(1, 2, sim::LatencyModel::fixed(kMs, 100 * kMs), cfg);
  int dropped = 0;
  f.rt.setDropFilter(dropSeq0(dropped, 1));
  for (int i = 0; i < 5; ++i)
    f.rt.send(0, 1, std::make_shared<TestMsg>(i));
  f.rt.run(30 * kSec);
  EXPECT_EQ(f.idsAt(1), (std::vector<int>{1, 0, 2, 3, 4}));
  const auto& s = f.plane.stats();
  EXPECT_EQ(s.holdbackOverflow, 0u);  // the send window keeps it in bounds
  EXPECT_GT(s.nacksSent, 0u);         // the gap was requested...
  EXPECT_GT(s.retransmits, 0u);       // ...and re-offered
  EXPECT_EQ(s.delivered, 5u);
}

TEST(Channel, ZeroSendWindowIsRejected) {
  // A link that may never have a packet in flight would stall silently.
  sim::Runtime rt(Topology(1, 2), sim::LatencyModel::fixed(kMs, 100 * kMs),
                  1);
  channel::Config cfg;
  cfg.holdbackCap = 0;
  EXPECT_THROW(channel::Plane(rt, cfg), std::invalid_argument);
}

TEST(Channel, HeldCopiesAreNeverResent) {
  // 40 packets arrive past one lost packet. Every arrival widens the gap
  // and requests it again, but each request names only the hole: the 39
  // copies that arrived are SACKed, and the hole itself is resent once.
  ChanFixture f(1, 2, sim::LatencyModel::fixed(kMs, 100 * kMs));
  int dropped = 0;
  f.rt.setDropFilter(dropSeq0(dropped, 1));
  for (int i = 0; i < 40; ++i)
    f.rt.send(0, 1, std::make_shared<TestMsg>(i));
  f.rt.run(30 * kSec);
  std::vector<int> expected = iota(40);
  std::rotate(expected.begin(), expected.begin() + 1, expected.end());
  EXPECT_EQ(f.idsAt(1), expected);  // 1..39, then the resent 0
  const auto& s = f.plane.stats();
  EXPECT_EQ(s.retransmits, 1u);
  EXPECT_EQ(s.duplicatesDropped, 0u);
}

TEST(Channel, IntraGroupLossRecoversOnTheIntraTimeout) {
  // A lone lost copy on a 1 ms intra-group link, with nothing sent behind
  // it to trigger a request: the link's own timeout (2 x 1 ms + 1 ms), not
  // the 203 ms inter-group one, recovers it.
  ChanFixture f(2, 2, sim::LatencyModel::fixed(kMs, 100 * kMs));
  int dropped = 0;
  f.rt.setDropFilter(dropSeq0(dropped, 1));
  f.rt.send(0, 1, std::make_shared<TestMsg>(7));
  f.rt.run(5 * kMs);
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(f.idsAt(1), std::vector<int>{7});
}

TEST(Channel, LostRetransmissionIsRecovered) {
  // The original AND the requested resend of seq 0 are lost; the resend is
  // not requested again inside its request window, so the per-packet
  // deadline recovers it.
  ChanFixture f(1, 2, sim::LatencyModel::fixed(kMs, 100 * kMs));
  int dropped = 0;
  f.rt.setDropFilter(dropSeq0(dropped, 2));
  for (int i = 0; i < 5; ++i)
    f.rt.send(0, 1, std::make_shared<TestMsg>(i));
  f.rt.run(30 * kSec);
  EXPECT_EQ(dropped, 2);
  EXPECT_EQ(f.idsAt(1), (std::vector<int>{1, 2, 3, 4, 0}));
  EXPECT_LE(f.plane.stats().retransmits, 3u);
}

TEST(Channel, ZeroLossFifoRunRetransmitsNothing) {
  // A full A1 stack on jitter-free links: copies arrive in order, every ACK
  // beats its packet's deadline, so no copy is ever sent twice.
  core::RunConfig c;
  c.groups = 3;
  c.procsPerGroup = 3;
  c.seed = 3;
  c.protocol = core::ProtocolKind::kA1;
  c.latency = sim::LatencyModel::fixed(kMs, 100 * kMs);
  c.stack.reliableChannels = true;
  core::Experiment ex(c);
  ex.addWorkload(workload::Spec::openLoopPoisson(300, 3 * kMs, 2));
  auto r = ex.run();
  ASSERT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite()[0];
  const auto& s = r.metrics.channels;
  EXPECT_GT(s.dataSent, 0u);
  EXPECT_EQ(s.retransmits, 0u);
  EXPECT_EQ(s.duplicatesDropped, 0u);
}

TEST(Channel, DeadPeerIsProbedAtACappedRate) {
  // p1 is down for the whole run. The 3 ms intra-group timeout doubles on
  // every barren fire up to the absolute ceiling of 16 inter-group
  // timeouts (16 x 203 ms), so 10 unacked packets cost a bounded trickle.
  ChanFixture f(1, 2, sim::LatencyModel::fixed(kMs, 100 * kMs));
  f.rt.scheduleCrash(1, 0);
  f.rt.scheduler().at(kMs, [&f]() {
    for (int i = 0; i < 10; ++i)
      f.rt.send(0, 1, std::make_shared<TestMsg>(i));
  });
  f.rt.run(60 * kSec);
  const auto& s = f.plane.stats();
  EXPECT_GT(s.retransmits, 0u);
  EXPECT_LE(s.retransmits, 300u);
}

// ---------------------------------------------------------------------------
// Incarnations: stale suppression and link re-keying.
// ---------------------------------------------------------------------------

TEST(Channel, StaleIncarnationCopiesAreDroppedNotDelivered) {
  // p0's first DATA (incarnation 0, seq 0) is still in flight when p0
  // crashes and recovers; the fresh incarnation reuses seq 0 for a NEW
  // message. Without the (sender incarnation, seq) key the straggler
  // would either be delivered under the fresh space or suppress the
  // legitimate fresh seq 0.
  ChanFixture f(2, 1, sim::LatencyModel::fixed(kMs, 100 * kMs));
  f.rt.send(0, 1, std::make_shared<TestMsg>(100));  // inc 0, arrives t=100ms
  f.rt.scheduleCrash(0, 10 * kMs);
  f.rt.scheduleRecover(0, 20 * kMs);
  f.rt.scheduler().at(30 * kMs, [&f]() {
    f.rt.send(0, 1, std::make_shared<TestMsg>(200));  // inc 1, seq 0 again
  });
  f.rt.run(10 * kSec);
  EXPECT_EQ(f.idsAt(1), std::vector<int>{200});
  EXPECT_EQ(f.plane.stats().staleDropped, 1u);
  EXPECT_EQ(f.plane.stats().delivered, 1u);
}

TEST(Channel, ReceiverRecoveryRekeysTheLinkAndReoffersTheBacklog) {
  // p1 acks ids 0..1, crashes, and rejoins as an amnesiac while p0 still
  // holds unacked ids 2..4. Their copies are addressed to the dead p1, so
  // the fresh p1 drops them, and its ACK reveals the new incarnation. p0
  // must re-key the link (a space addressed to the fresh p1, seqs from 0)
  // and re-offer the backlog, which the fresh p1 gets exactly once.
  ChanFixture f(2, 1, sim::LatencyModel::fixed(kMs, 100 * kMs));
  for (int i = 0; i < 2; ++i)
    f.rt.send(0, 1, std::make_shared<TestMsg>(i));
  // ids 0,1 arrive at 100ms, ACKs back at 200ms. Crash after the ACKs.
  f.rt.scheduleCrash(1, 250 * kMs);
  f.rt.scheduler().at(300 * kMs, [&f]() {
    for (int i = 2; i < 5; ++i)
      f.rt.send(0, 1, std::make_shared<TestMsg>(i));  // into the void
  });
  f.rt.scheduleRecover(1, 390 * kMs);  // alive again before the copies land
  f.rt.run(60 * kSec);
  // The fresh incarnation saw exactly the unacked backlog, once each
  // (ids 0..1 died with the old incarnation's state — by design).
  EXPECT_EQ(f.idsAt(1), (std::vector<int>{2, 3, 4}));
  EXPECT_GT(f.plane.stats().retransmits, 0u);
}

TEST(Channel, ReKeyNeverHandsAnIncarnationTheSamePacketTwice) {
  // Seq 0's first copy is lost, so id 0 is still unacked when p1 crashes
  // and recovers; its resend lands on the fresh p1. Handed up, it would
  // come again when p1's ACK makes p0 re-key and re-offer its window.
  ChanFixture f(2, 1, sim::LatencyModel::fixed(kMs, 100 * kMs));
  int dropped = 0;
  f.rt.setDropFilter(dropSeq0(dropped, 1));
  for (int i = 0; i < 2; ++i)
    f.rt.send(0, 1, std::make_shared<TestMsg>(i));
  // Seq 1 arrives at 100 ms and requests seq 0, resent at 200 ms.
  f.rt.scheduleCrash(1, 250 * kMs);
  f.rt.scheduleRecover(1, 260 * kMs);  // alive before the resend lands
  f.rt.run(60 * kSec);
  EXPECT_EQ(dropped, 1);
  EXPECT_GT(f.plane.stats().staleDropped, 0u);  // the resend met the fresh p1
  EXPECT_EQ(f.idsAt(1), (std::vector<int>{0, 1}));
}

// ---------------------------------------------------------------------------
// The loss model itself (channels off).
// ---------------------------------------------------------------------------

TEST(LossModel, DropsCopiesWithoutChannelsAndValidatesRange) {
  sim::Runtime rt(Topology(2, 1), sim::LatencyModel::fixed(kMs, 100 * kMs),
                  1);
  EXPECT_THROW(rt.setLossRate(-0.1), std::invalid_argument);
  EXPECT_THROW(rt.setLossRate(1.0), std::invalid_argument);
  rt.setLossRate(0.5);
  std::vector<ChanHost*> hosts;
  for (ProcessId p = 0; p < 2; ++p) {
    auto n = std::make_unique<ChanHost>(rt, p);
    hosts.push_back(n.get());
    rt.attach(p, std::move(n));
  }
  rt.start();
  for (int i = 0; i < 100; ++i)
    rt.send(0, 1, std::make_shared<TestMsg>(i));
  rt.run(10 * kSec);
  EXPECT_GT(rt.trace().lossDrops, 0u);
  EXPECT_EQ(hosts[1]->got.size() + rt.trace().lossDrops, 100u);
  EXPECT_GT(hosts[1]->got.size(), 0u);
}

TEST(LossModel, ZeroRateDrawsNoCoinsAndRunsAreByteIdentical) {
  // Arming then disarming nothing: a 0-loss run must match a run where
  // setLossRate was never called (the coin stream is gated, not merely
  // ignored) — this is what pins the 436 golden cells channels-off.
  auto runOnce = [](bool touchKnob) {
    sim::Runtime rt(Topology(2, 2),
                    sim::LatencyModel{kMs, 2 * kMs, 95 * kMs, 110 * kMs}, 7);
    if (touchKnob) rt.setLossRate(0.0);
    std::vector<ChanHost*> hosts;
    for (ProcessId p = 0; p < 4; ++p) {
      auto n = std::make_unique<ChanHost>(rt, p);
      hosts.push_back(n.get());
      rt.attach(p, std::move(n));
    }
    rt.start();
    for (int i = 0; i < 20; ++i)
      rt.multicast(0, {1, 2, 3}, std::make_shared<TestMsg>(i));
    rt.run(10 * kSec);
    std::vector<std::pair<ProcessId, int>> all;
    for (auto* h : hosts)
      all.insert(all.end(), h->got.begin(), h->got.end());
    return all;
  };
  EXPECT_EQ(runOnce(false), runOnce(true));
}

}  // namespace
}  // namespace wanmc
