// Unit tests for reliable multicast (non-uniform and uniform variants).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "rmcast/rmcast.hpp"
#include "sim/runtime.hpp"

namespace wanmc {
namespace {

using rmcast::ReliableMulticast;
using rmcast::RmPayload;
using rmcast::Uniformity;

class RmHost final : public sim::Node {
 public:
  RmHost(sim::Runtime& rt, ProcessId pid, Uniformity uniformity)
      : sim::Node(rt, pid), rm(rt, pid, uniformity) {
    rm.onDeliver([this](const AppMsgPtr& m) { delivered.push_back(m->id); });
  }
  void onMessage(ProcessId from, const PayloadPtr& p) override {
    rm.onMessage(from, static_cast<const RmPayload&>(*p));
  }
  ReliableMulticast rm;
  std::vector<MsgId> delivered;
};

struct Fixture {
  Fixture(int groups, int procs, Uniformity uni = Uniformity::kNonUniform,
          uint64_t seed = 1)
      : rt(Topology(groups, procs),
           sim::LatencyModel::fixed(kMs, 100 * kMs), seed) {
    for (ProcessId p = 0; p < groups * procs; ++p) {
      auto n = std::make_unique<RmHost>(rt, p, uni);
      hosts.push_back(n.get());
      rt.attach(p, std::move(n));
    }
    rt.start();
  }
  sim::Runtime rt;
  std::vector<RmHost*> hosts;
};

TEST(RMcastNonUniform, DeliversToAllAddressees) {
  Fixture f(3, 2);
  auto m = makeAppMessage(1, 0, GroupSet::of({0, 1}));
  f.hosts[0]->rm.rmcast(m);
  f.rt.run();
  for (ProcessId p = 0; p < 4; ++p)
    EXPECT_EQ(f.hosts[p]->delivered, std::vector<MsgId>{1}) << "p" << p;
  // Group 2 is not an addressee.
  EXPECT_TRUE(f.hosts[4]->delivered.empty());
  EXPECT_TRUE(f.hosts[5]->delivered.empty());
}

TEST(RMcastNonUniform, SenderOutsideDestDoesNotDeliver) {
  Fixture f(2, 2);
  auto m = makeAppMessage(1, 0, GroupSet::of({1}));
  f.hosts[0]->rm.rmcast(m);
  f.rt.run();
  EXPECT_TRUE(f.hosts[0]->delivered.empty());
  EXPECT_EQ(f.hosts[2]->delivered, std::vector<MsgId>{1});
  EXPECT_EQ(f.hosts[3]->delivered, std::vector<MsgId>{1});
}

TEST(RMcastNonUniform, NoDuplicateDeliveries) {
  Fixture f(2, 3);
  auto m = makeAppMessage(1, 0, GroupSet::of({0, 1}));
  f.hosts[0]->rm.rmcast(m);
  f.rt.run();
  for (auto* h : f.hosts) EXPECT_LE(h->delivered.size(), 1u);
}

TEST(RMcastNonUniform, InterGroupMessageCountMatchesPaper) {
  // [6]-style accounting: a multicast from p to k groups (p's group being
  // one of them) costs d(k-1) inter-group messages.
  const int d = 3, k = 3;
  Fixture f(k, d);
  auto m = makeAppMessage(1, 0, GroupSet::of({0, 1, 2}));
  f.hosts[0]->rm.rmcast(m);
  f.rt.run();
  EXPECT_EQ(f.rt.traffic().at(Layer::kReliableMulticast).inter,
            static_cast<uint64_t>(d * (k - 1)));
}

TEST(RMcastNonUniform, LatencyDegreeOne) {
  // One inter-group delay from R-MCast to the last R-Deliver.
  Fixture f(2, 2);
  auto m = makeAppMessage(1, 0, GroupSet::of({0, 1}));
  f.hosts[0]->rm.rmcast(m);
  f.rt.run();
  // All deliveries happened by one WAN delay (100ms) + relay slack.
  EXPECT_LE(f.rt.now(), 102 * kMs);
}

TEST(RMcastNonUniform, ExplicitDestOverride) {
  // A2's usage: R-MCast to the sender's own group although m.dest = Gamma.
  Fixture f(2, 2);
  auto m = makeAppMessage(1, 0, GroupSet::all(2));
  f.hosts[0]->rm.rmcastOwnGroup(m);
  f.rt.run();
  EXPECT_EQ(f.hosts[0]->delivered, std::vector<MsgId>{1});
  EXPECT_EQ(f.hosts[1]->delivered, std::vector<MsgId>{1});
  EXPECT_TRUE(f.hosts[2]->delivered.empty());
  EXPECT_TRUE(f.hosts[3]->delivered.empty());
  EXPECT_EQ(f.rt.traffic().at(Layer::kReliableMulticast).inter, 0u);
}

TEST(RMcastNonUniform, IntraGroupAgreementUnderOmission) {
  // Drop the sender's direct packet to p1; the intra-group relay from p2
  // must still deliver m at p1 (agreement within the group).
  Fixture f(2, 3);
  f.rt.setDropFilter([](ProcessId from, ProcessId to, const Payload& p) {
    const auto* rm = dynamic_cast<const RmPayload*>(&p);
    return rm != nullptr && !rm->isRelay && from == 0 && to == 4;
  });
  auto m = makeAppMessage(1, 0, GroupSet::of({0, 1}));
  f.hosts[0]->rm.rmcast(m);
  f.rt.run();
  EXPECT_EQ(f.hosts[4]->delivered, std::vector<MsgId>{1});
}

TEST(RMcastUniform, DeliversAfterMajorityCopies) {
  Fixture f(2, 3, Uniformity::kUniform);
  auto m = makeAppMessage(1, 0, GroupSet::of({0, 1}));
  f.hosts[0]->rm.rmcast(m);
  f.rt.run();
  for (ProcessId p = 0; p < 6; ++p)
    EXPECT_EQ(f.hosts[p]->delivered, std::vector<MsgId>{1}) << "p" << p;
}

TEST(RMcastUniform, StillLatencyDegreeOne) {
  // The majority copies are intra-group: uniformity does not add an
  // inter-group delay (matches the paper's degree-1 accounting for [6]).
  // Note: relays keep flying after the last delivery, so we check
  // delivery times, not when the event queue drains.
  Fixture f(2, 3, Uniformity::kUniform);
  std::vector<SimTime> deliveredAt(6, -1);
  for (ProcessId p = 0; p < 6; ++p)
    f.hosts[p]->rm.onDeliver([&, p](const AppMsgPtr&) {
      deliveredAt[static_cast<size_t>(p)] = f.rt.now();
    });
  auto m = makeAppMessage(1, 0, GroupSet::of({0, 1}));
  f.hosts[0]->rm.rmcast(m);
  f.rt.run();
  for (ProcessId p = 0; p < 6; ++p) {
    ASSERT_GE(deliveredAt[static_cast<size_t>(p)], 0) << "p" << p;
    EXPECT_LE(deliveredAt[static_cast<size_t>(p)], 104 * kMs) << "p" << p;
  }
}

TEST(RMcastUniform, SingleProcessGroups) {
  Fixture f(3, 1, Uniformity::kUniform);
  auto m = makeAppMessage(1, 0, GroupSet::of({0, 1, 2}));
  f.hosts[0]->rm.rmcast(m);
  f.rt.run();
  for (ProcessId p = 0; p < 3; ++p)
    EXPECT_EQ(f.hosts[p]->delivered, std::vector<MsgId>{1});
}

TEST(RMcastUniform, CountsDistinctSendersNotCopies) {
  // One group of 5: a majority is 3 copies, p1's own sighting included.
  // Every relay to p1 but p0's is dropped, so p1 gets two copies of m,
  // p0's R-MCast and p0's relay, from one sender: two senders with p1.
  Fixture f(1, 5, Uniformity::kUniform);
  f.rt.setDropFilter([](ProcessId from, ProcessId to, const Payload& p) {
    const auto* rm = dynamic_cast<const RmPayload*>(&p);
    return rm != nullptr && rm->isRelay && to == 1 && from != 0;
  });
  auto m = makeAppMessage(1, 0, GroupSet::single(0));
  f.hosts[0]->rm.rmcast(m);
  f.rt.run();
  EXPECT_TRUE(f.hosts[1]->delivered.empty());
  for (ProcessId p : {0, 2, 3, 4})
    EXPECT_EQ(f.hosts[p]->delivered, std::vector<MsgId>{1}) << "p" << p;
  // Let p2's relay through: a third sender.
  f.hosts[1]->rm.onMessage(2, RmPayload(m, /*relay=*/true));
  EXPECT_EQ(f.hosts[1]->delivered, std::vector<MsgId>{1});
  f.hosts[1]->rm.onMessage(3, RmPayload(m, /*relay=*/true));
  EXPECT_EQ(f.hosts[1]->delivered, std::vector<MsgId>{1});  // once
}

TEST(RMcast, ManyMessagesAllDelivered) {
  Fixture f(3, 2);
  for (MsgId i = 1; i <= 50; ++i) {
    auto m = makeAppMessage(i, static_cast<ProcessId>(i % 6),
                            GroupSet::of({0, 1, 2}));
    f.hosts[static_cast<size_t>(i % 6)]->rm.rmcast(m);
  }
  f.rt.run();
  for (auto* h : f.hosts) EXPECT_EQ(h->delivered.size(), 50u);
}

TEST(RMcast, DeliverCallbackMayRMcastWhileItsRecordIsInUse) {
  // sight() holds m's record while m's deliver callbacks run. The second
  // callback here R-MCasts 200 fresh messages per original, adding records
  // meanwhile; the third then reads m through the same record.
  Fixture f(1, 3);
  RmHost& h = *f.hosts[0];
  MsgId next = 1000;
  h.rm.onDeliver([&](const AppMsgPtr& m) {
    if (m->id >= 1000) return;  // only the originals cascade
    for (int i = 0; i < 200; ++i)
      h.rm.rmcast(makeAppMessage(next++, 0, GroupSet::single(0)));
  });
  std::vector<MsgId> third;
  h.rm.onDeliver([&](const AppMsgPtr& m) { third.push_back(m->id); });
  for (MsgId id = 1; id <= 3; ++id)
    h.rm.rmcast(makeAppMessage(id, 0, GroupSet::single(0)));
  f.rt.run();
  std::vector<MsgId> want = {1, 2, 3};
  for (MsgId id = 1000; id < next; ++id) want.push_back(id);
  std::sort(third.begin(), third.end());
  EXPECT_EQ(third, want);
  for (auto* host : f.hosts) {
    std::vector<MsgId> got = host->delivered;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "p" << host->pid();
  }
}

}  // namespace
}  // namespace wanmc
