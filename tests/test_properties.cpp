// Tests for the verify layer itself: each checker must catch planted
// violations and accept clean traces.
#include <gtest/gtest.h>

#include "verify/properties.hpp"

namespace wanmc {
namespace {

struct Builder {
  Topology topo{2, 2};
  RunTrace trace;
  std::set<ProcessId> correct{0, 1, 2, 3};

  void cast(MsgId id, ProcessId sender, GroupSet dest, uint64_t lamport = 0,
            SimTime when = 0) {
    trace.casts.push_back(CastEvent{sender, id, dest, lamport, when});
  }
  void deliver(ProcessId p, MsgId id, uint64_t lamport = 0,
               SimTime when = 0) {
    trace.deliveries.push_back(DeliveryEvent{
        p, id, lamport, when,
        static_cast<uint64_t>(trace.deliveries.size())});
  }
  [[nodiscard]] verify::CheckContext ctx() const {
    return verify::CheckContext{&trace, &topo, correct};
  }
};

TEST(Integrity, AcceptsCleanTrace) {
  Builder b;
  b.cast(1, 0, GroupSet::of({0, 1}));
  for (ProcessId p = 0; p < 4; ++p) b.deliver(p, 1);
  EXPECT_TRUE(verify::checkUniformIntegrity(b.ctx()).empty());
}

TEST(Integrity, CatchesDuplicateDelivery) {
  Builder b;
  b.cast(1, 0, GroupSet::of({0}));
  b.deliver(0, 1);
  b.deliver(0, 1);
  EXPECT_FALSE(verify::checkUniformIntegrity(b.ctx()).empty());
}

TEST(Integrity, CatchesDeliveryWithoutCast) {
  Builder b;
  b.deliver(0, 99);
  EXPECT_FALSE(verify::checkUniformIntegrity(b.ctx()).empty());
}

TEST(Integrity, CatchesNonAddresseeDelivery) {
  Builder b;
  b.cast(1, 0, GroupSet::of({0}));
  b.deliver(2, 1);  // p2 is in group 1
  EXPECT_FALSE(verify::checkUniformIntegrity(b.ctx()).empty());
}

// Every integrity outcome in one trace, in report order: per delivery, a
// never-cast line then a non-addressee line; then the repeats by
// (process, incarnation, message), whether the id was cast or lies past
// the last cast.
TEST(Integrity, PinsEveryOutcomeInOrder) {
  Builder b;
  b.cast(1, 0, GroupSet::of({0}));
  b.cast(3, 0, GroupSet::of({0, 1}));
  b.deliver(0, 1, 0, 10);
  b.deliver(0, 2, 0, 11);  // never cast, below the last cast id
  b.deliver(2, 1, 0, 12);  // p2 is in group 1
  for (SimTime t : {13, 14, 15}) b.deliver(1, 1, 0, t);  // one incarnation
  b.deliver(0, 9, 0, 16);  // never cast, past the last cast id
  b.deliver(0, 9, 0, 17);
  // p2 delivers m3 again after an amnesiac recovery: a new incarnation.
  b.deliver(2, 3, 0, 20);
  b.trace.recoveries.push_back(RecoveryEvent{2, 30});
  b.deliver(2, 3, 0, 40);
  EXPECT_EQ(verify::checkUniformIntegrity(b.ctx()),
            (verify::Violations{"p0 delivered m2 which was never A-XCast",
                                "p0 delivered m2 but is not an addressee",
                                "p2 delivered m1 but is not an addressee",
                                "p0 delivered m9 which was never A-XCast",
                                "p0 delivered m9 but is not an addressee",
                                "p0 delivered m9 which was never A-XCast",
                                "p0 delivered m9 but is not an addressee",
                                "p0 delivered m9 2 times",
                                "p1 delivered m1 3 times"}));
}

TEST(Validity, CatchesMissingDeliveryAtCorrectAddressee) {
  Builder b;
  b.cast(1, 0, GroupSet::of({0, 1}));
  b.deliver(0, 1);
  b.deliver(1, 1);
  b.deliver(2, 1);  // p3 never delivers
  auto v = verify::checkValidity(b.ctx());
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("p3"), std::string::npos);
}

TEST(Validity, FaultySenderCreatesNoObligation) {
  Builder b;
  b.correct = {1, 2, 3};
  b.cast(1, 0, GroupSet::of({0, 1}));  // sender p0 crashed
  EXPECT_TRUE(verify::checkValidity(b.ctx()).empty());
}

TEST(Validity, FaultyAddresseeCreatesNoObligation) {
  Builder b;
  b.correct = {0, 1, 2};
  b.cast(1, 0, GroupSet::of({0, 1}));
  b.deliver(0, 1);
  b.deliver(1, 1);
  b.deliver(2, 1);
  EXPECT_TRUE(verify::checkValidity(b.ctx()).empty());
}

TEST(UniformAgreement, FaultyDeliveryCreatesObligation) {
  Builder b;
  b.correct = {1, 2, 3};
  b.cast(1, 0, GroupSet::of({0, 1}));
  b.deliver(0, 1);  // p0 delivered then crashed
  auto v = verify::checkUniformAgreement(b.ctx());
  EXPECT_FALSE(v.empty());
}

TEST(NonUniformAgreement, FaultyDeliveryCreatesNoObligation) {
  Builder b;
  b.correct = {1, 2, 3};
  b.cast(1, 0, GroupSet::of({0, 1}));
  b.deliver(0, 1);  // p0 delivered then crashed
  EXPECT_TRUE(verify::checkAgreementCorrectOnly(b.ctx()).empty());
}

// More than 64 processes: each per-message row spans two words, and the
// checkers must name the processes on both sides of the word boundary.
TEST(Agreement, NamesProcessesPastTheFirstWordOfARaggedTopology) {
  Builder b;
  b.topo = Topology(std::vector<int>{40, 30});  // g0 = p0..p39, g1 = p40..p69
  b.correct.clear();
  for (ProcessId p = 0; p < 70; ++p)
    if (p != 68) b.correct.insert(p);  // p68 crashed
  b.cast(1, 0, GroupSet::of({0, 1}));
  for (ProcessId p = 0; p < 70; ++p)
    if (p != 63 && p != 64 && p != 69) b.deliver(p, 1);
  EXPECT_EQ(verify::checkValidity(b.ctx()),
            (verify::Violations{
                "validity: correct p63 never delivered m1 cast by correct p0",
                "validity: correct p64 never delivered m1 cast by correct p0",
                "validity: correct p69 never delivered m1 cast by correct "
                "p0"}));
  const verify::Violations agreement{
      "agreement: correct p63 never delivered m1 although it was delivered "
      "elsewhere",
      "agreement: correct p64 never delivered m1 although it was delivered "
      "elsewhere",
      "agreement: correct p69 never delivered m1 although it was delivered "
      "elsewhere"};
  EXPECT_EQ(verify::checkAgreementCorrectOnly(b.ctx()), agreement);
  verify::Violations uniform;
  for (const auto& v : agreement) uniform.push_back("uniform " + v);
  EXPECT_EQ(verify::checkUniformAgreement(b.ctx()), uniform);

  // Only the crashed p68 delivered m2 (to g1): an obligation under uniform
  // agreement alone.
  b.cast(2, 40, GroupSet::of({1}));
  b.deliver(68, 2);
  EXPECT_EQ(verify::checkAgreementCorrectOnly(b.ctx()), agreement);
  const auto owed = verify::checkUniformAgreement(b.ctx());
  ASSERT_EQ(owed.size(), 3u + 29u);  // m2: every correct member of g1
  EXPECT_EQ(owed[3],
            "uniform agreement: correct p40 never delivered m2 although it "
            "was delivered elsewhere");
  EXPECT_EQ(owed.back(),
            "uniform agreement: correct p69 never delivered m2 although it "
            "was delivered elsewhere");
}

TEST(PrefixOrder, AcceptsConsistentProjections) {
  Builder b;
  b.cast(1, 0, GroupSet::of({0, 1}));
  b.cast(2, 2, GroupSet::of({0, 1}));
  for (ProcessId p = 0; p < 4; ++p) {
    b.deliver(p, 1);
    b.deliver(p, 2);
  }
  EXPECT_TRUE(verify::checkUniformPrefixOrder(b.ctx()).empty());
}

TEST(PrefixOrder, AcceptsPrefix) {
  Builder b;
  b.cast(1, 0, GroupSet::of({0, 1}));
  b.cast(2, 2, GroupSet::of({0, 1}));
  b.deliver(0, 1);
  b.deliver(0, 2);
  b.deliver(2, 1);  // p2 is behind but consistent
  EXPECT_TRUE(verify::checkUniformPrefixOrder(b.ctx()).empty());
}

TEST(PrefixOrder, CatchesOrderInversion) {
  Builder b;
  b.cast(1, 0, GroupSet::of({0, 1}));
  b.cast(2, 2, GroupSet::of({0, 1}));
  b.deliver(0, 1);
  b.deliver(0, 2);
  b.deliver(2, 2);
  b.deliver(2, 1);  // inverted
  EXPECT_EQ(verify::checkUniformPrefixOrder(b.ctx()),
            (verify::Violations{"prefix order violated between p0 and p2 at "
                                "position 0: m1 vs m2"}));
}

TEST(PrefixOrder, ProjectionIgnoresNonSharedMessages) {
  Builder b;
  // m1 -> groups {0,1}; m2 -> group {0} only. p0's sequence (m2, m1) and
  // p2's (m1) are consistent once projected on shared messages.
  b.cast(1, 0, GroupSet::of({0, 1}));
  b.cast(2, 0, GroupSet::of({0}));
  b.deliver(0, 2);
  b.deliver(0, 1);
  b.deliver(2, 1);
  EXPECT_TRUE(verify::checkUniformPrefixOrder(b.ctx()).empty());
}

TEST(Genuineness, FlagsOutsiderTraffic) {
  Builder b;
  b.cast(1, 0, GroupSet::of({0}));
  verify::GenuinenessInput in;
  in.sentAlgorithmic = {0, 1, 2};  // p2 (group 1) has no business here
  auto v = verify::checkGenuineness(b.ctx(), in);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("p2"), std::string::npos);
}

TEST(Genuineness, SenderOutsideDestIsAllowed) {
  Builder b;
  b.cast(1, 2, GroupSet::of({0}));  // p2 casts to a foreign group
  verify::GenuinenessInput in;
  in.sentAlgorithmic = {0, 1, 2};
  in.receivedAlgorithmic = {0, 1};
  EXPECT_TRUE(verify::checkGenuineness(b.ctx(), in).empty());
}

TEST(Quiescence, AcceptsPromptSettle) {
  Builder b;
  b.cast(1, 0, GroupSet::of({0}), 0, 1000);
  EXPECT_TRUE(verify::checkQuiescence(b.ctx(), 2000, 5000).empty());
}

TEST(Quiescence, FlagsLateTraffic) {
  Builder b;
  b.cast(1, 0, GroupSet::of({0}), 0, 1000);
  EXPECT_FALSE(verify::checkQuiescence(b.ctx(), 99000, 5000).empty());
}

}  // namespace
}  // namespace wanmc
