// The batching plane (PR 6): carrier codec, window/size flush semantics,
// batch-internal delivery order, crashed-sender window boundaries, and the
// determinism contract (serial == parallel sweeps for batched scenarios).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/batch.hpp"
#include "core/experiment.hpp"
#include "testing/scenario.hpp"
#include "verify/properties.hpp"

namespace wanmc {
namespace {

using core::Experiment;
using core::ProtocolKind;
using core::RunConfig;

// ---------------------------------------------------------------------------
// Carrier codec.
// ---------------------------------------------------------------------------

TEST(BatchCodec, RoundTripPreservesIdsAndBodies) {
  const GroupSet dest = GroupSet::of({0, 1});
  std::vector<AppMsgPtr> casts = {
      makeAppMessage(7, 3, dest, "alpha"),
      makeAppMessage(9, 3, dest, ""),  // empty body survives
      makeAppMessage(12, 3, dest, std::string("\x00\x01\xff", 3)),
  };
  const std::string wire = encodeBatchBody(casts);
  const auto back = decodeBatchBody(3, dest, wire);
  ASSERT_EQ(back.size(), casts.size());
  for (size_t i = 0; i < casts.size(); ++i) {
    EXPECT_EQ(back[i]->id, casts[i]->id);
    EXPECT_EQ(back[i]->body, casts[i]->body);
    EXPECT_EQ(back[i]->sender, 3);
    EXPECT_EQ(back[i]->dest.bits(), dest.bits());
    EXPECT_FALSE(back[i]->batch);
  }
}

TEST(BatchCodec, MalformedBuffersThrow) {
  const GroupSet dest = GroupSet::single(0);
  std::vector<AppMsgPtr> casts = {makeAppMessage(1, 0, dest, "payload")};
  const std::string wire = encodeBatchBody(casts);

  // Truncations at every prefix length must throw, never read past the end.
  for (size_t cut = 0; cut < wire.size(); ++cut)
    EXPECT_THROW(decodeBatchBody(0, dest, wire.substr(0, cut)),
                 std::invalid_argument)
        << "cut=" << cut;
  // Trailing garbage is malformed too.
  EXPECT_THROW(decodeBatchBody(0, dest, wire + "x"), std::invalid_argument);
  // A count that promises more entries than the buffer holds.
  std::string lying(wire);
  lying[0] = '\x07';
  EXPECT_THROW(decodeBatchBody(0, dest, lying), std::invalid_argument);
}

TEST(BatchCodec, CarrierIsFlaggedAndExposesConstituents) {
  const GroupSet dest = GroupSet::of({0, 1});
  std::vector<AppMsgPtr> casts = {makeAppMessage(1, 0, dest, "a"),
                                  makeAppMessage(2, 0, dest, "b")};
  AppMsgPtr carrier = makeCarrier(100, 0, dest, casts);
  ASSERT_NE(asBatch(carrier), nullptr);
  EXPECT_TRUE(carrier->batch);
  EXPECT_EQ(carrier->id, 100u);
  ASSERT_EQ(asBatch(carrier)->casts.size(), 2u);
  EXPECT_EQ(asBatch(carrier)->casts[0]->id, 1u);
  EXPECT_EQ(asBatch(carrier)->casts[1]->id, 2u);
  // The carrier body is the wire encoding of its constituents.
  EXPECT_EQ(carrier->body, encodeBatchBody(casts));
  // A plain message is not a carrier.
  EXPECT_EQ(asBatch(casts[0]), nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end batching semantics through Experiment.
// ---------------------------------------------------------------------------

RunConfig batchedConfig(SimTime window, int maxSize) {
  RunConfig cfg;
  cfg.groups = 3;
  cfg.procsPerGroup = 2;
  cfg.protocol = ProtocolKind::kA1;
  cfg.stack.batchWindow = window;
  cfg.stack.batchMaxSize = maxSize;
  return cfg;
}

TEST(Batching, WindowCoalescesAndDeliversInBatchOrder) {
  Experiment ex(batchedConfig(30 * kMs, 0));
  const GroupSet d01 = GroupSet::of({0, 1});
  // Three casts inside one window with the same (sender, dest) key, plus
  // one with a different destination set (its own batch).
  const MsgId m1 = ex.castAt(10 * kMs, 0, d01, "a");
  const MsgId m2 = ex.castAt(12 * kMs, 0, d01, "b");
  const MsgId m3 = ex.castAt(14 * kMs, 0, d01, "c");
  const MsgId m4 = ex.castAt(11 * kMs, 0, GroupSet::of({0, 2}), "d");
  auto r = ex.run(10 * kSec);

  EXPECT_TRUE(r.checkAtomicSuite().empty()) << r.checkAtomicSuite().size();

  // Carriers never surface in the trace: every cast and delivery is a
  // constituent id, and casts are recorded at enqueue time (the window
  // wait counts as latency; the cast timestamp is the application's).
  ASSERT_EQ(r.trace.casts.size(), 4u);
  for (const auto& c : r.trace.casts)
    EXPECT_TRUE(c.msg == m1 || c.msg == m2 || c.msg == m3 || c.msg == m4);
  EXPECT_EQ(r.trace.castOf(m1)->when, 10 * kMs);
  EXPECT_EQ(r.trace.castOf(m3)->when, 14 * kMs);
  for (const auto& dv : r.trace.deliveries)
    EXPECT_TRUE(dv.msg == m1 || dv.msg == m2 || dv.msg == m3 || dv.msg == m4)
        << "carrier id " << dv.msg << " leaked into the trace";

  // Every addressee of the batch delivers its casts contiguously, in
  // batch-internal (enqueue) order: m1, m2, m3 back to back.
  const auto seqs = r.trace.sequences();
  for (ProcessId p : {0, 1, 2, 3}) {
    const auto& seq = seqs.at(p);
    auto it1 = std::find(seq.begin(), seq.end(), m1);
    ASSERT_NE(it1, seq.end()) << "p" << p;
    ASSERT_LE(it1 + 3, seq.end()) << "p" << p;
    EXPECT_EQ(*(it1 + 1), m2) << "p" << p;
    EXPECT_EQ(*(it1 + 2), m3) << "p" << p;
  }
  // Group 2's members see only the second batch.
  for (ProcessId p : {4, 5}) EXPECT_EQ(seqs.at(p), std::vector<MsgId>{m4});
}

TEST(Batching, SizeBoundFlushesBeforeTheWindowExpires) {
  // Window far beyond the horizon of the first flush: only the size bound
  // can explain an early delivery.
  Experiment ex(batchedConfig(10 * kSec, 2));
  const GroupSet d01 = GroupSet::of({0, 1});
  const MsgId m1 = ex.castAt(10 * kMs, 0, d01, "a");
  const MsgId m2 = ex.castAt(20 * kMs, 0, d01, "b");
  // A third cast re-opens the key; its batch is window-held to 10.03s.
  const MsgId m3 = ex.castAt(30 * kMs, 0, d01, "c");
  auto r = ex.run(60 * kSec);

  EXPECT_TRUE(r.checkAtomicSuite().empty());
  SimTime firstPair = kTimeNever, third = kTimeNever;
  for (const auto& dv : r.trace.deliveries) {
    if (dv.msg == m1 || dv.msg == m2) firstPair = std::min(firstPair, dv.when);
    if (dv.msg == m3) third = std::min(third, dv.when);
  }
  EXPECT_LT(firstPair, 10 * kSec) << "size bound did not flush early";
  EXPECT_GE(third, 30 * kMs + 10 * kSec) << "window hold was not honored";
}

TEST(Batching, CrashBeforeWindowExpiryDropsTheBatch) {
  // Satellite: a flush timer must not fire on behalf of a dead sender. The
  // cast is enqueued at 100ms, the 50ms window would flush at 150ms, and
  // the sender dies at 120ms: nothing may be delivered anywhere.
  RunConfig cfg = batchedConfig(50 * kMs, 0);
  cfg.groups = 2;
  Experiment ex(cfg);
  ex.castAt(100 * kMs, 0, GroupSet::of({0, 1}), "doomed");
  ex.crashAt(0, 120 * kMs);
  auto r = ex.run(10 * kSec);

  // The cast is on record (it happened), but the batch died with its
  // sender — validity only binds casts by correct processes.
  EXPECT_EQ(r.trace.casts.size(), 1u);
  EXPECT_TRUE(r.trace.deliveries.empty());
  EXPECT_TRUE(r.checkAtomicSuite().empty());
}

TEST(Batching, RecoverBeforeFlushStartsAFreshBatch) {
  // Crash at 120ms, recover at 140ms: at window expiry (150ms) the sender
  // is alive again but under a NEW incarnation — the old batch belongs to
  // the dead one and is dropped, not flushed. A later cast from the fresh
  // incarnation batches and delivers normally.
  RunConfig cfg = batchedConfig(50 * kMs, 0);
  cfg.groups = 2;
  cfg.stack.consensusRoundTimeout = 2 * kSec;
  Experiment ex(cfg);
  const GroupSet d01 = GroupSet::of({0, 1});
  const MsgId m1 = ex.castAt(100 * kMs, 0, d01, "old-incarnation");
  ex.crashAt(0, 120 * kMs);
  ex.recoverAt(0, 140 * kMs);
  const MsgId m2 = ex.castAt(300 * kMs, 0, d01, "fresh-incarnation");
  auto r = ex.run(30 * kSec);

  EXPECT_TRUE(r.checkAtomicSuite().empty());
  int m1Deliveries = 0, m2Deliveries = 0;
  for (const auto& dv : r.trace.deliveries) {
    m1Deliveries += dv.msg == m1;
    m2Deliveries += dv.msg == m2;
  }
  EXPECT_EQ(m1Deliveries, 0) << "dead incarnation's batch was flushed";
  EXPECT_EQ(m2Deliveries, 4) << "fresh incarnation's cast must reach all";
}

TEST(Batching, ReducesOrderingTrafficForTheSameWorkload) {
  auto runWith = [](SimTime window) {
    Experiment ex(batchedConfig(window, 0));
    const GroupSet d01 = GroupSet::of({0, 1});
    for (int i = 0; i < 6; ++i)
      ex.castAt((10 + i) * kMs, 0, d01, std::to_string(i));
    return ex.run(30 * kSec);
  };
  auto unbatched = runWith(0);
  auto batched = runWith(40 * kMs);

  // Same delivered ids at every process...
  auto ids = [](const core::RunResult& r) {
    auto seqs = r.trace.sequences();
    for (auto& [p, seq] : seqs) std::sort(seq.begin(), seq.end());
    return seqs;
  };
  EXPECT_EQ(ids(unbatched), ids(batched));
  // ...for strictly fewer ordering-layer messages: six protocol instances
  // collapse into one.
  const uint64_t costU = unbatched.traffic.at(Layer::kProtocol).total() +
                         unbatched.traffic.at(Layer::kConsensus).total();
  const uint64_t costB = batched.traffic.at(Layer::kProtocol).total() +
                         batched.traffic.at(Layer::kConsensus).total();
  EXPECT_LT(costB, costU);
}

// ---------------------------------------------------------------------------
// Determinism contract: a batched scenario sweeps identically serial and
// parallel (same pinning the golden matrix relies on for the batch cells).
// ---------------------------------------------------------------------------

TEST(BatchedSweep, SerialAndParallelFingerprintsMatch) {
  testing::Scenario s;
  s.name = "a1/batched-sweep";
  s.config.groups = 3;
  s.config.procsPerGroup = 3;
  s.config.protocol = ProtocolKind::kA1;
  s.config.stack.batchWindow = 50 * kMs;
  s.config.stack.batchMaxSize = 4;
  s.latency = testing::LatencyPreset::kWan;
  auto w = workload::Spec::openLoopPoisson(24, 10 * kMs, 2);
  w.senderZipf = 1.5;
  w.destZipf = 1.5;
  s.workload = w;
  s.runUntil = 30 * kSec;
  s.withDefaultExpectations();

  const int kCount = 6;
  auto serial = testing::ScenarioRunner(s).sweepSeeds(1, kCount, /*jobs=*/1);
  auto parallel = testing::ScenarioRunner(s).sweepSeeds(1, kCount, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].ok()) << serial[i].report();
    EXPECT_EQ(serial[i].fingerprint, parallel[i].fingerprint)
        << "batched sweep diverged at seed " << serial[i].seed;
  }
}

}  // namespace
}  // namespace wanmc
