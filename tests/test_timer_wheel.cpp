// exec::TimerWheel, the per-thread timer store of the threaded backend:
// entries fire in due order as the clock advances, cancel() is idempotent,
// a callback may re-arm into the bucket being fired, an entry beyond the
// ~2 s near window is adopted once the window slides to it, and nextDue()
// reports the earliest live due below its bound.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "exec/threaded/timer_wheel.hpp"

namespace wanmc {
namespace {

using exec::TimerWheel;

constexpr int64_t kWindowUs =
    int64_t{TimerWheel::kBuckets} * TimerWheel::kBucketUs;

TEST(TimerWheel, FiresInDueOrderAsTheClockAdvances) {
  TimerWheel w;
  std::vector<int64_t> fired;
  // Two entries share a bucket, one sits in the far map.
  const std::vector<int64_t> dues = {5'000, 1'500, 1'700, 300, 2'500'000,
                                     40'000};
  for (int64_t due : dues) w.at(due, [&fired, due] { fired.push_back(due); });
  EXPECT_EQ(w.size(), dues.size());

  for (int64_t now = 0; now <= 2'600'000; now += 100) {
    w.fireDue(now);
    for (int64_t due : fired) EXPECT_LE(due, now);
  }
  const std::vector<int64_t> inOrder = {300,   1'500,  1'700,
                                        5'000, 40'000, 2'500'000};
  EXPECT_EQ(fired, inOrder);
  EXPECT_EQ(w.size(), 0U);
}

TEST(TimerWheel, CancelIsIdempotent) {
  TimerWheel w;
  int fired = 0;
  const uint64_t a = w.at(1'000, [&] { ++fired; });
  const uint64_t b = w.at(2'000, [&] { ++fired; });
  EXPECT_NE(a, 0U);
  EXPECT_EQ(w.size(), 2U);

  w.cancel(a);
  w.cancel(a);
  w.cancel(12345);  // never issued
  EXPECT_EQ(w.size(), 1U);

  EXPECT_EQ(w.fireDue(5'000), 1U);
  EXPECT_EQ(fired, 1);
  w.cancel(b);  // already fired
  EXPECT_EQ(w.size(), 0U);
  EXPECT_EQ(w.fireDue(10'000), 0U);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, CallbackMayReArmIntoTheBucketBeingFired) {
  TimerWheel w;
  std::vector<int> fired;
  w.at(100, [&] {
    fired.push_back(1);
    w.at(200, [&] { fired.push_back(2); });  // due already: same call
    w.at(900, [&] { fired.push_back(3); });  // same bucket, not yet due
  });
  EXPECT_EQ(w.fireDue(500), 2U);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(w.size(), 1U);
  EXPECT_EQ(w.nextDue(10'000), 900);

  EXPECT_EQ(w.fireDue(899), 0U);
  EXPECT_EQ(w.fireDue(900), 1U);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(TimerWheel, FarEntryIsAdoptedWhenTheWindowSlidesToIt) {
  TimerWheel w;
  const int64_t far = 3 * kWindowUs / 2;  // past the first window
  int fired = 0;
  w.at(far, [&] { ++fired; });
  const uint64_t gone = w.at(far + 10, [&] { ++fired; });
  w.cancel(gone);

  // The window's end passes `far` well before it is due.
  EXPECT_EQ(w.fireDue(far - kWindowUs / 2), 0U);
  EXPECT_EQ(w.nextDue(far + 1'000), far);
  EXPECT_EQ(w.fireDue(far - 1), 0U);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(w.fireDue(far + 100), 1U);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(w.size(), 0U);
}

TEST(TimerWheel, NextDueReportsTheEarliestLiveDueBelowItsBound) {
  TimerWheel w;
  EXPECT_EQ(w.nextDue(100), 100);  // nothing armed

  const uint64_t early = w.at(50, [] {});
  w.at(70, [] {});
  w.at(5'000, [] {});
  EXPECT_EQ(w.nextDue(100), 50);
  EXPECT_EQ(w.nextDue(40), 40);  // nothing due below the bound

  w.cancel(early);
  EXPECT_EQ(w.nextDue(100), 70);  // the cancelled entry is skipped
  EXPECT_EQ(w.nextDue(60), 60);

  EXPECT_EQ(w.fireDue(80), 1U);
  EXPECT_EQ(w.nextDue(1'000), 1'000);  // 5,000 lies past the bound
  EXPECT_EQ(w.nextDue(10'000), 5'000);

  // Far entries count too, once the bound reaches past the window.
  w.at(2 * kWindowUs, [] {});
  EXPECT_EQ(w.nextDue(3 * kWindowUs), 5'000);
  EXPECT_EQ(w.fireDue(6'000), 1U);
  EXPECT_EQ(w.nextDue(3 * kWindowUs), 2 * kWindowUs);

  // An entry already overdue when armed is the earliest of all.
  w.at(10, [] {});
  EXPECT_EQ(w.nextDue(3 * kWindowUs), 10);
}

}  // namespace
}  // namespace wanmc
