// Per-thread timer wheel for the real-clock backend.
//
// Each process thread (and the driver) owns exactly one wheel and is the
// only thread that ever touches it, so the structure is deliberately
// lock-free-by-ownership: no atomics, no mutex. The layout mirrors the sim
// scheduler's two-level calendar — a near ring of ~1ms buckets covering the
// next ~2s, and a far map for everything beyond — because the traffic is
// the same (heartbeat cadences, consensus round timeouts, batch windows).
// An idle owner asks nextDue() how long it may sleep.
//
// Cancellation is O(1): live timer ids sit in a hash set, cancel() removes
// the id, and a fired or swept entry whose id is gone is skipped. Within a
// bucket entries fire in due order only approximately (swap-removal) —
// this backend has no determinism contract (lint rule D1 is relaxed under
// src/exec/threaded/).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "exec/context.hpp"

namespace wanmc::exec {

class TimerWheel {
 public:
  static constexpr int kBuckets = 2048;        // near window: ~2.1s
  static constexpr int64_t kBucketUs = 1024;   // ~1ms granularity

  // Registers `fn` to fire once fireDue() is called with now >= dueUs.
  // Returns a wheel-local id (never 0).
  uint64_t at(int64_t dueUs, SmallFn fn) {
    const uint64_t id = nextId_++;
    live_.insert(id);
    ++liveCount_;
    place(Entry{id, dueUs, std::move(fn)});
    return id;
  }

  // Idempotent: cancelling a fired or unknown id is a no-op.
  void cancel(uint64_t id) {
    if (live_.erase(id) > 0) --liveCount_;
  }

  // Fires every live entry with due <= nowUs; advances the cursor. A fired
  // callback may re-enter at()/cancel() freely. Returns the fire count.
  size_t fireDue(int64_t nowUs) {
    size_t fired = 0;
    for (;;) {
      // Current bucket: fire what is due, keep what is not. Indexed access
      // throughout — a fired callback may at() into this very bucket and
      // reallocate its vector.
      const size_t b = bucketOf(cursor_);
      for (size_t i = 0; i < near_[b].size();) {
        if (near_[b][i].due > nowUs) {
          ++i;
          continue;
        }
        Entry e = std::move(near_[b][i]);
        near_[b][i] = std::move(near_[b].back());
        near_[b].pop_back();
        if (live_.erase(e.id) > 0) {
          --liveCount_;
          e.fn();
          ++fired;
          i = 0;  // the callback may have reshuffled the bucket
        }
      }
      if (nowUs < cursor_ + kBucketUs) break;
      cursor_ += kBucketUs;
      // The near window slid forward one bucket: adopt far entries that now
      // fall inside it.
      const int64_t windowEnd = cursor_ + int64_t{kBuckets} * kBucketUs;
      while (!far_.empty() && far_.begin()->first < windowEnd) {
        Entry e = std::move(far_.begin()->second);
        far_.erase(far_.begin());
        if (live_.count(e.id) > 0) place(std::move(e));
      }
    }
    return fired;
  }

  // The earliest due among live entries if it lies below `bound`, else
  // `bound`. A bucket holds only dues inside its own slot (the cursor's
  // bucket also holds overdue ones), so the first bucket with a live entry
  // holds the minimum: a horizon of a few hundred microseconds reads one
  // or two buckets. Far entries all lie past the window.
  [[nodiscard]] int64_t nextDue(int64_t bound) const {
    const int64_t windowEnd = cursor_ + int64_t{kBuckets} * kBucketUs;
    for (int64_t slot = cursor_; slot < bound && slot < windowEnd;
         slot += kBucketUs) {
      int64_t best = bound;
      for (const Entry& e : near_[bucketOf(slot)])
        if (e.due < best && live_.count(e.id) > 0) best = e.due;
      if (best < bound) return best;
    }
    for (const auto& [due, e] : far_) {
      if (due >= bound) break;
      if (live_.count(e.id) > 0) return due;
    }
    return bound;
  }

  // Live (registered, not yet fired, not cancelled) timer count.
  [[nodiscard]] size_t size() const { return liveCount_; }

 private:
  struct Entry {
    uint64_t id = 0;
    int64_t due = 0;
    SmallFn fn;
  };

  static size_t bucketOf(int64_t slotTime) {
    return static_cast<size_t>(slotTime / kBucketUs) % kBuckets;
  }

  void place(Entry e) {
    const int64_t windowEnd = cursor_ + int64_t{kBuckets} * kBucketUs;
    if (e.due >= windowEnd) {
      const int64_t due = e.due;
      far_.emplace(due, std::move(e));
      return;
    }
    near_[bucketOf(e.due < cursor_ ? cursor_ : e.due)].push_back(std::move(e));
  }

  std::array<std::vector<Entry>, kBuckets> near_;
  std::multimap<int64_t, Entry> far_;
  std::unordered_set<uint64_t> live_;
  size_t liveCount_ = 0;
  int64_t cursor_ = 0;  // start of the current bucket, multiple of kBucketUs
  uint64_t nextId_ = 1;
};

}  // namespace wanmc::exec
