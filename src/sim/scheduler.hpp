// Discrete-event scheduler: the one timer queue of both backends.
//
// Events fire in (time, insertion-sequence) order, so a sim run is a pure
// function of the seed and the initial configuration. The sim backend
// (sim::Runtime) runs every event on one Scheduler; the threaded backend
// (exec::ThreadedRuntime) gives each process thread and its driver their
// own for protocol timers and harness events, fires them with run(now) on
// the real clock and sleeps until nextDue().
//
// The hot path is allocation-free and built for the simulator's delay
// profile (intra-group ~1-2ms, inter-group ~100ms, timers ~10-200ms):
//
//  * The pending set is a two-level calendar: a ring of 1ms buckets
//    covering a ~2s near window (each bucket a small sorted vector of POD
//    (when, seq, slot) keys, pops O(1), inserts nearly always appends),
//    backed by a 4-ary heap for far-future events that migrates entries
//    into the ring as the window advances. Both levels order by
//    (when, seq), so fire order is identical to a single global queue.
//  * Event state lives in a chunked slab of pooled slots; callables are
//    stored in a small-buffer-optimized EventCallable and fired in place,
//    so routine timer and delivery events never touch the general heap.
//  * EventIds are generation tagged: cancel() is O(1), idempotent, and
//    safe against ids that already fired or whose slot has been reused —
//    no tombstone set to leak.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/hot.hpp"
#include "common/ids.hpp"
#include "common/inline_fn.hpp"
#include "common/time.hpp"

namespace wanmc::sim {

// The scheduler's event callable. 56 bytes inline cover the runtime's
// delivery records and timer guards (a guard wraps an exec::SmallFn).
using EventCallable = InlineFn<56, alignof(std::max_align_t)>;

class Scheduler {
 public:
  template <class F>
  WANMC_HOT EventId at(SimTime when, F&& fn) {
    const uint32_t idx = allocSlot();
    Slot& s = slot(idx);
    s.fn = EventCallable(std::forward<F>(fn));
    s.live = true;
    push(Entry{when, nextSeq_++, idx});
    ++live_;
    return makeId(s.gen, idx);
  }

  // O(1) and idempotent. Cancelling an id that already fired, was already
  // cancelled, or was never issued is a no-op: the generation tag no longer
  // matches any live slot. The dead queue entry is discarded when it
  // surfaces; nothing accumulates.
  void cancel(EventId id) {
    const auto idx = static_cast<uint32_t>(id & 0xffffffffu);
    const auto gen = static_cast<uint32_t>(id >> 32);
    if (idx >= slotCount_) return;
    Slot& s = slot(idx);
    if (!s.live || s.gen != gen) return;
    s.live = false;
    s.fn.reset();  // release captured state eagerly
    --live_;
  }

  [[nodiscard]] SimTime now() const { return now_; }
  // Scheduled-but-not-yet-fired events, cancellations excluded. Maintained
  // as a counter: it can neither underflow nor drift.
  [[nodiscard]] size_t pendingEvents() const { return live_; }

  // The time of the earliest live event, kTimeNever if none: how long an
  // idle thread may sleep. Cancelled entries at the top are discarded on
  // the way, so the answer is never a dead entry's time.
  [[nodiscard]] SimTime nextDue() {
    for (;;) {
      const Entry* top = peek();
      if (top == nullptr) return kTimeNever;
      if (slot(top->slot).live) return top->when;
      const uint32_t idx = top->slot;
      dropTop();
      freeSlot(idx);
    }
  }

  // Run until the queue is exhausted or `until` is reached (events stamped
  // after `until` stay queued). Returns the number of events fired.
  WANMC_HOT uint64_t run(SimTime until = kTimeNever,
                         uint64_t maxEvents = UINT64_MAX) {
    uint64_t fired = 0;
    while (fired < maxEvents) {
      const Entry* top = peek();
      if (top == nullptr) break;
      const Entry e = *top;
      Slot& s = slot(e.slot);
      if (!s.live) {  // cancelled: discard and recycle
        dropTop();
        freeSlot(e.slot);
        continue;
      }
      if (e.when > until) break;
      dropTop();
      s.live = false;
      --live_;
      now_ = e.when;
      // Fired IN PLACE: slot storage is chunked (stable across the growth
      // the callable may cause) and the slot joins the free list only after
      // the call, so a newly scheduled event cannot overwrite it.
      s.fn();
      freeSlot(e.slot);
      ++fired;
    }
    if (now_ < until && until != kTimeNever) now_ = until;
    return fired;
  }

 private:
  struct Entry {
    SimTime when;
    uint64_t seq;   // insertion sequence: FIFO tie-break at equal times
    uint32_t slot;
  };

  static bool earlier(const Entry& a, const Entry& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  // ---- calendar ring + far heap -------------------------------------------
  //
  // Bucket b of the ring holds entries with `when` in one kBucketWidth-wide
  // interval; bucket intervals are disjoint and increase from cursor_, so
  // the global minimum is always the head of the first nonempty bucket.
  // Entries stamped beyond the window wait in a 4-ary heap and migrate as
  // the window advances; entries stamped at or before the window start
  // clamp to the cursor bucket, where in-bucket ordering keeps them first.
  // In the sim only "fire immediately" events land there. On the real
  // clock it is routine: run(now) and nextDue() park the cursor at the
  // next pending event, and a timer armed afterwards is due before it.

  static constexpr SimTime kBucketWidth = 1000;  // 1ms, in SimTime units
  static constexpr size_t kNumBuckets = 2048;    // ~2s near window
  static constexpr SimTime kSpan = kBucketWidth * kNumBuckets;

  struct Bucket {
    std::vector<Entry> evs;  // ascending (when, seq) from index `head`
    uint32_t head = 0;       // popped prefix (nonzero only at the cursor)
  };

  [[nodiscard]] bool inWindow(SimTime when) const {
    // Unsigned difference: well-defined for when >= windowStart_ and never
    // overflows (windowStart_ + kSpan might).
    return when <= windowStart_ ||
           static_cast<uint64_t>(when - windowStart_) <
               static_cast<uint64_t>(kSpan);
  }

  // True iff `when` sorts before the end of the bucket starting at `start`
  // (overflow-safe: never computes start + width).
  static bool beforeBucketEnd(SimTime when, SimTime start) {
    return when < start || when - start < kBucketWidth;
  }

  void push(const Entry& e) {
    if (!inWindow(e.when)) {
      farPush(e);
      return;
    }
    const size_t idx =
        e.when <= windowStart_
            ? cursor_
            : (cursor_ + static_cast<size_t>((e.when - windowStart_) /
                                             kBucketWidth)) %
                  kNumBuckets;
    Bucket& b = buckets_[idx];
    if (b.evs.empty() || earlier(b.evs.back(), e)) {
      b.evs.push_back(e);  // the common case: newest event sorts last
    } else {
      auto it = std::upper_bound(
          b.evs.begin() + b.head, b.evs.end(), e,
          [](const Entry& x, const Entry& y) { return earlier(x, y); });
      b.evs.insert(it, e);
    }
    markNonempty(idx);
    ++queuedNear_;
  }

  // Pointer to the globally earliest entry, advancing the window as needed.
  // Returns nullptr when the queue is exhausted. The pointer is valid until
  // the next push/dropTop.
  const Entry* peek() {
    // Fast path: the cursor bucket already holds the minimum. Safe with no
    // far-heap check: whenever the cursor bucket is nonempty, every far
    // entry sorts after its end (far entries preceding it were migrated
    // when the cursor parked here, and entries pushed far since then are
    // stamped at least a full window ahead).
    {
      Bucket& b = buckets_[cursor_];
      if (b.head < b.evs.size()) return &b.evs[b.head];
    }
    for (;;) {
      while (queuedNear_ > 0) {
        // Jump straight to the first nonempty bucket in ring order — a
        // bitmap word scan, not a walk over empty bucket headers.
        const size_t idx = firstNonemptyFrom(cursor_);
        const size_t dist = (idx - cursor_ + kNumBuckets) % kNumBuckets;
        const SimTime targetStart =
            windowStart_ + static_cast<SimTime>(dist) * kBucketWidth;
        // Far events that sort before the target bucket's end must enter
        // the ring first (they may have drifted into the window since they
        // were pushed); they land at or before the target, so rescan.
        if (!far_.empty() && beforeBucketEnd(far_.front().when, targetStart)) {
          do {
            const Entry e = far_.front();
            farPop();
            push(e);
          } while (!far_.empty() &&
                   beforeBucketEnd(far_.front().when, targetStart));
          continue;
        }
        cursor_ = idx;
        windowStart_ = targetStart;
        Bucket& b = buckets_[idx];
        return &b.evs[b.head];
      }
      if (far_.empty()) return nullptr;
      // The ring is empty: jump the window to the earliest far event. Every
      // bucket is empty, so relabeling the ring at cursor_ = 0 is safe.
      windowStart_ = far_.front().when - (far_.front().when % kBucketWidth);
      cursor_ = 0;
      while (!far_.empty() && inWindow(far_.front().when)) {
        const Entry e = far_.front();
        farPop();
        push(e);
      }
    }
  }

  void dropTop() {
    Bucket& b = buckets_[cursor_];
    if (++b.head == b.evs.size()) {
      b.evs.clear();
      b.head = 0;
      clearNonempty(cursor_);
    }
    --queuedNear_;
  }

  // ---- nonempty-bucket bitmap ---------------------------------------------

  void markNonempty(size_t idx) {
    bits_[idx >> 6] |= uint64_t{1} << (idx & 63);
  }
  void clearNonempty(size_t idx) {
    bits_[idx >> 6] &= ~(uint64_t{1} << (idx & 63));
  }
  // First nonempty bucket in ring order starting at `from`. Requires
  // queuedNear_ > 0 (some bit is set).
  [[nodiscard]] size_t firstNonemptyFrom(size_t from) const {
    constexpr size_t kWords = kNumBuckets / 64;
    size_t w = from >> 6;
    uint64_t word = bits_[w] & (~uint64_t{0} << (from & 63));
    for (size_t i = 0; i <= kWords; ++i) {
      if (word != 0)
        return (w << 6) + static_cast<size_t>(__builtin_ctzll(word));
      w = (w + 1) % kWords;
      word = bits_[w];
    }
    return from;  // unreachable while the ring holds entries
  }

  // ---- far events: 4-ary heap over the same POD keys ----------------------

  void farPush(const Entry& e) {
    far_.push_back(e);
    size_t i = far_.size() - 1;
    while (i > 0) {
      const size_t parent = (i - 1) / 4;
      if (!earlier(e, far_[parent])) break;
      far_[i] = far_[parent];
      i = parent;
    }
    far_[i] = e;
  }

  void farPop() {
    const Entry last = far_.back();
    far_.pop_back();
    if (far_.empty()) return;
    size_t i = 0;
    const size_t n = far_.size();
    for (;;) {
      const size_t first = 4 * i + 1;
      if (first >= n) break;
      size_t best = first;
      const size_t end = std::min(first + 4, n);
      for (size_t c = first + 1; c < end; ++c)
        if (earlier(far_[c], far_[best])) best = c;
      if (!earlier(far_[best], last)) break;
      far_[i] = far_[best];
      i = best;
    }
    far_[i] = last;
  }

  // ---- event slots ---------------------------------------------------------

  struct Slot {
    EventCallable fn;
    uint32_t gen = 1;       // bumped on free; stale EventIds never match
    uint32_t freeNext = kNoSlot;
    bool live = false;
  };
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  static EventId makeId(uint32_t gen, uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  // Slot storage is a chunked slab: addresses are stable while an event
  // fires in place, and a slot index addresses its chunk with two loads.
  static constexpr uint32_t kChunkShift = 10;  // 1024 slots per chunk
  static constexpr uint32_t kChunkMask = (1u << kChunkShift) - 1;

  Slot& slot(uint32_t i) {
    // Nearly every run stays within the first chunk; its pointer is cached
    // to make the common slot access a single indirection.
    if (i < (1u << kChunkShift)) return chunk0_[i];
    return chunks_[i >> kChunkShift][i & kChunkMask];
  }

  uint32_t allocSlot() {
    if (freeHead_ != kNoSlot) {
      const uint32_t idx = freeHead_;
      freeHead_ = slot(idx).freeNext;
      return idx;
    }
    if ((slotCount_ >> kChunkShift) == chunks_.size()) {
      chunks_.push_back(std::make_unique<Slot[]>(size_t{1} << kChunkShift));
      if (chunks_.size() == 1) chunk0_ = chunks_.front().get();
    }
    return slotCount_++;
  }

  // A slot is recycled only once its queue entry has been popped, so a live
  // entry can never alias a reused slot.
  void freeSlot(uint32_t idx) {
    Slot& s = slot(idx);
    s.fn.reset();
    if (++s.gen == 0) s.gen = 1;  // keep ids nonzero across wraparound
    s.freeNext = freeHead_;
    freeHead_ = idx;
  }

  std::vector<Bucket> buckets_{kNumBuckets};
  uint64_t bits_[kNumBuckets / 64] = {};  // bit b: bucket b is nonempty
  size_t cursor_ = 0;         // bucket whose interval starts at windowStart_
  SimTime windowStart_ = 0;
  size_t queuedNear_ = 0;     // ring entries, cancelled included
  std::vector<Entry> far_;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  Slot* chunk0_ = nullptr;
  uint32_t slotCount_ = 0;
  uint32_t freeHead_ = kNoSlot;
  uint64_t nextSeq_ = 1;
  size_t live_ = 0;
  SimTime now_ = 0;
};

}  // namespace wanmc::sim
