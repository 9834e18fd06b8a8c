// Bounded lock-free single-producer / single-consumer ring.
//
// The threaded backend wires every ordered (producer thread, consumer
// thread) pair with one of these: message copies and posted commands cross
// threads ONLY through a ring, so no queue ever sees two concurrent
// producers or two concurrent consumers and the classic two-index SPSC
// scheme is race-free by construction. Slots hold full objects (shared_ptr
// payloads, small callables) — the producer move-assigns in, the consumer
// moves out; the release/acquire pair on the indices publishes the slot
// contents.
//
// This file is under src/exec/threaded/: the determinism contract (lint
// rule D1) is relaxed here — this is the real-clock backend.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace wanmc::exec {

template <class T>
class SpscRing {
 public:
  // `capacity` is rounded up to a power of two (index arithmetic uses a
  // mask). A full ring makes tryPush fail — the producer decides whether
  // to spin, drop, or give up (see ThreadedRuntime::pushBlocking).
  explicit SpscRing(size_t capacity = 4096) {
    size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  // Producer side. Returns false (leaving `v` intact) when the ring is full.
  bool tryPush(T& v) {
    const uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_.load(std::memory_order_acquire) > mask_) return false;
    slots_[t & mask_] = std::move(v);
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }

  // Consumer side. Returns false when the ring is empty.
  bool tryPop(T& out) {
    const uint64_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_.load(std::memory_order_acquire)) return false;
    out = std::move(slots_[h & mask_]);
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

 private:
  std::vector<T> slots_;
  size_t mask_ = 0;
  // Indices on separate cache lines: the producer only writes tail_, the
  // consumer only writes head_ — sharing a line would ping-pong it.
  alignas(64) std::atomic<uint64_t> head_{0};
  alignas(64) std::atomic<uint64_t> tail_{0};
};

}  // namespace wanmc::exec
