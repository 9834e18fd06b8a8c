// The batching plane: accumulates casts into per-(sender, destination-set)
// windows and hands each full window to the experiment as ONE carrier.
//
// Sits between the harness cast entry points (Experiment::castAt /
// issueWorkloadCast) and the protocol stacks: a cast is recorded in the
// trace the moment the plane accepts it (the window wait is real latency
// and shows up in the measured numbers), but the stack only sees the
// carrier when the window closes — by its time limit expiring or its size
// bound being reached, whichever is first.
//
// Crash semantics mirror the PR 5 castAt fix: the window-expiry timer is a
// harness event (Context::harnessAt), not an incarnation-bound process timer,
// but it guards itself — a batch opened by incarnation k of the sender is
// dropped, not flushed, if the sender is crashed or reincarnated when the
// window closes. Losing those casts is safe: a crashed sender is not
// "correct", so validity never binds for them, and no process delivered
// them (the carrier was never sent). A fresh incarnation casting into a
// key whose open batch belongs to a dead incarnation starts a new batch;
// the dead one is discarded on the spot.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/message.hpp"
#include "exec/context.hpp"

namespace wanmc::core {

class BatchPlane {
 public:
  // `flush` receives each closed batch (casts in enqueue order, all
  // sharing sender and dest); the experiment turns it into a carrier and
  // xcasts it. Invoked only while the sender's enqueue-time incarnation
  // is still alive.
  using FlushFn = std::function<void(ProcessId sender, GroupSet dest,
                                     std::vector<AppMsgPtr> casts)>;

  BatchPlane(exec::Context& rt, SimTime window, int maxSize, FlushFn flush)
      : rt_(rt), window_(window), maxSize_(maxSize),
        flush_(std::move(flush)) {}

  BatchPlane(const BatchPlane&) = delete;
  BatchPlane& operator=(const BatchPlane&) = delete;

  // Accepts one cast. The caller has already trace-recorded it and
  // guarantees the sender is alive right now.
  void enqueue(ProcessId sender, const AppMsgPtr& m);

 private:
  using Key = std::pair<ProcessId, uint64_t>;  // (sender, dest.bits())

  struct Open {
    std::vector<AppMsgPtr> casts;
    GroupSet dest;
    uint32_t inc = 0;     // sender incarnation that opened the batch
    uint64_t gen = 0;     // disambiguates the expiry timer across reuse
    EventId timer = kNoEvent;
  };

  void onWindowExpiry(Key key, uint64_t gen);
  void flushLocked(std::map<Key, Open>::iterator it);

  exec::Context& rt_;
  SimTime window_;
  int maxSize_;
  FlushFn flush_;
  std::map<Key, Open> open_;
  uint64_t nextGen_ = 1;
};

}  // namespace wanmc::core
