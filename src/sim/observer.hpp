// Typed run-observer registry: the simulator's measurement plane.
//
// A RunObserver subscribes to the runtime's instrumentation points — cast
// and delivery events — and sees each event exactly once, at the instant
// the runtime records it. Observers are PASSIVE: they must not draw from
// the runtime RNG and anything they schedule goes through the
// deterministic scheduler, so observation never perturbs a run (the golden
// fingerprints pin this).
//
// The same two hooks are the replay interface. The metrics recorder
// (src/metrics/) and the prefix-order checker (src/verify/streaming.hpp)
// observe a sim run live, and summarizeTrace and the verify:: prefix-order
// checks feed them a recorded RunTrace instead, so each job has one
// implementation on both backends. The experiment's closed-loop workload
// feedback observes live deliveries too.
#pragma once

#include <cstdint>

#include "common/trace.hpp"

namespace wanmc::sim {

// Which instrumentation points an observer wants. Passed at registration so
// the runtime only walks the lists that are non-empty — an unobserved run
// pays one empty-vector check per event kind, nothing per observer.
enum ObserverInterest : uint32_t {
  kObserveCasts = 1u << 0,       // every recordCast (A-XCast)
  kObserveDeliveries = 1u << 1,  // every recordDelivery (A-Deliver)
};

class RunObserver {
 public:
  virtual ~RunObserver() = default;

  // An A-XCast was recorded. `ev` is the trace entry (already stamped).
  virtual void onCast(const CastEvent& ev) { (void)ev; }
  // An A-Deliver was recorded.
  virtual void onDeliver(const DeliveryEvent& ev) { (void)ev; }
};

}  // namespace wanmc::sim
