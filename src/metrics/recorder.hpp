// metrics::Recorder — the one builder of metrics::Summary.
//
// A Recorder is fed the cast and delivery events of a run (the hooks of
// sim/observer.hpp) and maintains every trace-derived aggregate of
// metrics::Summary online: latency histograms bin each delivery the
// instant it happens, and per-message state lives in a dense
// msg-id-indexed table (message ids are allocated sequentially from 1 by
// core::Experiment). A sim run registers it with the runtime; threaded
// runs and runs with metrics off replay the recorded trace into one
// (summarizeTrace). The counters a trace does not hold — per-layer
// traffic, the last algorithmic send, and the fault, channel and bootstrap
// blocks — are injected by the caller (core::Experiment::harvest,
// summarizeTrace).
//
// Hot-path discipline: onCast/onDeliver are allocation-free at steady
// state (the per-message table grows geometrically, like a vector), never
// draw from the runtime RNG, and never schedule events — a recorded run is
// byte-identical to an unrecorded one (pinned by the golden fingerprints
// and gated at <5% events/sec overhead by bench_sim_core).
#pragma once

#include <cstdint>
#include <vector>

#include "metrics/summary.hpp"
#include "sim/observer.hpp"
#include "sim/topology.hpp"

namespace wanmc::metrics {

class Recorder final : public sim::RunObserver {
 public:
  // `topo` must outlive the recorder. To observe a sim run live, register
  // it with rt.addObserver(&rec, sim::kObserveCasts | sim::kObserveDeliveries)
  // before the run starts.
  explicit Recorder(const Topology& topo);

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void onCast(const CastEvent& ev) override;
  void onDeliver(const DeliveryEvent& ev) override;

  // Snapshot of everything measured so far. traffic, lastAlgoSendAt and
  // the fault, channel and bootstrap blocks keep their defaults for the
  // caller to inject. Message-level aggregates (final-latency histogram,
  // latency-degree tally, completion counters) are folded here from the
  // per-message table — O(#messages), not O(trace) — so summary() may be
  // called mid-run and again later.
  [[nodiscard]] Summary summary(SimTime endTime) const;

 private:
  // Per-message running state, indexed by MsgId. POD, 48 bytes.
  struct MsgStat {
    SimTime castAt = -1;          // -1: not cast (or id not seen)
    SimTime lastDeliveryAt = -1;  // -1: no delivery yet
    uint64_t castLamport = 0;
    int64_t maxLamportDelta = -1;
    uint32_t deliveries = 0;
    uint32_t addressees = 0;   // processes in the destination groups
    uint32_t destGroups = 0;   // |dest|, the perDestSize bucket
    uint32_t reserved_ = 0;
  };

  [[nodiscard]] MsgStat* statOf(MsgId id) {
    const size_t idx = static_cast<size_t>(id);
    return idx < stats_.size() ? &stats_[idx] : nullptr;
  }

  const Topology& topo_;
  std::vector<MsgStat> stats_;  // dense by MsgId; slot 0 unused

  // Streaming aggregates (delivery-level histograms fill in place;
  // message-level ones are derived from stats_ in summary()).
  LogHistogram deliveryLatency_;
  std::vector<LogHistogram> perGroup_;
  std::vector<LogHistogram> perDestSize_;
  uint64_t casts_ = 0;
  uint64_t deliveries_ = 0;
  SimTime firstCastAt_ = -1;
  SimTime lastCastAt_ = -1;
  SimTime lastDeliveryAt_ = -1;
};

}  // namespace wanmc::metrics
