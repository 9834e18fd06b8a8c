// metrics::Summary — the result of the streaming measurement plane.
//
// A Summary is a value type: everything the export layer, the sweep driver,
// and the regression tests need from a finished run, with no pointer back
// into the trace. metrics::Recorder (src/metrics/recorder.hpp) is its one
// builder: fed live by the sim runtime's observer hooks, or by
// summarizeTrace() replaying a recorded trace (threaded runs, runs with
// metrics off, hand-assembled RunResults).
//
// Percentile semantics: every histogram bins LATENCIES (microseconds of
// simulated wall-clock between A-XCast(m) and an A-Deliver(m)) into the
// log-bucketed LogHistogram; reported percentiles are bucket midpoints
// (<= 12.5% relative error), clamped to the exact max. Message-level
// latency is the max over that message's deliveries (time to the LAST
// delivery); delivery-level latency counts each A-Deliver separately.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "common/trace.hpp"
#include "metrics/histogram.hpp"
#include "sim/topology.hpp"

namespace wanmc::metrics {

// Compact percentile row derived from a LogHistogram.
struct LatencyStats {
  uint64_t count = 0;
  SimTime p50 = 0;
  SimTime p90 = 0;
  SimTime p99 = 0;
  SimTime max = 0;
  double mean = 0;

  static LatencyStats of(const LogHistogram& h) {
    return LatencyStats{h.count(), h.percentile(0.50), h.percentile(0.90),
                        h.percentile(0.99), h.max(), h.mean()};
  }
  friend bool operator==(const LatencyStats&, const LatencyStats&) = default;
};

struct Summary {
  // ---- counters ----------------------------------------------------------
  int processes = 0;
  int groups = 0;
  uint64_t casts = 0;            // offered messages (A-XCast events)
  uint64_t deliveries = 0;       // A-Deliver events
  uint64_t completed = 0;        // messages delivered at least once
  uint64_t fullyDelivered = 0;   // messages with one delivery per process
                                 // of their destination groups

  // ---- quiescence / horizon ---------------------------------------------
  SimTime firstCastAt = -1;
  SimTime lastCastAt = -1;
  SimTime lastDeliveryAt = -1;
  SimTime lastAlgoSendAt = -1;  // last non-FD wire send (quiescence)
  SimTime endTime = 0;          // when the run stopped

  // ---- latency histograms -------------------------------------------------
  LogHistogram msgLatency;       // per message: cast -> LAST delivery
  LogHistogram deliveryLatency;  // per delivery: cast -> this delivery

  // Delivery-level breakdowns. Indexed densely: perGroup[g] holds the
  // latencies of deliveries at processes of group g; perDestSize[k] holds
  // deliveries of messages addressed to exactly k groups (slot 0 unused).
  std::vector<LogHistogram> perGroup;
  std::vector<LogHistogram> perDestSize;

  // Message-level latency-degree tally (modified-Lamport Delta(m): max
  // deliver stamp minus cast stamp), the paper's §2.3 metric. Exact.
  std::map<int64_t, uint64_t> latencyDegrees;

  // Per-layer wire counters: the runtime's TrafficStats, injected at
  // harvest.
  TrafficStats traffic;

  // Fault-plane counters (fault plane v2): crashes, recoveries, partition
  // cut/heal transitions, and wire copies dropped on cut links. Derived
  // from the trace's fault events (faultStatsOf) and injected at harvest.
  FaultStats faults;

  // Reliable-channel substrate counters (src/channel/): retransmits, ACKs,
  // duplicate/stale suppression, holdback overflow. Maintained by the
  // channel plane and injected at Experiment::harvest (like lastAlgoSendAt,
  // they are not reconstructible from the trace). All-zero when channels
  // are off.
  ChannelStats channels;

  // Bootstrap state-transfer counters (src/bootstrap/): snapshots served,
  // snapshot bytes, suffix replays, retries. Maintained by the bootstrap
  // plane and injected at harvest like the channel block. All-zero when
  // the plane is unarmed.
  BootstrapStats bootstrap;

  // ---- derived rates ------------------------------------------------------
  // Offered load: casts per simulated second over the casting window.
  [[nodiscard]] double offeredPerSec() const;
  // Goodput: completed messages per simulated second, first cast to last
  // delivery.
  [[nodiscard]] double goodputPerSec() const;

  [[nodiscard]] LatencyStats msgStats() const {
    return LatencyStats::of(msgLatency);
  }
  [[nodiscard]] LatencyStats deliveryStats() const {
    return LatencyStats::of(deliveryLatency);
  }

  // Exact pooling of two runs' measurements (histograms sum bucket-wise;
  // windows take min/max). Used by the sweep driver to aggregate seeds.
  void merge(const Summary& other);

  friend bool operator==(const Summary&, const Summary&) = default;
};

// The Summary of a recorded trace: replays its casts, then its deliveries,
// into a Recorder, and injects what the trace does not hold — `traffic`
// and `lastAlgoSend` from the runtime, the fault block from the trace's
// fault events. Builds RunResult::metrics for threaded runs and for runs
// with RunConfig::metrics off.
[[nodiscard]] Summary summarizeTrace(const RunTrace& trace,
                                     const Topology& topo,
                                     const TrafficStats& traffic,
                                     SimTime lastAlgoSend, SimTime endTime);

// JSON rendering of a summary (a sub-object of core::writeSummaryJson, but
// usable standalone). `indent` prefixes every line.
void writeJson(const Summary& s, std::ostream& os,
               const std::string& indent = "");

}  // namespace wanmc::metrics
