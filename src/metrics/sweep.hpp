// metrics::Sweep — closed-loop latency-vs-throughput sweeps.
//
// The paper's central claim is about latency, and its Figure-1 evaluation
// regime is the classic closed-loop curve: drive the protocol with a
// ladder of offered loads, and plot delivery latency percentiles against
// the throughput actually achieved. runLatencyThroughputSweep() does
// exactly that: one closed-loop workload per load point (arrival interval
// ladder with an in-flight cap, so overload saturates instead of
// diverging), swept across seeds on the ScenarioRunner thread pool, with
// the per-seed metrics::Summary histograms pooled EXACTLY (bucket-count
// sums) — the aggregate percentiles are deterministic and independent of
// the job count.
#pragma once

#include <ostream>
#include <vector>

#include "core/experiment.hpp"
#include "metrics/summary.hpp"

namespace wanmc::metrics {

struct SweepOptions {
  // Protocol / topology / latency template. seed and workload fields are
  // overridden per point and per seed.
  core::RunConfig base{};

  // The offered-load ladder: one closed-loop run per arrival interval,
  // in the given order (descending interval = rising load). Empty picks
  // defaultLoadLadder(7, 256ms, 4ms).
  std::vector<SimTime> intervals{};

  // Messages per run. The default is sized so the steady-state ordering
  // backlog, not the startup transient, dominates the percentiles even at
  // the fastest ladder point (a 4ms spacing needs a multi-second window
  // to outweigh its first empty-system round trips).
  int casts = 600;
  // Closed-loop in-flight cap. 0 (the default) is the uncapped loop: the
  // arrival spacing is honored regardless of delivery progress, so rising
  // load monotonically deepens the ordering backlog — the regime that
  // produces the clean Figure-1-style curve. A positive cap bounds the
  // number of undelivered casts (K closed-loop clients with think time =
  // interval); note that at extreme load a capped loop admits arrivals in
  // consensus-round batches, which AMORTIZES ordering work and can bend
  // the tail latencies back DOWN — a real effect, not a measurement bug.
  int inFlightCap = 0;
  int destGroups = 2;     // groups per multicast (broadcasts ignore this)
  int seedsPerPoint = 3;  // seeds pooled into each point
  uint64_t firstSeed = 1;
  int jobs = 0;           // sweepSeeds thread pool (0: WANMC_JOBS / cores)
  SimTime runUntil = 3600 * kSec;
};

// One row of the latency-throughput curve: the pooled measurement of all
// seeds at one offered-load point.
struct SweepPoint {
  SimTime interval = 0;      // the ladder knob (arrival spacing, us)
  double offeredPerSec = 0;  // measured casts/sec (pooled over seeds)
  double goodputPerSec = 0;  // measured completed msgs/sec
  LatencyStats latency;      // message-level percentiles, pooled
  uint64_t casts = 0;
  uint64_t deliveries = 0;
  int seeds = 0;
};

// Geometric interval ladder from `slowest` down to `fastest`, `points`
// entries, deterministic rounding.
[[nodiscard]] std::vector<SimTime> defaultLoadLadder(int points,
                                                     SimTime slowest,
                                                     SimTime fastest);

// Runs the whole ladder. Points come back in ladder order; each is the
// exact pool of seedsPerPoint seeds. Throws std::invalid_argument on a
// config the underlying Experiment would reject.
[[nodiscard]] std::vector<SweepPoint> runLatencyThroughputSweep(
    const SweepOptions& opt);

// CSV: interval_us,offered_per_sec,goodput_per_sec,p50_us,p90_us,p99_us,
// max_us,mean_us,casts,deliveries,seeds — one row per point, ladder order.
void writeSweepCsv(const std::vector<SweepPoint>& points, std::ostream& os);

}  // namespace wanmc::metrics
