#include "metrics/sweep.hpp"

#include <algorithm>
#include <cmath>

#include "testing/scenario.hpp"

namespace wanmc::metrics {

std::vector<SimTime> defaultLoadLadder(int points, SimTime slowest,
                                       SimTime fastest) {
  std::vector<SimTime> out;
  if (points <= 0) return out;
  if (points == 1 || slowest <= fastest) {
    out.assign(static_cast<size_t>(points), slowest);
    return out;
  }
  const double ratio = std::pow(
      static_cast<double>(fastest) / static_cast<double>(slowest),
      1.0 / static_cast<double>(points - 1));
  double v = static_cast<double>(slowest);
  for (int i = 0; i < points; ++i) {
    out.push_back(std::max<SimTime>(static_cast<SimTime>(std::llround(v)), 1));
    v *= ratio;
  }
  out.back() = std::max<SimTime>(fastest, 1);
  return out;
}

std::vector<SweepPoint> runLatencyThroughputSweep(const SweepOptions& opt) {
  std::vector<SimTime> ladder = opt.intervals;
  if (ladder.empty()) ladder = defaultLoadLadder(7, 256 * kMs, 4 * kMs);

  std::vector<SweepPoint> out;
  out.reserve(ladder.size());
  for (const SimTime interval : ladder) {
    testing::Scenario s;
    s.name = "sweep/interval" + std::to_string(interval);
    s.config = opt.base;
    workload::Spec spec =
        workload::Spec::closedLoop(opt.casts, interval, opt.destGroups);
    spec.inFlightCap = opt.inFlightCap;
    s.workload = spec;
    // DetMerge00's heartbeats never quiesce: bound its runs near the end
    // of the arrival schedule instead of simulating the full horizon.
    s.runUntil = opt.base.protocol == core::ProtocolKind::kDetMerge00
                     ? spec.nominalEnd() + 5 * kSec
                     : opt.runUntil;
    // The sweep measures; it does not judge. Safety violations would
    // surface through the scenario/test tiers — here a violating seed
    // still contributes its latencies.
    s.expect = testing::PropertyExpectations{};
    s.expect.checkLiveness = false;

    const auto results = testing::ScenarioRunner(s).sweepSeeds(
        opt.firstSeed, opt.seedsPerPoint, opt.jobs);

    // Histograms and counters pool exactly (bucket sums). Rates do NOT:
    // each seed is its own simulated timeline starting at t=0, so the
    // merged cast window overlays the seeds instead of concatenating
    // them — the point's rate is the mean of the per-seed rates.
    Summary pooled;
    double offered = 0;
    double goodput = 0;
    for (const auto& r : results) {
      pooled.merge(r.run.metrics);
      offered += r.run.metrics.offeredPerSec();
      goodput += r.run.metrics.goodputPerSec();
    }
    const double n = results.empty() ? 1 : static_cast<double>(results.size());

    SweepPoint p;
    p.interval = interval;
    p.offeredPerSec = offered / n;
    p.goodputPerSec = goodput / n;
    p.latency = pooled.msgStats();
    p.casts = pooled.casts;
    p.deliveries = pooled.deliveries;
    p.seeds = static_cast<int>(results.size());
    out.push_back(p);
  }
  return out;
}

void writeSweepCsv(const std::vector<SweepPoint>& points, std::ostream& os) {
  os << "interval_us,offered_per_sec,goodput_per_sec,p50_us,p90_us,p99_us,"
        "max_us,mean_us,casts,deliveries,seeds\n";
  for (const SweepPoint& p : points) {
    os << p.interval << ',' << p.offeredPerSec << ',' << p.goodputPerSec
       << ',' << p.latency.p50 << ',' << p.latency.p90 << ','
       << p.latency.p99 << ',' << p.latency.max << ',' << p.latency.mean
       << ',' << p.casts << ',' << p.deliveries << ',' << p.seeds << '\n';
  }
}

}  // namespace wanmc::metrics
