// Sim-vs-real calibration bench (PR 10).
//
// Re-runs the paper's Figure-1 regime — the A1 closed-loop latency-vs-
// throughput sweep — once on the simulator and once on the threaded
// real-clock backend, point by point with identical workloads, and emits a
// side-by-side CSV plus a JSON summary. The simulator is the deterministic
// oracle; the threaded leg measures what the same stack does on real
// threads with the same emulated link latencies. The interesting number is
// the per-point latency ratio: close to 1.0 means the simulator's latency
// accounting is faithful to a real execution (the scheduling and queueing
// the sim abstracts away are cheap next to the WAN delays it models);
// a drift would localize exactly which load points the abstraction
// misprices.
//
//   bench_calibration [--quick] [--points N] [--casts N] [--seeds N]
//                     [--csv-out FILE] [--out FILE]
//
// The threaded leg runs in real time (a 96ms arrival interval costs 96
// real milliseconds per cast), so the default budget is deliberately
// small; --quick shrinks it further for the CI smoke job. Wall-clock
// ratios are machine-dependent and are NOT gated — the CSV is a recorded
// artifact.
//
// Dependency-free on purpose: the CI threaded-smoke job runs it wherever
// the library builds.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/run_options.hpp"
#include "metrics/sweep.hpp"

namespace wanmc::bench {
namespace {

struct Options {
  int points = 5;
  int casts = 60;
  int seeds = 2;
  std::string csvOut;
  std::string jsonOut;
};

// One load point measured on both backends.
struct CalPoint {
  metrics::SweepPoint sim;
  metrics::SweepPoint threaded;
};

double ratio(double real, double oracle) {
  return oracle > 0 ? real / oracle : 0.0;
}

void writeCsv(const std::vector<CalPoint>& points, const std::string& config,
              std::ostream& os) {
  os << "# " << config << "\n";
  os << "interval_us,offered_per_sec,goodput_sim,goodput_threaded,"
        "p50_sim_us,p50_threaded_us,p50_ratio,"
        "p90_sim_us,p90_threaded_us,p90_ratio,"
        "p99_sim_us,p99_threaded_us,p99_ratio\n";
  for (const auto& p : points) {
    char line[512];
    std::snprintf(
        line, sizeof line,
        "%lld,%.3f,%.3f,%.3f,%lld,%lld,%.4f,%lld,%lld,%.4f,%lld,%lld,%.4f\n",
        static_cast<long long>(p.sim.interval), p.sim.offeredPerSec,
        p.sim.goodputPerSec, p.threaded.goodputPerSec,
        static_cast<long long>(p.sim.latency.p50),
        static_cast<long long>(p.threaded.latency.p50),
        ratio(static_cast<double>(p.threaded.latency.p50),
              static_cast<double>(p.sim.latency.p50)),
        static_cast<long long>(p.sim.latency.p90),
        static_cast<long long>(p.threaded.latency.p90),
        ratio(static_cast<double>(p.threaded.latency.p90),
              static_cast<double>(p.sim.latency.p90)),
        static_cast<long long>(p.sim.latency.p99),
        static_cast<long long>(p.threaded.latency.p99),
        ratio(static_cast<double>(p.threaded.latency.p99),
              static_cast<double>(p.sim.latency.p99)));
    os << line;
  }
}

void writeJson(const std::vector<CalPoint>& points, const std::string& config,
               std::ostream& os) {
  os << "{\n  \"bench\": \"calibration\",\n  \"config\": \"" << config
     << "\",\n  \"points\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "    {\"interval_us\": %lld, \"p50_sim_us\": %lld, "
                  "\"p50_threaded_us\": %lld, \"p50_ratio\": %.4f, "
                  "\"p99_sim_us\": %lld, \"p99_threaded_us\": %lld, "
                  "\"p99_ratio\": %.4f}%s\n",
                  static_cast<long long>(p.sim.interval),
                  static_cast<long long>(p.sim.latency.p50),
                  static_cast<long long>(p.threaded.latency.p50),
                  ratio(static_cast<double>(p.threaded.latency.p50),
                        static_cast<double>(p.sim.latency.p50)),
                  static_cast<long long>(p.sim.latency.p99),
                  static_cast<long long>(p.threaded.latency.p99),
                  ratio(static_cast<double>(p.threaded.latency.p99),
                        static_cast<double>(p.sim.latency.p99)),
                  i + 1 < points.size() ? "," : "");
    os << buf;
  }
  os << "  ]\n}\n";
}

int run(const Options& o) {
  // The shared knob set: the serialized line goes verbatim into the CSV
  // header and the JSON, so the exact configuration is recorded with the
  // artifact.
  core::RunOptions ro;
  ro.protocol = core::ProtocolKind::kA1;
  ro.groups = 2;
  ro.procsPerGroup = 2;

  metrics::SweepOptions sweep;
  sweep.base = ro.toRunConfig();
  sweep.intervals = metrics::defaultLoadLadder(o.points, 96 * kMs, 12 * kMs);
  sweep.casts = o.casts;
  sweep.seedsPerPoint = o.seeds;
  sweep.destGroups = ro.destGroups;

  const std::string config = ro.serialize();
  std::printf("calibration config: %s\n", config.c_str());
  std::printf("ladder: %d points, %d casts, %d seed(s) per point\n", o.points,
              o.casts, o.seeds);

  std::printf("[sim]      sweeping...\n");
  const auto simCurve = metrics::runLatencyThroughputSweep(sweep);

  // Same ladder, same seeds, same workload derivation — only the backend
  // differs. The threaded leg is serial (ScenarioRunner refuses to
  // oversubscribe real-time runs) and takes real wall-clock time.
  sweep.base.backend = exec::Backend::kThreaded;
  std::printf("[threaded] sweeping (real time)...\n");
  const auto thrCurve = metrics::runLatencyThroughputSweep(sweep);

  if (simCurve.size() != thrCurve.size()) {
    std::fprintf(stderr, "backend curves differ in length: %zu vs %zu\n",
                 simCurve.size(), thrCurve.size());
    return 1;
  }

  std::vector<CalPoint> points;
  points.reserve(simCurve.size());
  for (size_t i = 0; i < simCurve.size(); ++i)
    points.push_back({simCurve[i], thrCurve[i]});

  std::printf("\n%12s %14s %12s %12s %9s\n", "interval_ms", "goodput/s(sim)",
              "p50_sim_ms", "p50_thr_ms", "ratio");
  for (const auto& p : points)
    std::printf("%12.1f %14.2f %12.2f %12.2f %9.4f\n",
                p.sim.interval / 1000.0, p.sim.goodputPerSec,
                p.sim.latency.p50 / 1000.0, p.threaded.latency.p50 / 1000.0,
                ratio(static_cast<double>(p.threaded.latency.p50),
                      static_cast<double>(p.sim.latency.p50)));

  if (!o.csvOut.empty()) {
    std::ofstream os(o.csvOut);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", o.csvOut.c_str());
      return 1;
    }
    writeCsv(points, config, os);
    std::printf("\ncsv written to %s\n", o.csvOut.c_str());
  }
  if (!o.jsonOut.empty()) {
    std::ofstream os(o.jsonOut);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", o.jsonOut.c_str());
      return 1;
    }
    writeJson(points, config, os);
    std::printf("json written to %s\n", o.jsonOut.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace wanmc::bench

int main(int argc, char** argv) {
  wanmc::bench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--quick") {
      o.points = 3;
      o.casts = 24;
      o.seeds = 1;
    } else if (arg == "--points") {
      o.points = std::atoi(next().c_str());
    } else if (arg == "--casts") {
      o.casts = std::atoi(next().c_str());
    } else if (arg == "--seeds") {
      o.seeds = std::atoi(next().c_str());
    } else if (arg == "--csv-out") {
      o.csvOut = next();
    } else if (arg == "--out") {
      o.jsonOut = next();
    } else {
      std::fprintf(stderr,
                   "usage: bench_calibration [--quick] [--points N] "
                   "[--casts N] [--seeds N] [--csv-out FILE] [--out FILE]\n");
      return 2;
    }
  }
  return wanmc::bench::run(o);
}
