// Simulator hot-path microbenchmark + regression gate (PR 2).
//
// Measures the simulation core itself — scheduler throughput, multicast
// fan-out/delivery machinery, the DetMerge00 heartbeat storm, the
// open-loop workload storm with the streaming metrics recorder off AND on
// (their ratio is the recorder-overhead figure), the same storm with the
// reliable channel substrate off AND on (the per-event throughput ratio is
// the channel-overhead figure), the storm with the bootstrap plane armed
// but idle (the fault-free cost of keeping every process rejoin-capable),
// the batch-size ladder (batching off / max 8 / max 64 — the batch64/
// batch0 goodput ratio is the amortization headline), and the 100-seed
// sweep wall-clock (serial and thread-pool; the thread-pool leg is marked
// skipped on a single-core box) — and emits a machine-readable JSON report
// (BENCH_PR13.json is the checked-in baseline). Allocation counts come from
// a global operator new hook, so every figure carries an allocs-per-event
// column.
//
//   bench_sim_core [--quick] [--jobs N] [--out FILE] [--check BASELINE]
//
// --quick   reduced iteration budget (CI smoke).
// --check   compare against a baseline JSON; exit 1 if any rate regressed
//           by more than 20%, if any allocs/event rose by more than 20% +
//           0.05, if the metrics recorder or the idle bootstrap plane costs
//           more than 5% of sim-core events/sec, or if the channel
//           substrate costs more than 10% per fired event.
//           Wall-clock fields are machine-dependent and are NOT gated.
//
// Dependency-free on purpose: it must build and run everywhere the library
// does, including the CI smoke job.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/runtime.hpp"
#include "testing/scenario.hpp"

// ---------------------------------------------------------------------------
// Counting allocator hook.
// ---------------------------------------------------------------------------

static std::atomic<uint64_t> g_allocs{0};

// GCC 12's -Wmismatched-new-delete flags std::free in the replaced
// operator delete when it can see an allocation site inlined through the
// std allocator — a false positive here: the replaced operator new
// allocates with std::malloc, so free IS its deallocator.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace wanmc::bench {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// One repeat of a measured body, with the pure-ALU calibration rate
// (SplitMix64 draws/sec) sampled immediately before it: on shared/noisy
// machines a slow window hits both numbers, so their ratio stays stable.
struct Sample {
  double secs = 0;
  uint64_t allocs = 0;
  double calib = 0;  // draws/sec right before this repeat
};

double calibrationRate() {
  wanmc::SplitMix64 rng(1);
  uint64_t sink = 0;
  const uint64_t kDraws = 20'000'000;
  const auto t0 = Clock::now();
  for (uint64_t i = 0; i < kDraws; ++i) sink += rng.next();
  const double secs = secondsSince(t0);
  // Keep the loop observable.
  if (sink == 42) std::fprintf(stderr, "%llu\n", (unsigned long long)sink);
  return static_cast<double>(kDraws) / secs;
}

template <class F>
std::vector<Sample> measure(F&& body, int repeats) {
  std::vector<Sample> out;
  for (int r = 0; r < repeats; ++r) {
    Sample s;
    s.calib = calibrationRate();
    const uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    const auto t0 = Clock::now();
    body();
    s.secs = secondsSince(t0);
    s.allocs = g_allocs.load(std::memory_order_relaxed) - a0;
    out.push_back(s);
  }
  return out;
}

// Fastest repeat: external interference only ever slows a run down, so the
// best sample is the most reproducible point estimate.
const Sample& bestOf(const std::vector<Sample>& samples) {
  size_t best = 0;
  for (size_t i = 1; i < samples.size(); ++i)
    if (samples[i].secs < samples[best].secs) best = i;
  return samples[best];
}

// Median calibration-normalized rate across repeats — the reported
// figure and the baseline side of the --check gate.
// NOT the max: "interference only slows things down" holds for wall
// time but not for the rate/calib RATIO — a noise window that hits the
// calibration loop while missing the measured body inflates the ratio,
// and the max estimator then picks exactly that corrupted repeat
// (observed: a chain-bench repeat with calib at 60% of its neighbors
// producing a norm 50% above every clean run). The median discards a
// mismatched pair on either side.
double normRate(std::vector<Sample> samples, double events) {
  std::vector<double> norms;
  for (const Sample& s : samples)
    if (s.calib > 0 && s.secs > 0) norms.push_back(events / s.secs / s.calib);
  if (norms.empty()) return 0;
  std::sort(norms.begin(), norms.end());
  return norms[norms.size() / 2];
}

// Best normalized rate across repeats — the CURRENT side of the --check
// gate (the baseline side is the median above). Asymmetric on purpose,
// like the overhead floor gates: a genuine regression is systematic and
// shows in every repeat, so the best one still catches it, while a noisy
// window on the gating run can only make repeats slower — taking the
// best keeps one bad window from flaking CI. (The max-inflation hazard
// the median exists for is harmless here: it can only turn a marginal
// fail into a pass, never corrupt the pinned baseline.)
double peakNorm(const std::vector<Sample>& samples, double events) {
  double best = 0;
  for (const Sample& s : samples)
    if (s.calib > 0 && s.secs > 0)
      best = std::max(best, events / s.secs / s.calib);
  return best;
}

// ---------------------------------------------------------------------------
// Benches.
// ---------------------------------------------------------------------------

struct Result {
  std::string name;
  double eventsPerSec = 0;   // 0: not an events/sec bench
  double allocsPerEvent = -1;
  double wallMs = 0;
  double normRate = 0;       // eventsPerSec / calibration draws-per-sec
                             // (median repeat; what the baseline pins)
  double normBest = 0;       // best repeat; the gate's current side
  double goodputPerSec = 0;  // completed casts per wall-second (0: n/a)
  // A bench that could not run meaningfully in this environment (e.g. the
  // thread-pool sweep on a single-core box). Emitted to the JSON so the
  // gate can tell "skipped" from "regressed to nothing".
  bool skipped = false;
  std::string note;
};

// 1. Raw scheduler: 64 self-rescheduling POD chains (bucket-local pattern).
struct Chain {
  wanmc::sim::Scheduler* s;
  uint64_t* fired;
  uint64_t total;
  void operator()() const {
    if (++*fired < total) s->at(s->now() + 1, *this);
  }
};

Result benchSchedulerChain(uint64_t events, int repeats) {
  Result r;
  r.name = "scheduler_chain";
  r.note = "self-rescheduling POD events, single bucket";
  uint64_t fired = 0;
  const auto samples = measure(
      [&] {
        wanmc::sim::Scheduler s;
        fired = 0;
        for (int i = 0; i < 64; ++i) s.at(i, Chain{&s, &fired, events});
        s.run();
      },
      repeats);
  const Sample& m = bestOf(samples);
  r.eventsPerSec = static_cast<double>(fired) / m.secs;
  r.allocsPerEvent = static_cast<double>(m.allocs) / static_cast<double>(fired);
  r.wallMs = m.secs * 1e3;
  r.normRate = normRate(samples, static_cast<double>(fired));
  r.normBest = peakNorm(samples, static_cast<double>(fired));
  return r;
}

// 2. Scheduler under the WAN delay profile: events scatter across the
// calendar ring the way real runs do (1-2ms intra, 95-110ms inter).
struct Scatter {
  wanmc::sim::Scheduler* s;
  wanmc::SplitMix64* rng;
  uint64_t* fired;
  uint64_t total;
  void operator()() const {
    if (++*fired >= total) return;
    const uint64_t v = rng->next();
    const wanmc::SimTime d =
        (v % 8) < 2 ? 1000 + static_cast<wanmc::SimTime>(v % 1000)
                    : 95000 + static_cast<wanmc::SimTime>(v % 15000);
    s->at(s->now() + d, *this);
  }
};

Result benchSchedulerScatter(uint64_t events, int repeats) {
  Result r;
  r.name = "scheduler_scatter";
  r.note = "self-rescheduling POD events, WAN delay scatter";
  uint64_t fired = 0;
  const auto samples = measure(
      [&] {
        wanmc::sim::Scheduler s;
        wanmc::SplitMix64 rng(7);
        fired = 0;
        for (int i = 0; i < 64; ++i)
          s.at(i, Scatter{&s, &rng, &fired, events});
        s.run();
      },
      repeats);
  const Sample& m = bestOf(samples);
  r.eventsPerSec = static_cast<double>(fired) / m.secs;
  r.allocsPerEvent = static_cast<double>(m.allocs) / static_cast<double>(fired);
  r.wallMs = m.secs * 1e3;
  r.normRate = normRate(samples, static_cast<double>(fired));
  r.normBest = peakNorm(samples, static_cast<double>(fired));
  return r;
}

// 3. Full runtime machinery: 3x3 WAN topology, every process multicasts to
// all others each round — measures the per-delivery cost of the network
// path (fan-out records, latency draws, Lamport stamping, dispatch).
struct ProbePayload final : wanmc::Payload {
  [[nodiscard]] wanmc::Layer layer() const override {
    return wanmc::Layer::kProtocol;
  }
  [[nodiscard]] std::string debugString() const override { return "bench"; }
};

class ProbeNode final : public wanmc::sim::Node {
 public:
  using wanmc::sim::Node::Node;
  uint64_t got = 0;
  void onMessage(wanmc::ProcessId, const wanmc::PayloadPtr&) override {
    ++got;
  }
};

Result benchMulticastStorm(int rounds, int repeats) {
  Result r;
  r.name = "multicast_storm";
  r.note = "3x3 WAN all-to-all fan-out, runtime delivery path";
  const int kProcs = 9;
  uint64_t deliveries = 0;
  const auto samples = measure(
      [&] {
        wanmc::sim::Runtime rt(
            wanmc::Topology(3, 3),
            wanmc::sim::LatencyModel{wanmc::kMs, 2 * wanmc::kMs,
                                     95 * wanmc::kMs, 110 * wanmc::kMs},
            1);
        for (wanmc::ProcessId p = 0; p < kProcs; ++p)
          rt.attach(p, std::make_unique<ProbeNode>(rt, p));
        rt.start();
        auto payload = std::make_shared<const ProbePayload>();
        std::vector<wanmc::ProcessId> tos;
        tos.reserve(kProcs - 1);
        for (int round = 0; round < rounds; ++round) {
          for (wanmc::ProcessId p = 0; p < kProcs; ++p) {
            tos.clear();
            for (wanmc::ProcessId q = 0; q < kProcs; ++q)
              if (q != p) tos.push_back(q);
            rt.multicast(p, tos, payload);
          }
          rt.run();
        }
        deliveries =
            static_cast<uint64_t>(rounds) * kProcs * (kProcs - 1);
      },
      repeats);
  const Sample& m = bestOf(samples);
  r.eventsPerSec = static_cast<double>(deliveries) / m.secs;
  r.allocsPerEvent =
      static_cast<double>(m.allocs) / static_cast<double>(deliveries);
  r.wallMs = m.secs * 1e3;
  r.normRate = normRate(samples, static_cast<double>(deliveries));
  r.normBest = peakNorm(samples, static_cast<double>(deliveries));
  return r;
}

// 4 + 5. The DetMerge00 heartbeat storm: the scenario the ROADMAP singled
// out as dominating test wall-clock. One cell (single seed) and the full
// 100-seed sweep, serial and with the thread pool.
wanmc::testing::Scenario detMergeScenario() {
  wanmc::testing::Scenario s;
  s.name = "bench/detmerge";
  s.config.groups = 3;
  s.config.procsPerGroup = 3;
  s.config.protocol = wanmc::core::ProtocolKind::kDetMerge00;
  s.latency = wanmc::testing::LatencyPreset::kWan;
  s.workload = wanmc::workload::Spec::closedLoop(6, 80 * wanmc::kMs, 2);
  s.runUntil = 900 * wanmc::kSec;
  s.withDefaultExpectations();
  return s;
}

Result benchHeartbeatStorm(int repeats) {
  Result r;
  r.name = "heartbeat_storm";
  r.note = "one DetMerge00 seed, 900 sim-seconds of heartbeats";
  // ~365k scheduler events per run (9 procs, 200ms period, 8-way fan-out).
  const double kEventsPerRun = 364'500.0;
  const auto samples = measure(
      [&] {
        auto res = wanmc::testing::ScenarioRunner(detMergeScenario()).run();
        if (!res.ok()) std::fprintf(stderr, "%s\n", res.report().c_str());
      },
      repeats);
  const Sample& m = bestOf(samples);
  r.eventsPerSec = kEventsPerRun / m.secs;
  r.allocsPerEvent = static_cast<double>(m.allocs) / kEventsPerRun;
  r.wallMs = m.secs * 1e3;
  r.normRate = normRate(samples, kEventsPerRun);
  r.normBest = peakNorm(samples, kEventsPerRun);
  return r;
}

// 6. Open-loop workload storm (PR 3): A1 on a 3x3 WAN under Poisson
// arrivals far denser than the delivery latency — the reactive generator
// keeps exactly one pending arrival while hundreds of multicasts overlap.
// Measures end-to-end simulator events/sec (scheduler + network + protocol
// + workload generation) under sustained overload. With `metrics` on, the
// streaming recorder (PR 4) observes every cast and delivery — the pair
// of runs is the recorder-overhead measurement.
uint64_t runOpenLoopStorm(int casts, bool metrics,
                          wanmc::SimTime batchWindow = 0, int batchMax = 0,
                          bool channels = false, bool bootstrap = false) {
  wanmc::core::RunConfig cfg;
  cfg.groups = 3;
  cfg.procsPerGroup = 3;
  cfg.protocol = wanmc::core::ProtocolKind::kA1;
  cfg.latency = wanmc::sim::LatencyModel{
      wanmc::kMs, 2 * wanmc::kMs, 95 * wanmc::kMs, 110 * wanmc::kMs};
  cfg.seed = 1;
  cfg.metrics = metrics;
  cfg.stack.batchWindow = batchWindow;
  cfg.stack.batchMaxSize = batchMax;
  cfg.stack.reliableChannels = channels;
  cfg.stack.bootstrap.armed = bootstrap;
  cfg.workload =
      wanmc::workload::Spec::openLoopPoisson(casts, 3 * wanmc::kMs, 2);
  wanmc::core::Experiment ex(cfg);
  // Drive the runtime directly: the raw fired-event count is the
  // denominator of the rate.
  ex.runtime().start();
  return ex.runtime().run(600 * wanmc::kSec);
}

// The off/on repeats are INTERLEAVED (off, on, off, on, ...) so that a
// noisy wall-clock window on a shared machine degrades both sides of the
// recorder-overhead ratio instead of skewing it — back-to-back blocks were
// observed ±25% apart on the quick budget, far wider than the 5% gate.
// See benchMetricsOverheadPair: `median` is the reported recorder-overhead
// figure, `floor` the noise-robust lower estimate the --check gate uses.
struct OverheadPair {
  double median = 0;
  double floor = 0;
};

std::vector<Result> benchMetricsOverheadPair(int casts, int repeats,
                                             OverheadPair* overheadOut) {
  std::vector<Sample> off, on;
  uint64_t fired = 0;
  for (int r = 0; r < repeats; ++r) {
    for (bool metrics : {false, true}) {
      auto s = measure([&] { fired = runOpenLoopStorm(casts, metrics); }, 1);
      (metrics ? on : off).push_back(s.front());
    }
  }
  // Two estimates off the per-pair wall-time ratios. The REPORTED figure
  // is the median pair (each adjacent off/on pair shares its noise
  // window; the median discards pairs where load shifted mid-pair). The
  // GATED figure is the cleanest pair (largest off/on ratio): a real
  // recorder regression is systematic — it shows in EVERY pair — while
  // interference is one-sided, so the floor estimate cannot flake the CI
  // gate yet still catches a recorder that is genuinely too slow.
  std::vector<double> ratios;
  for (size_t i = 0; i < off.size() && i < on.size(); ++i)
    if (on[i].secs > 0) ratios.push_back(off[i].secs / on[i].secs);
  if (!ratios.empty()) {
    std::sort(ratios.begin(), ratios.end());
    overheadOut->median = 1.0 - ratios[ratios.size() / 2];
    overheadOut->floor = 1.0 - ratios.back();
  }
  auto finish = [&](const std::vector<Sample>& samples, const char* name,
                    const char* tag) {
    Result r;
    r.name = name;
    r.note = "A1 3x3 WAN, Poisson arrivals mean 3ms, " +
             std::to_string(casts) + " casts, metrics " + tag;
    const Sample& m = bestOf(samples);
    r.eventsPerSec = static_cast<double>(fired) / m.secs;
    r.allocsPerEvent =
        static_cast<double>(m.allocs) / static_cast<double>(fired);
    r.wallMs = m.secs * 1e3;
    r.normRate = normRate(samples, static_cast<double>(fired));
    r.normBest = peakNorm(samples, static_cast<double>(fired));
    return r;
  };
  return {finish(off, "open_loop_storm", "off"),
          finish(on, "open_loop_storm_metrics", "on")};
}

// 6b. Channel-overhead pair (PR 7): the identical open-loop storm with the
// reliable channel substrate armed (zero loss). Arming channels roughly
// DOUBLES the fired-event count by design — every DATA copy earns a
// cumulative ACK, plus retransmit-timer arm/cancel events — so comparing
// wall-clock for the same cast budget would gate the intentional extra
// traffic, not the substrate. The figure here is therefore the per-event
// throughput ratio: events/sec with channels on vs off, interleaved
// off/on pairs exactly like the metrics pair above (median reported,
// cleanest-pair floor gated — the channel plane may cost at most 10% of
// sim-core events/sec).
Result benchChannelOverheadPair(int casts, int repeats,
                                OverheadPair* overheadOut) {
  std::vector<Sample> on;
  uint64_t firedOn = 0;
  std::vector<double> ratios;
  for (int r = 0; r < repeats; ++r) {
    double rate[2] = {0, 0};
    for (bool channels : {false, true}) {
      uint64_t fired = 0;
      auto s = measure(
          [&] {
            fired = runOpenLoopStorm(casts, /*metrics=*/false,
                                     /*batchWindow=*/0, /*batchMax=*/0,
                                     channels);
          },
          1);
      if (s.front().secs > 0)
        rate[channels ? 1 : 0] =
            static_cast<double>(fired) / s.front().secs;
      if (channels) {
        on.push_back(s.front());
        firedOn = fired;
      }
    }
    if (rate[0] > 0 && rate[1] > 0) ratios.push_back(rate[1] / rate[0]);
  }
  if (!ratios.empty()) {
    std::sort(ratios.begin(), ratios.end());
    overheadOut->median = 1.0 - ratios[ratios.size() / 2];
    overheadOut->floor = 1.0 - ratios.back();
  }
  Result r;
  r.name = "open_loop_storm_channels";
  r.note = "A1 3x3 WAN, Poisson arrivals mean 3ms, " +
           std::to_string(casts) +
           " casts, reliable channels armed, zero loss";
  const Sample& m = bestOf(on);
  r.eventsPerSec = static_cast<double>(firedOn) / m.secs;
  r.allocsPerEvent =
      static_cast<double>(m.allocs) / static_cast<double>(firedOn);
  r.wallMs = m.secs * 1e3;
  r.normRate = normRate(on, static_cast<double>(firedOn));
  r.normBest = peakNorm(on, static_cast<double>(firedOn));
  return r;
}

// 6c. Bootstrap-overhead pair (PR 9): the identical open-loop storm with
// the bootstrap plane armed but idle (no crash ever happens, so no rejoin
// handshake runs). Arming builds the per-process plane and threads the
// snapshot hooks through every stack — the pair bounds what fault-free
// runs pay for keeping every process rejoin-capable. Interleaved off/on
// pairs like the metrics pair (median reported, cleanest-pair floor
// gated at 5%: an idle plane must stay off the hot path).
Result benchBootstrapOverheadPair(int casts, int repeats,
                                  OverheadPair* overheadOut) {
  std::vector<Sample> on;
  uint64_t firedOn = 0;
  std::vector<double> ratios;
  for (int r = 0; r < repeats; ++r) {
    double rate[2] = {0, 0};
    for (bool bootstrap : {false, true}) {
      uint64_t fired = 0;
      auto s = measure(
          [&] {
            fired = runOpenLoopStorm(casts, /*metrics=*/false,
                                     /*batchWindow=*/0, /*batchMax=*/0,
                                     /*channels=*/false, bootstrap);
          },
          1);
      if (s.front().secs > 0)
        rate[bootstrap ? 1 : 0] =
            static_cast<double>(fired) / s.front().secs;
      if (bootstrap) {
        on.push_back(s.front());
        firedOn = fired;
      }
    }
    if (rate[0] > 0 && rate[1] > 0) ratios.push_back(rate[1] / rate[0]);
  }
  if (!ratios.empty()) {
    std::sort(ratios.begin(), ratios.end());
    overheadOut->median = 1.0 - ratios[ratios.size() / 2];
    overheadOut->floor = 1.0 - ratios.back();
  }
  Result r;
  r.name = "open_loop_storm_bootstrap";
  r.note = "A1 3x3 WAN, Poisson arrivals mean 3ms, " +
           std::to_string(casts) +
           " casts, bootstrap plane armed, no recoveries";
  const Sample& m = bestOf(on);
  r.eventsPerSec = static_cast<double>(firedOn) / m.secs;
  r.allocsPerEvent =
      static_cast<double>(m.allocs) / static_cast<double>(firedOn);
  r.wallMs = m.secs * 1e3;
  r.normRate = normRate(on, static_cast<double>(firedOn));
  r.normBest = peakNorm(on, static_cast<double>(firedOn));
  return r;
}

// 7. Batch ladder (PR 6): the identical open-loop storm under the batching
// plane at rising batch sizes. Batching amortizes the per-cast ordering
// cost (one protocol instance per carrier instead of per cast), so the
// wall-clock per completed cast — goodput_per_sec — is the figure: the
// batch64/batch0 ratio is the headline amortization ceiling recorded in
// the baseline JSON.
std::vector<Result> benchBatchLadder(int casts, int repeats,
                                     double* x64RatioOut) {
  const wanmc::SimTime kWindow = 2 * wanmc::kSec;
  std::vector<Result> out;
  double unbatched = 0;
  for (const int size : {0, 8, 64}) {
    uint64_t fired = 0;
    const auto samples = measure(
        [&] {
          fired = runOpenLoopStorm(casts, /*metrics=*/false,
                                   size == 0 ? 0 : kWindow, size);
        },
        repeats);
    const Sample& m = bestOf(samples);
    Result r;
    r.name = "open_loop_storm_batch" + std::to_string(size);
    r.note = "A1 3x3 WAN, Poisson mean 3ms, " + std::to_string(casts) +
             (size == 0 ? " casts, batching off"
                        : " casts, batch window 2s, max " +
                              std::to_string(size));
    r.eventsPerSec = static_cast<double>(fired) / m.secs;
    r.allocsPerEvent =
        static_cast<double>(m.allocs) / static_cast<double>(fired);
    r.wallMs = m.secs * 1e3;
    r.normRate = normRate(samples, static_cast<double>(fired));
    r.normBest = peakNorm(samples, static_cast<double>(fired));
    r.goodputPerSec = static_cast<double>(casts) / m.secs;
    if (size == 0) unbatched = r.goodputPerSec;
    if (size == 64 && unbatched > 0)
      *x64RatioOut = r.goodputPerSec / unbatched;
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<Result> benchDetMergeSweep(int seeds, int jobs, int repeats) {
  wanmc::testing::ScenarioRunner runner(detMergeScenario());
  size_t bad = 0;
  auto sweep = [&](int useJobs) {
    auto results = runner.sweepSeeds(1, seeds, useJobs);
    for (const auto& res : results) bad += res.ok() ? 0 : 1;
  };

  Result serial;
  serial.name = "detmerge_sweep_serial";
  serial.note = std::to_string(seeds) + " seeds, jobs=1";
  serial.wallMs = bestOf(measure([&] { sweep(1); }, repeats)).secs * 1e3;

  Result parallel;
  parallel.name = "detmerge_sweep_jobs";
  if (jobs <= 1) {
    // A single-core box resolves the pool to one worker: the "parallel"
    // sweep would re-measure the serial one and poison any multi-core
    // baseline it is later compared against. Mark it skipped instead.
    parallel.skipped = true;
    parallel.note = std::to_string(seeds) +
                    " seeds, skipped: thread pool resolved to jobs=1";
  } else {
    parallel.note = std::to_string(seeds) + " seeds, jobs=" +
                    std::to_string(jobs);
    parallel.wallMs =
        bestOf(measure([&] { sweep(jobs); }, repeats)).secs * 1e3;
  }

  if (bad > 0)
    std::fprintf(stderr, "WARNING: %zu sweep cells reported violations\n",
                 bad);
  return {serial, parallel};
}

// ---------------------------------------------------------------------------
// JSON out + baseline check.
// ---------------------------------------------------------------------------

void writeJson(const std::string& path, const std::vector<Result>& results,
               bool quick, int jobs, unsigned hardwareConcurrency,
               double metricsOverhead, double batchGoodputX64,
               double channelOverhead, double bootstrapOverhead) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"wanmc-bench-v1\",\n";
  os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  os << "  \"jobs\": " << jobs << ",\n";
  os << "  \"hardware_concurrency\": " << hardwareConcurrency << ",\n";
  os << "  \"metrics_overhead\": " << metricsOverhead << ",\n";
  os << "  \"batch_goodput_x64\": " << batchGoodputX64 << ",\n";
  os << "  \"channel_overhead\": " << channelOverhead << ",\n";
  os << "  \"bootstrap_overhead\": " << bootstrapOverhead << ",\n";
  os << "  \"benches\": {\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    os << "    \"" << r.name << "\": {";
    if (r.skipped) os << "\"skipped\": true, ";
    if (r.eventsPerSec > 0) os << "\"events_per_sec\": " << r.eventsPerSec
                               << ", ";
    if (r.normRate > 0) os << "\"norm_rate\": " << r.normRate << ", ";
    if (r.goodputPerSec > 0)
      os << "\"goodput_per_sec\": " << r.goodputPerSec << ", ";
    if (r.allocsPerEvent >= 0)
      os << "\"allocs_per_event\": " << r.allocsPerEvent << ", ";
    os << "\"wall_ms\": " << r.wallMs << ", \"note\": \"" << r.note << "\"}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  }\n}\n";
  const std::string text = os.str();
  std::fputs(text.c_str(), stdout);
  if (!path.empty()) {
    std::ofstream f(path);
    f << text;
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }
}

// Minimal field extraction from our own schema: finds
//   "<bench>": {..."<field>": <num>...}
// Good enough for the regression gate; not a general JSON parser.
bool extractField(const std::string& json, const std::string& bench,
                  const std::string& field, double* out) {
  const size_t at = json.find("\"" + bench + "\"");
  if (at == std::string::npos) return false;
  const std::string needle = "\"" + field + "\":";
  const size_t key = json.find(needle, at);
  if (key == std::string::npos) return false;
  const size_t close = json.find('}', at);
  if (close != std::string::npos && key > close) return false;
  *out = std::strtod(json.c_str() + key + needle.size(), nullptr);
  return *out > 0;
}

// True when the baseline recorded this bench as skipped (e.g. it was
// produced on a single-core box): its numbers, if any, are not comparable.
bool baselineSkipped(const std::string& json, const std::string& bench) {
  const size_t at = json.find("\"" + bench + "\"");
  if (at == std::string::npos) return false;
  const size_t key = json.find("\"skipped\": true", at);
  const size_t close = json.find('}', at);
  return key != std::string::npos && close != std::string::npos &&
         key < close;
}

// Allocation gate: allocs/event may exceed the baseline's by at most 20%
// + 0.05. The sim's counts repeat exactly at one budget; the slack absorbs
// what differs between the --quick budget and the full one the baseline
// is taken at: warm-up (scheduler buckets and tables growing to their
// high-water marks) spread over fewer events, and on the batch ladder a
// different batch-fill mix (batch64 reads ~15% more per event at --quick).
bool allocsWithinBaseline(const std::string& baseline, const Result& r) {
  constexpr double kRelSlack = 0.20;
  constexpr double kAbsSlack = 0.05;
  double base = 0;
  if (r.allocsPerEvent < 0 ||
      !extractField(baseline, r.name, "allocs_per_event", &base))
    return true;
  const double limit = base * (1.0 + kRelSlack) + kAbsSlack;
  const bool ok = r.allocsPerEvent <= limit;
  std::fprintf(stderr,
               "check %-18s: allocs/event %.3g vs baseline %.3g (limit "
               "%.3g) %s\n",
               r.name.c_str(), r.allocsPerEvent, base, limit,
               ok ? "ok" : "REGRESSED");
  return ok;
}

int checkAgainstBaseline(const std::string& baseline,
                         const std::vector<Result>& results) {
  constexpr double kMaxRegression = 0.20;
  int failures = 0;
  for (const Result& r : results) {
    if (r.skipped || baselineSkipped(baseline, r.name)) {
      std::fprintf(stderr, "check %-18s: skipped (%s side), not gated\n",
                   r.name.c_str(), r.skipped ? "current" : "baseline");
      continue;
    }
    if (!allocsWithinBaseline(baseline, r)) ++failures;
    if (r.eventsPerSec <= 0) continue;  // wall-clock-only bench: not gated
    // Gate on the calibration-normalized rate when the baseline has one
    // (machine-independent); fall back to the raw rate for old baselines.
    // The current side uses the BEST repeat (see peakNorm) against the
    // baseline's pinned median.
    double base = 0;
    double mine = 0;
    const char* what = "norm";
    if (r.normBest > 0 && extractField(baseline, r.name, "norm_rate", &base)) {
      mine = r.normBest;
    } else if (extractField(baseline, r.name, "events_per_sec", &base)) {
      mine = r.eventsPerSec;
      what = "raw";
    } else {
      std::fprintf(stderr, "check %-18s: no baseline rate, skipped\n",
                   r.name.c_str());
      continue;
    }
    const double ratio = mine / base;
    const bool ok = ratio >= 1.0 - kMaxRegression;
    std::fprintf(stderr,
                 "check %-18s: %s rate %.3g vs baseline %.3g (%.0f%%) %s\n",
                 r.name.c_str(), what, mine, base, ratio * 100,
                 ok ? "ok" : "REGRESSED");
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace wanmc::bench

int main(int argc, char** argv) {
  bool quick = false;
  int jobs = 0;
  std::string out;
  std::string baseline;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (arg == "--check" && i + 1 < argc) {
      baseline = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--jobs N] [--out FILE] "
                   "[--check BASELINE]\n",
                   argv[0]);
      return 2;
    }
  }
  jobs = wanmc::testing::resolveJobs(jobs, 1 << 20);

  using namespace wanmc::bench;

  // The baseline is read BEFORE the report is written: --out and --check
  // may name the same file, and the gate must compare against the previous
  // content, not the report we are about to produce.
  std::string baselineText;
  if (!baseline.empty()) {
    std::ifstream f(baseline);
    if (!f.good()) {
      std::fprintf(stderr, "cannot read baseline %s\n", baseline.c_str());
      return 2;
    }
    std::stringstream buf;
    buf << f.rdbuf();
    baselineText = buf.str();
  }
  const uint64_t chainEvents = quick ? 1'000'000 : 4'000'000;
  const int stormRounds = quick ? 8'000 : 40'000;
  const int sweepSeeds = quick ? 10 : 100;
  const int repeats = quick ? 3 : 5;

  std::vector<Result> results;
  results.push_back(benchSchedulerChain(chainEvents, repeats));
  results.push_back(benchSchedulerScatter(chainEvents, repeats));
  results.push_back(benchMulticastStorm(stormRounds, repeats));
  results.push_back(benchHeartbeatStorm(quick ? 3 : 5));
  // The overhead pair always gets >= 5 interleaved repeats: its ratio
  // feeds a 5% gate, much tighter than the 20% rate gate, so it needs
  // more chances at a clean window even on the quick budget.
  OverheadPair metricsOverhead;
  for (auto& r : benchMetricsOverheadPair(quick ? 400 : 2000,
                                          std::max(repeats, 5),
                                          &metricsOverhead))
    results.push_back(std::move(r));
  // Same interleaving discipline for the channel substrate (10% gate).
  OverheadPair channelOverhead;
  results.push_back(benchChannelOverheadPair(
      quick ? 400 : 2000, std::max(repeats, 5), &channelOverhead));
  // And for the bootstrap plane, armed but idle (5% gate).
  OverheadPair bootstrapOverhead;
  results.push_back(benchBootstrapOverheadPair(
      quick ? 400 : 2000, std::max(repeats, 5), &bootstrapOverhead));
  double batchGoodputX64 = 0;
  for (auto& r : benchBatchLadder(quick ? 400 : 2000, repeats,
                                  &batchGoodputX64))
    results.push_back(std::move(r));
  for (auto& r : benchDetMergeSweep(sweepSeeds, jobs, quick ? 1 : 3))
    results.push_back(std::move(r));

  // Recorder-overhead figure: the metrics-on storm vs the metrics-off
  // storm, on calibration-normalized rates. Reported always; enforced as
  // part of the --check gate (CI budget: the streaming measurement plane
  // may cost at most 5% of sim-core events/sec).
  constexpr double kMaxMetricsOverhead = 0.05;
  std::fprintf(stderr,
               "metrics_overhead: %.2f%% of events/sec median, %.2f%% "
               "cleanest pair (gate %g%% on the latter)\n",
               metricsOverhead.median * 100, metricsOverhead.floor * 100,
               kMaxMetricsOverhead * 100);
  std::fprintf(stderr, "batch_goodput_x64: %.1fx unbatched goodput\n",
               batchGoodputX64);
  // Channel-overhead figure (PR 7): per-event throughput with the reliable
  // channel substrate armed vs off, on interleaved pairs. Gated at 10% —
  // looser than the recorder's 5% because the channel plane does real
  // per-event work (holdback, ACK bookkeeping) on the hot path.
  constexpr double kMaxChannelOverhead = 0.10;
  std::fprintf(stderr,
               "channel_overhead: %.2f%% of events/sec median, %.2f%% "
               "cleanest pair (gate %g%% on the latter)\n",
               channelOverhead.median * 100, channelOverhead.floor * 100,
               kMaxChannelOverhead * 100);
  // Bootstrap-overhead figure (PR 9): per-event throughput with the
  // bootstrap plane armed-but-idle vs off. Gated at the recorder's 5%:
  // with no recovery in the run, the plane must stay off the hot path.
  constexpr double kMaxBootstrapOverhead = 0.05;
  std::fprintf(stderr,
               "bootstrap_overhead: %.2f%% of events/sec median, %.2f%% "
               "cleanest pair (gate %g%% on the latter)\n",
               bootstrapOverhead.median * 100, bootstrapOverhead.floor * 100,
               kMaxBootstrapOverhead * 100);

  writeJson(out, results, quick, jobs, std::thread::hardware_concurrency(),
            metricsOverhead.median, batchGoodputX64, channelOverhead.median,
            bootstrapOverhead.median);
  if (!baseline.empty()) {
    int rc = checkAgainstBaseline(baselineText, results);
    if (metricsOverhead.floor > kMaxMetricsOverhead) {
      std::fprintf(stderr,
                   "check metrics_overhead : cleanest-pair overhead %.2f%% "
                   "exceeds the %g%% budget REGRESSED\n",
                   metricsOverhead.floor * 100, kMaxMetricsOverhead * 100);
      rc = 1;
    }
    if (channelOverhead.floor > kMaxChannelOverhead) {
      std::fprintf(stderr,
                   "check channel_overhead : cleanest-pair overhead %.2f%% "
                   "exceeds the %g%% budget REGRESSED\n",
                   channelOverhead.floor * 100, kMaxChannelOverhead * 100);
      rc = 1;
    }
    if (bootstrapOverhead.floor > kMaxBootstrapOverhead) {
      std::fprintf(stderr,
                   "check bootstrap_overhead : cleanest-pair overhead "
                   "%.2f%% exceeds the %g%% budget REGRESSED\n",
                   bootstrapOverhead.floor * 100,
                   kMaxBootstrapOverhead * 100);
      rc = 1;
    }
    return rc;
  }
  return 0;
}
