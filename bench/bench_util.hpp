// Shared helpers for the reproduction benches.
//
// Every bench binary prints a paper-vs-measured table for its figure /
// theorem (the reproduction artifact recorded in EXPERIMENTS.md), then runs
// google-benchmark timings of the same simulations so `for b in
// build/bench/*; do $b; done` also yields perf series.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace wanmc::bench {

inline core::RunConfig baseConfig(core::ProtocolKind kind, int groups,
                                  int procs, uint64_t seed = 1) {
  core::RunConfig c;
  c.groups = groups;
  c.procsPerGroup = procs;
  c.seed = seed;
  c.protocol = kind;
  c.latency = sim::LatencyModel{kMs, 2 * kMs, 95 * kMs, 110 * kMs};
  return c;
}

// Jitter-free best-case model: intra-group delays two orders of magnitude
// below inter-group ones, so group-local consensus always completes between
// WAN hops — the interleaving the paper's best-case accounting assumes.
inline core::RunConfig fixedConfig(core::ProtocolKind kind, int groups,
                                   int procs, uint64_t seed = 1) {
  core::RunConfig c = baseConfig(kind, groups, procs, seed);
  c.latency = sim::LatencyModel::fixed(kMs / 10, 100 * kMs);
  return c;
}

struct Row {
  std::string algorithm;
  std::string paperDegree;    // closed-form from Figure 1
  std::string measuredDegree;
  std::string paperMsgs;      // closed-form inter-group message count
  std::string measuredMsgs;
  std::string note;
};

inline void printTable(const std::string& title,
                       const std::vector<Row>& rows) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-34s %14s %14s %16s %14s  %s\n", "algorithm",
              "degree(paper)", "degree(meas)", "igm(paper)", "igm(meas)",
              "note");
  for (const auto& r : rows) {
    std::printf("%-34s %14s %14s %16s %14s  %s\n", r.algorithm.c_str(),
                r.paperDegree.c_str(), r.measuredDegree.c_str(),
                r.paperMsgs.c_str(), r.measuredMsgs.c_str(), r.note.c_str());
  }
  std::printf("\n");
}

inline std::string fmtOpt(std::optional<int64_t> v) {
  return v ? std::to_string(*v) : std::string("-");
}

// Warm a broadcast protocol with a steady stream and return the minimum
// latency degree over the stream plus the per-message inter-group traffic
// of the active phase.
struct StreamStats {
  int64_t minDegree = -1;
  int64_t maxDegree = -1;
  double interPerMsg = 0;
  bool safe = false;
};

inline StreamStats runBroadcastStream(core::RunConfig cfg, int count,
                                      SimTime period,
                                      SimTime horizon = 3600 * kSec) {
  core::Experiment ex(cfg);
  const int n = cfg.groups * cfg.procsPerGroup;
  for (int i = 0; i < count; ++i)
    ex.castAllAt(10 * kMs + i * period,
                 static_cast<ProcessId>(i % n), "b");
  auto r = ex.run(horizon);
  StreamStats s;
  s.safe = r.checkAtomicSuite().empty();
  if (!r.metrics.latencyDegrees.empty()) {
    s.minDegree = r.metrics.latencyDegrees.begin()->first;
    s.maxDegree = r.metrics.latencyDegrees.rbegin()->first;
  }
  s.interPerMsg =
      static_cast<double>(r.traffic.interAlgorithmic()) / count;
  return s;
}

}  // namespace wanmc::bench
