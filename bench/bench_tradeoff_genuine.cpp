// The introduction's tradeoff, quantified:
//
// "If latency is the main concern, then every operation should be broadcast
// to all groups... This solution, however, has a high message complexity...
// To reduce the message complexity, genuine multicast can be used. However,
// any genuine multicast algorithm will have a latency degree of at least
// two."
//
// Partial-replication scenario: a system of G groups; every operation
// touches a fixed number of groups k << G. We compare genuine A1 against
// the non-genuine reduction to A2 (broadcast to everyone, deliver at
// addressees), sweeping the system size G at k = 2, and report per-message
// inter-group traffic (grows with G only for the broadcast) and delivery
// latency (one WAN delay better for the broadcast, when warm).
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

namespace wanmc::bench {
namespace {

struct Point {
  double interPerMsg = 0;
  int64_t minDegree = -1;
  double meanWallMs = 0;
  bool safe = false;
};

Point measure(core::ProtocolKind kind, int systemGroups, uint64_t seed) {
  auto cfg = fixedConfig(kind, systemGroups, 2, seed);
  core::Experiment ex(cfg);
  SplitMix64 rng(seed * 101);
  const int count = 30;
  std::vector<MsgId> ids;
  for (int i = 0; i < count; ++i) {
    // Operations touch 2 groups, picked pseudo-randomly; the sender lives
    // in one of them.
    const auto g1 = static_cast<GroupId>(rng.next() %
                                         static_cast<uint64_t>(systemGroups));
    auto g2 = static_cast<GroupId>(rng.next() %
                                   static_cast<uint64_t>(systemGroups));
    if (g2 == g1) g2 = (g1 + 1) % systemGroups;
    const auto sender = static_cast<ProcessId>(g1 * 2);
    ids.push_back(ex.castAt(10 * kMs + i * 40 * kMs, sender,
                            GroupSet::of({g1, g2}), "op"));
  }
  auto r = ex.run(3600 * kSec);
  Point p;
  p.safe = r.checkAtomicSuite().empty();
  p.interPerMsg = static_cast<double>(r.traffic.interAlgorithmic()) / count;
  p.minDegree = r.metrics.latencyDegrees.empty()
                    ? -1
                    : r.metrics.latencyDegrees.begin()->first;
  double wallSum = 0;
  for (MsgId id : ids)
    wallSum += static_cast<double>(r.trace.wallLatency(id).value_or(0)) / kMs;
  p.meanWallMs = wallSum / count;
  return p;
}

void printReproduction() {
  std::printf("\n=== Intro tradeoff — genuine A1 vs broadcast-based "
              "multicast (ops touch 2 groups, d=2, 25 op/s) ===\n");
  std::printf("  %-8s %-28s %14s %12s %12s\n", "G", "algorithm",
              "inter msgs/op", "min Delta", "mean wall");
  for (int G : {2, 3, 4, 6, 8}) {
    for (auto kind :
         {core::ProtocolKind::kA1, core::ProtocolKind::kViaBcast}) {
      auto p = measure(kind, G, 1);
      std::printf("  %-8d %-28s %14.1f %12lld %10.1fms%s\n", G,
                  core::protocolName(kind), p.interPerMsg,
                  static_cast<long long>(p.minDegree), p.meanWallMs,
                  p.safe ? "" : "  [SAFETY VIOLATION]");
    }
  }
  std::printf("\n  expectation: A1's traffic is flat in G (genuineness: "
              "only the 2 addressed groups work) at min Delta = 2;\n"
              "  the broadcast reduction reaches min Delta = 1 but its "
              "per-op traffic grows ~quadratically with the system size.\n"
              "  The crossover makes genuine multicast the bandwidth choice "
              "as soon as G exceeds the touched set.\n\n");
}

void BM_Tradeoff(benchmark::State& state, core::ProtocolKind kind) {
  Point p;
  for (auto _ : state) {
    p = measure(kind, static_cast<int>(state.range(0)), 1);
    benchmark::DoNotOptimize(p);
  }
  state.counters["inter_per_msg"] = p.interPerMsg;
  state.counters["min_degree"] = static_cast<double>(p.minDegree);
}
BENCHMARK_CAPTURE(BM_Tradeoff, A1, core::ProtocolKind::kA1)
    ->Arg(2)->Arg(4)->Arg(8);
BENCHMARK_CAPTURE(BM_Tradeoff, ViaBcast, core::ProtocolKind::kViaBcast)
    ->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace wanmc::bench

int main(int argc, char** argv) {
  wanmc::bench::printReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
