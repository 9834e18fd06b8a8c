// Latency explorer: run every protocol in the library on the same WAN and
// workload and print a side-by-side comparison — a hands-on version of the
// paper's Figure 1.
//
//   $ ./examples/latency_explorer [groups] [procsPerGroup] [msgs]
#include <cstdio>
#include <cstdlib>

#include "core/experiment.hpp"

using namespace wanmc;

namespace {

struct RowResult {
  int64_t minDeg = -1;
  int64_t maxDeg = -1;
  double meanWallMs = 0;
  uint64_t inter = 0;
  bool safe = false;
  bool genuine = false;
};

RowResult runProtocol(core::ProtocolKind kind, int groups, int procs,
                      int msgs) {
  core::RunConfig cfg;
  cfg.groups = groups;
  cfg.procsPerGroup = procs;
  cfg.protocol = kind;
  cfg.latency = sim::LatencyModel::fixed(kMs / 10, 100 * kMs);
  cfg.seed = 5;
  cfg.merge.heartbeatPeriod = 200 * kMs;
  core::Experiment ex(cfg);

  SplitMix64 rng(42);
  for (int i = 0; i < msgs; ++i) {
    const auto sender = static_cast<ProcessId>(
        rng.next() % static_cast<uint64_t>(groups * procs));
    GroupSet dest;
    if (core::isBroadcastProtocol(kind)) {
      dest = GroupSet::all(groups);
    } else {
      dest.add(ex.runtime().topology().group(sender));
      dest.add(static_cast<GroupId>(rng.next() %
                                    static_cast<uint64_t>(groups)));
    }
    ex.castAt(10 * kMs + i * 40 * kMs, sender, dest, "op");
  }
  auto r = ex.run(kind == core::ProtocolKind::kDetMerge00
                      ? 10 * kSec + msgs * 40 * kMs
                      : 600 * kSec);

  RowResult out;
  out.safe = r.checkAtomicSuite().empty();
  // Genuineness probe: a run with ONE message addressed to a strict subset
  // of the groups — over many messages every process tends to be an
  // addressee of something, which would mask non-genuine machinery.
  {
    // [1] is probed with a multicast: as a pure broadcast, genuineness is
    // vacuous (every process is an addressee).
    const bool subsetProbe = groups > 1 &&
                             (!core::isBroadcastProtocol(kind) ||
                              kind == core::ProtocolKind::kDetMerge00);
    core::Experiment probe(cfg);
    probe.castAt(kMs, 0,
                 subsetProbe ? GroupSet::of({0}) : GroupSet::all(groups),
                 "probe");
    auto pr = probe.run(kind == core::ProtocolKind::kDetMerge00 ? 5 * kSec
                                                                : 600 * kSec);
    out.genuine =
        verify::checkGenuineness(pr.checkContext(), pr.genuineness).empty();
  }
  out.inter = r.traffic.interAlgorithmic();
  // All the latency aggregates come straight off the streaming summary —
  // no per-message trace rescans (PR 4).
  const metrics::Summary& m = r.metrics;
  if (!m.latencyDegrees.empty()) {
    out.minDeg = m.latencyDegrees.begin()->first;
    out.maxDeg = m.latencyDegrees.rbegin()->first;
  }
  out.meanWallMs = m.msgLatency.mean() *
                   static_cast<double>(m.completed) /
                   (static_cast<double>(msgs) * kMs);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int groups = argc > 1 ? std::atoi(argv[1]) : 3;
  const int procs = argc > 2 ? std::atoi(argv[2]) : 2;
  const int msgs = argc > 3 ? std::atoi(argv[3]) : 20;

  std::printf("latency explorer: %d groups x %d processes, %d messages, "
              "100ms WAN links\n", groups, procs, msgs);
  std::printf("(multicasts address 1-2 groups; broadcasts address all)\n\n");
  std::printf("%-30s %8s %8s %12s %12s %6s %8s\n", "protocol", "minDeg",
              "maxDeg", "mean wall", "inter msgs", "safe", "genuine");

  for (const core::ProtocolInfo& p : core::kProtocols) {
    auto r = runProtocol(p.kind, groups, procs, msgs);
    std::printf("%-30s %8lld %8lld %10.1fms %12llu %6s %8s\n",
                p.cited, static_cast<long long>(r.minDeg),
                static_cast<long long>(r.maxDeg), r.meanWallMs,
                static_cast<unsigned long long>(r.inter),
                r.safe ? "yes" : "NO", r.genuine ? "yes" : "no");
  }
  std::printf("\nnotes: per-message Lamport spans of overlapping messages "
              "inflate each other (the clock is global), so\n"
              "minDeg is the number to compare with Figure 1; 'genuine' "
              "fails by design for broadcast-based multicast\n"
              "and for [1] (heartbeats to everyone).\n");
  return 0;
}
