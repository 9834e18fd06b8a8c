// The library's top-level API: configure a WAN, pick a protocol, drive a
// workload, get back a fully instrumented run.
//
//   core::RunConfig cfg;
//   cfg.groups = 3; cfg.procsPerGroup = 2; cfg.protocol = ProtocolKind::kA1;
//   core::Experiment ex(cfg);
//   ex.castAt(5 * kMs, /*sender=*/0, GroupSet::of({0, 1}), "hello");
//   core::RunResult r = ex.run(10 * kSec);
//   r.trace.latencyDegree(...); r.checkAtomicSuite(); ...
#pragma once

#include <cassert>
#include <stdexcept>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "abcast/merge_node.hpp"
#include "channel/channel.hpp"
#include "common/ids.hpp"
#include "common/message.hpp"
#include "common/trace.hpp"
#include "core/stack_node.hpp"
#include "metrics/summary.hpp"
#include "sim/runtime.hpp"
#include "verify/properties.hpp"
#include "workload/spec.hpp"

namespace wanmc::workload {
class Generator;
}
namespace wanmc::exec {
class ThreadedRuntime;
}
namespace wanmc::metrics {
class Recorder;
}
namespace wanmc::core {
class BatchPlane;
}

namespace wanmc::core {

enum class ProtocolKind {
  // Atomic multicast (genuine unless noted).
  kA1,             // this paper, §4 — latency degree 2 (optimal)
  kFritzke98,      // [5]: A1 without stage skipping, uniform reliable mcast
  kDelporte00,     // [4]: per-group ring — latency degree k+1
  kRodrigues98,    // [10]: cross-group consensus — latency degree 4
  kViaBcast,       // non-genuine reduction to A2 — latency degree 1
  kSkeen87,        // [2]: Skeen's original (failure-free) — degree 2
  // Atomic broadcast.
  kA2,             // this paper, §5 — latency degree 1 (optimal)
  kSousa02,        // [12]: optimistic, non-uniform — final delivery degree 2
  kVicente02,      // [13]: uniform sequencer + echo — degree 2, O(n^2)
  kDetMerge00,     // [1]: deterministic merge — degree 1, strong model
};

[[nodiscard]] const char* protocolName(ProtocolKind k);
[[nodiscard]] bool isBroadcastProtocol(ProtocolKind k);

struct RunConfig {
  // Execution backend (exec/context.hpp): kSim runs on the deterministic
  // discrete-event oracle; kThreaded runs every process on its own OS
  // thread against the real steady clock. The threaded backend measures —
  // it supports no fault injection, no reliable channels, no bootstrap,
  // and no capped closed-loop workloads (Experiment rejects those combos).
  exec::Backend backend = exec::Backend::kSim;
  int groups = 2;
  int procsPerGroup = 2;
  // Non-empty overrides groups/procsPerGroup with a ragged layout:
  // groupSizes[g] processes in group g.
  std::vector<int> groupSizes{};
  sim::LatencyModel latency{};
  uint64_t seed = 1;
  ProtocolKind protocol = ProtocolKind::kA1;
  StackConfig stack{};
  abcast::MergeOptions merge{};  // kDetMerge00 only
  // Iid per-wire-copy drop probability in [0, 1) (sim LossModel axis),
  // drawn from a dedicated RNG stream forked from `seed` so arming loss
  // never perturbs the latency draws of surviving copies. Protocol
  // liveness under loss requires stack.reliableChannels.
  double lossRate = 0;
  // Streaming measurement plane (src/metrics/): when on (the default), a
  // metrics::Recorder observes the run and RunResult::metrics is built
  // online, with no trace rescan. Observation never perturbs the run (the
  // golden fingerprints pin this); turn it off only to shave the last few
  // percent off raw simulator throughput — RunResult::metrics is then
  // reconstructed from the trace at harvest time instead.
  bool metrics = true;
  // Installed at construction; generation starts once run() begins. More
  // workloads can be layered on with Experiment::addWorkload.
  std::optional<workload::Spec> workload{};
};

struct RunResult {
  Topology topo;
  RunTrace trace;
  TrafficStats traffic;
  SimTime lastAlgoSend = -1;
  SimTime endTime = 0;
  // Processes that never crashed (a recovered process is NOT correct in
  // the paper's sense — see verify::recoveredProcesses).
  std::set<ProcessId> correct;
  // Processes that crashed and recovered at least once.
  std::set<ProcessId> recovered;
  verify::GenuinenessInput genuineness;
  // Streaming measurement summary (latency percentiles, degree tallies,
  // goodput — see metrics/summary.hpp). Built online by the recorder when
  // RunConfig::metrics is on, else reconstructed from the trace.
  metrics::Summary metrics;
  // Completed bootstrap rejoins (armed runs only), one per install, in
  // install order. firstDeliveryAfter is the recovered pid's first
  // A-Deliver STRICTLY after the install instant (-1: none) — the suffix
  // replay itself lands exactly AT the install instant, so this is the
  // first delivery the rejoined protocol earned on its own; together with
  // installedAt it bounds the catch-up latency.
  struct RejoinResult {
    ProcessId pid = kNoProcess;
    SimTime recoveredAt = 0;
    SimTime installedAt = 0;
    uint64_t suffixReplayed = 0;
    SimTime firstDeliveryAfter = -1;
  };
  std::vector<RejoinResult> rejoins;

  [[nodiscard]] verify::CheckContext checkContext() const {
    return verify::CheckContext{&trace, &topo, correct};
  }
  [[nodiscard]] verify::Violations checkAtomicSuite() const {
    return verify::checkAtomicSuite(checkContext());
  }
};

class Experiment {
 public:
  explicit Experiment(RunConfig cfg);
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  // The execution context hosting the run — backend-agnostic surface.
  [[nodiscard]] exec::Context& context() { return *ctx_; }
  // The sim backend's full control surface (crash/recover/partition/loss
  // injection, the deterministic scheduler). Only valid when the run is on
  // the sim backend — throws std::logic_error otherwise; fault injection
  // is sim-only.
  [[nodiscard]] sim::Runtime& runtime() {
    if (rt_ == nullptr)
      throw std::logic_error(
          "Experiment::runtime(): the fault/scheduler surface is "
          "sim-backend-only; this run is on the threaded backend");
    return *rt_;
  }
  [[nodiscard]] XcastNode& node(ProcessId pid);
  [[nodiscard]] const RunConfig& config() const { return cfg_; }

  // Schedule an A-XCast of a fresh message at simulated time `when`.
  // Returns the message id. For broadcast protocols pass the full group set
  // (or use castAllAt). Throws std::invalid_argument on an out-of-range
  // sender, an empty or out-of-range destination set, or a partial
  // destination set under a broadcast protocol.
  MsgId castAt(SimTime when, ProcessId sender, GroupSet dest,
               std::string body = {});
  MsgId castAllAt(SimTime when, ProcessId sender, std::string body = {});

  // Installs `spec` as a reactive workload: casts are generated by
  // simulator timers while the run progresses (see workload/generator.hpp).
  // The returned generator is owned by the experiment; read its issued()
  // ids after the run. Validates the spec against the topology/protocol
  // like castAt does.
  workload::Generator& addWorkload(workload::Spec spec);

  // Message ids issued so far by every installed workload, in issue order.
  // Complete only once the run has drained the generators.
  [[nodiscard]] std::vector<MsgId> workloadIds() const;

  void crashAt(ProcessId pid, SimTime when);

  // Schedules a recovery: at `when`, if `pid` is crashed, a FRESH node
  // (same protocol, reset state) is attached and started in its place —
  // the crash-recovery model without stable storage. A recovery of an
  // alive process is a no-op. Throws std::invalid_argument on an
  // out-of-range pid.
  void recoverAt(ProcessId pid, SimTime when);

  // Cuts the groups in `side` off from the rest of the topology during
  // [from, until) — see sim::Runtime::partition for exact semantics and
  // the argument validation (both throw std::invalid_argument).
  sim::Runtime::PartitionId partitionAt(GroupSet side, SimTime from,
                                        SimTime until = kTimeNever);

  // Run the simulation until `until` (or exhaustion) and harvest results.
  // A later call continues the same run (cast more, run again); results
  // are cumulative.
  RunResult run(SimTime until = 300 * kSec);

 private:
  friend class workload::Generator;

  RunResult harvest() const;
  // Rejects sim-only RunConfig axes (fault injection, channels, bootstrap,
  // capped closed loops) on the threaded backend — throws
  // std::invalid_argument naming the offending knob.
  void validateBackend() const;
  // Shared castAt/addWorkload argument validation (throws on bad input).
  void validateCast(ProcessId sender, const GroupSet& dest) const;
  // Throws std::invalid_argument on an out-of-range pid (crash/recover).
  void checkPid(ProcessId pid, const char* what) const;
  // Issue a cast NOW, from inside a workload arrival event: the message id
  // is allocated unconditionally (so schedules stay stable under crashes),
  // but a crashed sender casts nothing — the semantics the legacy per-cast
  // timer guard had.
  MsgId issueWorkloadCast(ProcessId sender, GroupSet dest, std::string body);
  // Hand a live cast to the stack — directly, or through the batching
  // plane when StackConfig::batchWindow > 0. Called at cast-fire time with
  // the sender alive; the unbatched path is byte-identical to pre-batching
  // behavior.
  void dispatchCast(ProcessId sender, const AppMsgPtr& m);
  [[nodiscard]] bool batchingEnabled() const {
    return cfg_.stack.batchWindow > 0;
  }

  RunConfig cfg_;
  // Declared before rt_ so the recorder (a registered observer) outlives
  // the runtime; constructed right after rt_ in the ctor body.
  std::unique_ptr<metrics::Recorder> recorder_;  // nullptr: metrics off
  // Exactly one backend is constructed, per cfg_.backend; ctx_ aims at it.
  std::unique_ptr<sim::Runtime> rt_;                // kSim, else nullptr
  std::unique_ptr<exec::ThreadedRuntime> threaded_;  // kThreaded, else null
  exec::Context* ctx_ = nullptr;
  // Closed-loop workload feedback adapters, registered on the sim observer
  // registry (capped closed loops are a sim-only feature).
  std::vector<std::unique_ptr<sim::RunObserver>> workloadObservers_;
  // Reliable-channel plane (nullptr: channels off). Declared after rt_ so
  // it is destroyed first; the runtime holds a non-owning hook pointer and
  // never invokes it from its destructor.
  std::unique_ptr<channel::Plane> channel_;
  // Bootstrap state-transfer plane (nullptr: unarmed). Declared after rt_
  // for the same reason; nodes hold a non-owning pointer via StackConfig
  // and route Layer::kBootstrap packets to it.
  std::unique_ptr<bootstrap::Plane> bootstrap_;
  std::vector<XcastNode*> nodes_;
  std::unique_ptr<BatchPlane> batcher_;  // nullptr: batching off
  std::vector<std::unique_ptr<workload::Generator>> workloads_;
  MsgId nextMsgId_ = 1;
  // Threaded-backend termination ledger: every addressee of every
  // dispatched cast owes one A-Deliver. Touched only on the driver thread
  // (dispatchCast runs there); the sim backend ignores it.
  uint64_t expectedDeliveries_ = 0;
  bool started_ = false;
};

}  // namespace wanmc::core
