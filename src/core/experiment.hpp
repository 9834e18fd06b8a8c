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
#include <iterator>
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

// Per-protocol capabilities, used to pick sound expectations and to skip
// scenarios a protocol was never designed for (Skeen87 is failure-free).
struct ProtocolTraits {
  bool toleratesCrashes = true;
  bool uniform = true;    // uniform agreement under crashes
  bool genuine = true;    // only sender+addressees participate
  // Does an amnesiac recovered process re-integrate far enough to deliver
  // NEW messages (those cast after its recovery)? Protocols that gate
  // delivery on state the dead incarnation held (sequencer epochs, merge
  // frontiers, missed consensus instances) do not; set from observed
  // behavior under the recover matrix cells. With the bootstrap plane
  // armed (StackConfig::bootstrap) the state transfer closes exactly that
  // gap, so EVERY stack rejoins — see testing::traitsOf.
  bool recoveredRejoins = false;
};

// One roster row: a stack's names and the facts the harness derives its
// fault-matrix cells and property expectations from.
struct ProtocolInfo {
  ProtocolKind kind;
  const char* key;       // CLI and RunOptions::serialize() key
  const char* testName;  // identifier-safe: gtest suffixes, golden keys
  const char* cited;     // protocolName(): the paper's citation
  bool broadcast;        // every cast addresses every group
  ProtocolTraits traits;
};

// The roster, one row per stack, indexed by ProtocolKind. A new stack is
// one row here plus its case in makeNode (experiment.cpp).
inline constexpr ProtocolInfo kProtocols[] = {
    // A1's stage-skip optimization is what blocks amnesiac rejoins: a
    // message whose own group proposed the max timestamp goes s1 -> s3
    // WITHOUT a second consensus, so its final order exists only in the TS
    // exchange the recovered process missed — it sticks at s1 and blocks
    // the delivery test behind it. Full re-integration needs TS-state
    // transfer (ROADMAP).
    {ProtocolKind::kA1, "a1", "A1", "A1 (this paper)", false, {}},
    // Crash-tolerant, uniform, genuine — and amnesia-recoverable: Fritzke98
    // never skips stages, so the whole ordering history is in the
    // consensus-instance stream a rejoin replays (decision retransmission
    // + round timeouts); Rodrigues re-collects votes after the retraction
    // re-introduces pending messages. Verified by the crash-recover matrix
    // cells, which cast past the recovery.
    {ProtocolKind::kFritzke98, "fritzke98", "Fritzke98",
     "Fritzke et al. 98 [5]", false, {.recoveredRejoins = true}},
    // Ring-token state is lost with the incarnation.
    {ProtocolKind::kDelporte00, "delporte00", "Ring",
     "Delporte & Fauconnier 00 [4]", false, {}},
    {ProtocolKind::kRodrigues98, "rodrigues98", "Rodrigues98",
     "Rodrigues et al. 98 [10]", false, {.recoveredRejoins = true}},
    // The non-genuine multicast of the paper's introduction: A-BCast every
    // message with A2 and deliver it at the addressees only. It inherits
    // A2's latency degree of 1, beating the genuine lower bound of 2 (Prop.
    // 3.1/3.2) precisely because every process works on every message:
    // O(n^2) messages however few groups are addressed (the Tradeoff.*
    // tests in tests/test_integration.cpp). Same replay gap as A1 for the
    // rejoin (observed in the crash-recover cells).
    {ProtocolKind::kViaBcast, "viabcast", "ViaBcast",
     "non-genuine via A-BCast", false, {.genuine = false}},
    // [2] assumes a failure-free system.
    {ProtocolKind::kSkeen87, "skeen87", "Skeen87",
     "Skeen 87 [2] (failure-free)", false, {.toleratesCrashes = false}},
    // Broadcast-based, with A1's replay gap (as ViaBcast).
    {ProtocolKind::kA2, "a2", "A2", "A2 (this paper)", true,
     {.genuine = false}},
    // Optimistic, non-uniform by design [12]; sequencer-based, with the
    // same recovery gap as Vicente02.
    {ProtocolKind::kSousa02, "sousa02", "Sousa02", "Sousa et al. 02 [12]",
     true, {.uniform = false, .genuine = false}},
    // Sequencer-based: a recovered process misses the sequence numbers its
    // dead incarnation consumed and can hold back later slots, so
    // post-recovery delivery is not guaranteed (observed in the
    // crash-recover-sweep cells).
    {ProtocolKind::kVicente02, "vicente02", "Vicente02",
     "Vicente & Rodrigues 02 [13]", true, {.genuine = false}},
    // [1]'s merge needs every publisher's frontier to advance: a crashed
    // publisher stalls delivery, so crash scenarios are out of scope.
    {ProtocolKind::kDetMerge00, "detmerge00", "DetMerge00",
     "Aguilera & Strom 00 [1]", true,
     {.toleratesCrashes = false, .genuine = false}},
};
static_assert([] {
  for (size_t i = 0; i < std::size(kProtocols); ++i)
    if (static_cast<size_t>(kProtocols[i].kind) != i) return false;
  return true;
}(), "kProtocols rows must follow ProtocolKind order");

[[nodiscard]] constexpr const ProtocolInfo& protocolInfo(ProtocolKind k) {
  return kProtocols[static_cast<size_t>(k)];
}
[[nodiscard]] constexpr const char* protocolName(ProtocolKind k) {
  return protocolInfo(k).cited;
}
[[nodiscard]] constexpr bool isBroadcastProtocol(ProtocolKind k) {
  return protocolInfo(k).broadcast;
}

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
