// Deterministic fault-injection harness: ScenarioRunner.
//
// A Scenario is a declarative description of one simulated run — topology,
// protocol, workload, scripted crash schedule, message-drop filters, and a
// latency-model preset — plus the property suite the run must satisfy.
// ScenarioRunner materializes the scenario into a core::Experiment, runs it,
// checks every verify/properties invariant the scenario demands (validity,
// uniform agreement, uniform integrity, prefix/total order, genuineness),
// and returns the violations together with a canonical trace fingerprint.
//
// Everything is a pure function of the scenario seed: rerunning the same
// scenario produces a byte-identical fingerprint, which is what makes crash
// and omission bugs reproducible from a single uint64.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/message.hpp"
#include "common/time.hpp"
#include "core/experiment.hpp"
#include "verify/properties.hpp"
#include "workload/spec.hpp"

namespace wanmc::testing {

// ---------------------------------------------------------------------------
// Latency-model presets.
// ---------------------------------------------------------------------------

enum class LatencyPreset {
  kLan,       // every link 1-2ms: a single site, inter ~= intra
  kWan,       // the paper's WAN: 1-2ms intra, 95-110ms inter (jittered)
  kWanFixed,  // jitter-free WAN (0.1ms / 100ms): theorem interleavings
  kMixed,     // 1-2ms intra, 20-80ms inter: heavy jitter, adversarial
};

[[nodiscard]] sim::LatencyModel latencyModelFor(LatencyPreset p);
[[nodiscard]] const char* latencyPresetName(LatencyPreset p);

// ---------------------------------------------------------------------------
// Fault scripts.
// ---------------------------------------------------------------------------

// Crash process `pid` at simulated time `when` (crash-stop).
struct CrashSpec {
  ProcessId pid = kNoProcess;
  SimTime when = 0;
};

// Randomized crash plan, materialized deterministically from the scenario
// seed: up to `perGroup` distinct victims per group, each at a time drawn
// uniformly from [earliest, latest]. `perGroup` is clamped to a minority of
// each group so consensus stays solvable (the paper's f < n_g/2 assumption).
struct RandomCrashes {
  int perGroup = 1;
  SimTime earliest = 50 * kMs;
  SimTime latest = kSec;
  uint64_t salt = 0xc4a5;  // folded with the scenario seed
};

// Recover process `pid` at simulated time `when`: a FRESH node (reset
// protocol state, re-registered timers) replaces the crashed one — the
// crash-recovery model without stable storage. A no-op if the process is
// alive at `when`.
struct RecoverSpec {
  ProcessId pid = kNoProcess;
  SimTime when = 0;
};

// Seed-derived recovery plan: every crash of the effective crash schedule
// (scripted + materialized random crashes) recovers after a delay drawn
// uniformly from [delayMin, delayMax].
struct RandomRecoveries {
  SimTime delayMin = 200 * kMs;
  SimTime delayMax = 600 * kMs;
  uint64_t salt = 0x9ec0;  // folded with the scenario seed
};

// Seed-derived long-horizon churn: `cycles` consecutive crash+recover
// cycles, one victim per cycle, the c-th crash at exactly
// start + c * period and its recovery after a downtime drawn uniformly
// from [downMin, downMax]. downMax < period keeps at most one process
// down at any instant, so every group retains a live majority throughout.
// Victims are drawn (per cycle, seed-derived) from groups large enough
// that one crash is still a strict minority.
struct ChurnSpec {
  int cycles = 6;
  SimTime start = 2 * kSec;
  SimTime period = 2500 * kMs;
  SimTime downMin = 400 * kMs;
  SimTime downMax = kSec;
  uint64_t salt = 0xc0a7;  // folded with the scenario seed
};

// Cut the groups in `side` off from the rest of the topology during
// [from, until) — copies sent across the cut are dropped deterministically
// and the link heals at `until` (kTimeNever: never heals).
struct PartitionSpec {
  GroupSet side{};
  SimTime from = 0;
  SimTime until = kTimeNever;
};

// Declarative message-drop rule. A packet is dropped when EVERY restriction
// matches and the (deterministic) coin comes up under `probability`; each
// rule's coin stream is forked from the scenario seed. Unset fields match
// anything.
struct DropSpec {
  std::optional<Layer> layer;       // only packets of this layer
  GroupId toGroup = kNoGroup;       // only packets entering this group
  bool interGroupOnly = false;      // only packets crossing a group border
  SimTime activeFrom = 0;           // drop window start (inclusive)
  SimTime activeUntil = kTimeNever; // drop window end (exclusive)
  double probability = 1.0;         // drop chance per matching packet
};

// Materialize a random crash plan against a topology. Exposed so tests can
// assert schedule determinism directly.
[[nodiscard]] std::vector<CrashSpec> materializeCrashes(
    const Topology& topo, const RandomCrashes& plan, uint64_t seed);

// Materialize a random recovery plan against an effective crash schedule
// (one recovery per crash, delay drawn per crash in schedule order).
[[nodiscard]] std::vector<RecoverSpec> materializeRecoveries(
    const std::vector<CrashSpec>& crashes, const RandomRecoveries& plan,
    uint64_t seed);

// Materialize a churn plan against a topology: paired crash and recovery
// schedules of equal length, in cycle order. Exposed for determinism tests.
[[nodiscard]] std::pair<std::vector<CrashSpec>, std::vector<RecoverSpec>>
materializeChurn(const Topology& topo, const ChurnSpec& plan, uint64_t seed);

// ---------------------------------------------------------------------------
// Property expectations.
// ---------------------------------------------------------------------------

// Which invariants a run must satisfy. Safety (integrity + prefix order) is
// always checked; liveness obligations (validity + agreement) are optional
// because arbitrary message loss legitimately voids them, and uniformity is
// per-protocol (Sousa02 is non-uniform by design).
struct PropertyExpectations {
  bool uniform = true;          // uniform vs correct-only agreement & order
  bool checkLiveness = true;    // validity + agreement delivery obligations
  bool checkGenuineness = false;
  // Recovery semantics (fault plane v2): integrity always binds per
  // incarnation and uniform order skips recovered processes (see
  // verify::recoveredProcesses); this flag additionally demands that a
  // recovered process deliver every post-recovery message the correct
  // addressees all delivered (verify::checkRecoveredDelivery) — only
  // sound for protocols whose traits say recoveredRejoins.
  bool checkRecoveredDelivery = false;
  size_t minDeliveries = 0;     // sanity floor: the run must not stall flat
};

// The roster's traits for `kind` (core::kProtocols). With the bootstrap
// plane armed, recoveredRejoins holds for every stack.
[[nodiscard]] core::ProtocolTraits traitsOf(core::ProtocolKind kind,
                                            bool bootstrapArmed = false);

// Short identifier-safe protocol name for parameterized gtest suites
// (core::protocolName contains spaces/brackets, which gtest rejects).
[[nodiscard]] inline const char* protocolTestName(core::ProtocolKind kind) {
  return core::protocolInfo(kind).testName;
}

// The roster's stacks in ProtocolKind order: all of them, or only those
// whose traits tolerate crashes. For suites parameterized over stacks.
[[nodiscard]] std::vector<core::ProtocolKind> allProtocols();
[[nodiscard]] std::vector<core::ProtocolKind> crashTolerantProtocols();

// Sound default expectations for `kind` in a run with/without crashes/drops.
[[nodiscard]] PropertyExpectations defaultExpectations(
    core::ProtocolKind kind, bool anyCrashes, bool anyDrops);

// ---------------------------------------------------------------------------
// Scenario and runner.
// ---------------------------------------------------------------------------

// One cast scheduled verbatim (in addition to any generated workload).
// An empty destination set means "all groups" (broadcast).
struct ScheduledCast {
  SimTime when = 0;
  ProcessId sender = 0;
  GroupSet dest{};
  std::string body{};
};

struct Scenario {
  std::string name = "scenario";
  core::RunConfig config{};                 // protocol, topology, seed
  std::optional<LatencyPreset> latency;     // overrides config.latency
  // Generated workload; its seed is folded with config.seed so sweeps
  // explore a different sender/destination/arrival pattern per seed.
  std::optional<workload::Spec> workload;
  std::vector<ScheduledCast> casts;
  std::vector<CrashSpec> crashes;           // scripted crash schedule
  std::optional<RandomCrashes> randomCrashes;  // + seed-derived crashes
  std::vector<RecoverSpec> recoveries;      // scripted recovery schedule
  std::optional<RandomRecoveries> randomRecoveries;  // + seed-derived
  std::optional<ChurnSpec> churn;           // + seed-derived churn cycles
  std::vector<PartitionSpec> partitions;    // scripted partition windows
  std::vector<DropSpec> drops;
  SimTime runUntil = 600 * kSec;
  PropertyExpectations expect{};

  // Derives expectations from traitsOf(config.protocol) and the fault
  // script. Returns *this for chaining.
  Scenario& withDefaultExpectations();
};

struct ScenarioResult {
  std::string name;
  uint64_t seed = 0;
  core::RunResult run;
  std::vector<CrashSpec> effectiveCrashes;  // scripted + materialized
  std::vector<RecoverSpec> effectiveRecoveries;
  verify::Violations violations;
  std::string fingerprint;  // canonical trace serialization

  [[nodiscard]] bool ok() const { return violations.empty(); }
  // All violations joined, prefixed with the scenario name — for gtest.
  [[nodiscard]] std::string report() const;
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(Scenario s) : scenario_(std::move(s)) {}

  // Builds a fresh Experiment and runs the scenario to completion. Pure in
  // the scenario: calling run() twice yields byte-identical fingerprints.
  [[nodiscard]] ScenarioResult run() const;

  // Reruns the scenario under `count` consecutive seeds starting at
  // `firstSeed` (overriding config.seed; workload, random crashes, and
  // probabilistic drops all re-derive from each seed).
  //
  // Seeds are fully independent Runtime instances, so the sweep fans out
  // over a thread pool. `jobs` = 0 picks the default: the WANMC_JOBS
  // environment variable if set, else hardware_concurrency. `jobs` = 1
  // runs serially. Results are ordered by seed regardless of the job
  // count, and every result is byte-identical to a serial run.
  [[nodiscard]] std::vector<ScenarioResult> sweepSeeds(uint64_t firstSeed,
                                                       int count,
                                                       int jobs = 0) const;

  [[nodiscard]] const Scenario& scenario() const { return scenario_; }

 private:
  Scenario scenario_;
};

// Canonical serialization of a finished run: topology, crash set, every
// cast and delivery with Lamport/wall stamps, per-layer traffic. Two runs
// are behaviorally identical iff their fingerprints are byte-identical.
[[nodiscard]] std::string traceFingerprint(const core::RunResult& r);

// Checks `r` against `exp`; returns all violations found. Sim and threaded
// runs take the same path: every check reads the harvested trace.
[[nodiscard]] verify::Violations checkExpectations(
    const core::RunResult& r, const PropertyExpectations& exp);

// ---------------------------------------------------------------------------
// The shared crash/drop/seed matrix every protocol stack is tested under.
// ---------------------------------------------------------------------------

struct MatrixOptions {
  int groups = 3;
  int procsPerGroup = 3;
  int casts = 8;
  SimTime castInterval = 70 * kMs;
  int seedsPerCell = 2;     // seeds per (latency x fault) cell
  uint64_t firstSeed = 1;
};

// Builds the standard scenario matrix for `kind` from the cell-kind table
// in scenario.cpp. Each row is one tag: the trait that gates it, its
// latency presets and its axis settings (crash scripts, drops, partitions,
// workload shape, heartbeat FD, batching, reliable channels, bootstrap,
// churn). A row yields one scenario per preset, in table order, named
// "<protocolName>/<tag>/<preset>", with expectations derived from the
// stack's traits; rows that crash processes are skipped for stacks that do
// not tolerate crashes (Skeen87, DetMerge00). A new cell kind is one row
// appended at the end of the table, so every earlier cell keeps its name
// and fingerprint. runStandardMatrix sweeps each over seedsPerCell seeds.
[[nodiscard]] std::vector<Scenario> standardFaultMatrix(
    core::ProtocolKind kind, const MatrixOptions& opt = {});

// Runs the whole matrix and returns every result (one per scenario seed).
// Seed sweeps within each scenario use the thread pool (see sweepSeeds).
[[nodiscard]] std::vector<ScenarioResult> runStandardMatrix(
    core::ProtocolKind kind, const MatrixOptions& opt = {}, int jobs = 0);

// Resolves a job-count request: explicit `jobs` > 0 wins, else the
// WANMC_JOBS environment variable, else hardware_concurrency; always
// clamped to [1, maxUseful].
[[nodiscard]] int resolveJobs(int jobs, int maxUseful);

}  // namespace wanmc::testing
