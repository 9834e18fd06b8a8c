#include "testing/scenario.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iterator>
#include <sstream>
#include <thread>

#include "common/rng.hpp"

namespace wanmc::testing {

// ---------------------------------------------------------------------------
// Latency presets.
// ---------------------------------------------------------------------------

sim::LatencyModel latencyModelFor(LatencyPreset p) {
  switch (p) {
    case LatencyPreset::kLan:
      return sim::LatencyModel{kMs, 2 * kMs, kMs, 2 * kMs};
    case LatencyPreset::kWan:
      return sim::LatencyModel{kMs, 2 * kMs, 95 * kMs, 110 * kMs};
    case LatencyPreset::kWanFixed:
      return sim::LatencyModel::fixed(kMs / 10, 100 * kMs);
    case LatencyPreset::kMixed:
      return sim::LatencyModel{kMs, 2 * kMs, 20 * kMs, 80 * kMs};
  }
  return sim::LatencyModel{};
}

const char* latencyPresetName(LatencyPreset p) {
  switch (p) {
    case LatencyPreset::kLan: return "lan";
    case LatencyPreset::kWan: return "wan";
    case LatencyPreset::kWanFixed: return "wan-fixed";
    case LatencyPreset::kMixed: return "mixed";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Fault scripts.
// ---------------------------------------------------------------------------

std::vector<CrashSpec> materializeCrashes(const Topology& topo,
                                          const RandomCrashes& plan,
                                          uint64_t seed) {
  std::vector<CrashSpec> out;
  SplitMix64 rng(SplitMix64(seed).fork(plan.salt).next());
  for (GroupId g = 0; g < topo.numGroups(); ++g) {
    const auto& members = topo.members(g);
    // Strict minority: consensus inside the group must stay solvable.
    const int maxFaulty = (static_cast<int>(members.size()) - 1) / 2;
    const int victims = std::min(plan.perGroup, maxFaulty);
    std::vector<ProcessId> pool = members;
    for (int i = 0; i < victims; ++i) {
      const auto idx = static_cast<size_t>(rng.next() % pool.size());
      const ProcessId victim = pool[idx];
      pool.erase(pool.begin() + static_cast<ptrdiff_t>(idx));
      out.push_back(CrashSpec{
          victim, rng.uniform(plan.earliest, std::max(plan.earliest,
                                                      plan.latest))});
    }
  }
  return out;
}

std::vector<RecoverSpec> materializeRecoveries(
    const std::vector<CrashSpec>& crashes, const RandomRecoveries& plan,
    uint64_t seed) {
  std::vector<RecoverSpec> out;
  SplitMix64 rng(SplitMix64(seed).fork(plan.salt).next());
  for (const CrashSpec& c : crashes) {
    const SimTime delay =
        rng.uniform(plan.delayMin, std::max(plan.delayMin, plan.delayMax));
    out.push_back(RecoverSpec{c.pid, c.when + delay});
  }
  return out;
}

std::pair<std::vector<CrashSpec>, std::vector<RecoverSpec>>
materializeChurn(const Topology& topo, const ChurnSpec& plan,
                 uint64_t seed) {
  std::pair<std::vector<CrashSpec>, std::vector<RecoverSpec>> out;
  // Only processes whose group survives their crash are eligible: one
  // victim at a time, so any group of three or more keeps its majority.
  std::vector<ProcessId> eligible;
  for (ProcessId p : topo.allProcesses())
    if (topo.groupSize(topo.group(p)) >= 3) eligible.push_back(p);
  if (eligible.empty() || plan.cycles <= 0) return out;
  SplitMix64 rng(SplitMix64(seed).fork(plan.salt).next());
  for (int c = 0; c < plan.cycles; ++c) {
    const ProcessId victim =
        eligible[static_cast<size_t>(rng.next() % eligible.size())];
    const SimTime when = plan.start + c * plan.period;
    const SimTime down =
        rng.uniform(plan.downMin, std::max(plan.downMin, plan.downMax));
    out.first.push_back(CrashSpec{victim, when});
    out.second.push_back(RecoverSpec{victim, when + down});
  }
  return out;
}

namespace {

// A deterministic per-rule coin: the k-th matching packet of a rule is
// dropped iff hash(seed, salt, k) < probability. The simulator processes
// packets in a deterministic order, so the whole filter is reproducible.
class DropEngine {
 public:
  DropEngine(std::vector<DropSpec> specs, const Topology& topo,
             uint64_t seed)
      : specs_(std::move(specs)), topo_(&topo) {
    constexpr uint64_t kSalt = 0xd309;  // folded with the scenario seed
    coins_.assign(specs_.size(),
                  SplitMix64(SplitMix64(seed).fork(kSalt).next()));
  }

  bool operator()(ProcessId from, ProcessId to, const Payload& p,
                  SimTime now) {
    bool drop = false;
    for (size_t i = 0; i < specs_.size(); ++i) {
      const DropSpec& s = specs_[i];
      if (s.layer && p.layer() != *s.layer) continue;
      if (s.toGroup != kNoGroup && topo_->group(to) != s.toGroup) continue;
      if (s.interGroupOnly && topo_->sameGroup(from, to)) continue;
      if (now < s.activeFrom || now >= s.activeUntil) continue;
      // Matching rules consume their coin even if an earlier rule already
      // dropped the packet, so each rule's stream stays self-consistent.
      if (s.probability >= 1.0 || coins_[i].uniform01() < s.probability)
        drop = true;
    }
    return drop;
  }

 private:
  std::vector<DropSpec> specs_;
  const Topology* topo_;
  std::vector<SplitMix64> coins_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Protocol traits and expectations.
// ---------------------------------------------------------------------------

core::ProtocolTraits traitsOf(core::ProtocolKind kind, bool bootstrapArmed) {
  core::ProtocolTraits t = core::protocolInfo(kind).traits;
  // The bootstrap plane transfers exactly the state whose loss the roster
  // records (TS exchanges, ring tokens, sequencer counters, merge
  // frontiers): with it armed, every stack's recovered processes rejoin
  // (pinned by the RejoinSmoke suite in tests/test_bootstrap.cpp).
  if (bootstrapArmed) t.recoveredRejoins = true;
  return t;
}

std::vector<core::ProtocolKind> allProtocols() {
  std::vector<core::ProtocolKind> out;
  for (const core::ProtocolInfo& p : core::kProtocols) out.push_back(p.kind);
  return out;
}

std::vector<core::ProtocolKind> crashTolerantProtocols() {
  std::vector<core::ProtocolKind> out;
  for (const core::ProtocolInfo& p : core::kProtocols)
    if (p.traits.toleratesCrashes) out.push_back(p.kind);
  return out;
}

PropertyExpectations defaultExpectations(core::ProtocolKind kind,
                                         bool anyCrashes, bool anyDrops) {
  const core::ProtocolTraits t = traitsOf(kind);
  PropertyExpectations e;
  e.uniform = t.uniform;
  // Arbitrary omission faults void the quasi-reliable-channel assumption:
  // delivery obligations (validity/agreement) no longer bind, but safety
  // (integrity + prefix order) must survive any loss pattern.
  e.checkLiveness = !anyDrops;
  // Genuineness only holds with its preconditions intact: a multicast
  // protocol may legitimately contact extra groups while handling faults.
  e.checkGenuineness = t.genuine && !anyCrashes && !anyDrops;
  return e;
}

Scenario& Scenario::withDefaultExpectations() {
  const bool anyChurn = churn.has_value() && churn->cycles > 0;
  const bool anyCrashes =
      !crashes.empty() || anyChurn ||
      (randomCrashes.has_value() && randomCrashes->perGroup > 0);
  bool anyDrops;
  if (config.stack.reliableChannels) {
    // The retransmitting substrate (src/channel/) restores the quasi-
    // reliable-channel assumption through transient faults: iid loss
    // (lossRate < 1) and HEALING partitions are masked by retransmission,
    // so the full delivery obligations bind. Only permanent omission still
    // voids them: DropSpec filters match retransmitted copies too (a
    // matched link stays lossy forever), and a partition that never heals
    // leaves the retransmit timers firing into a void.
    bool unhealedCut = false;
    for (const auto& p : partitions)
      if (p.until == kTimeNever) unhealedCut = true;
    anyDrops = !drops.empty() || unhealedCut;
  } else {
    // A partition (or raw wire loss) voids the quasi-reliable-channel
    // assumption exactly like an omission fault: copies sent across the
    // cut are lost for good, so delivery obligations no longer bind
    // (safety still must).
    anyDrops = !drops.empty() || !partitions.empty() || config.lossRate > 0;
  }
  expect = defaultExpectations(config.protocol, anyCrashes, anyDrops);
  // Recovered-delivery is a LIVENESS obligation: it only binds where the
  // other delivery obligations do (drops/partitions void it too — a lost
  // copy can be exactly the one addressed to the recovered process).
  if (expect.checkLiveness &&
      (!recoveries.empty() || randomRecoveries.has_value() || anyChurn))
    expect.checkRecoveredDelivery =
        traitsOf(config.protocol, config.stack.bootstrap.armed)
            .recoveredRejoins;
  return *this;
}

// ---------------------------------------------------------------------------
// Checking and fingerprints.
// ---------------------------------------------------------------------------

verify::Violations checkExpectations(const core::RunResult& r,
                                     const PropertyExpectations& exp) {
  verify::Violations out;
  auto append = [&out](verify::Violations v) {
    out.insert(out.end(), v.begin(), v.end());
  };
  const auto ctx = r.checkContext();
  append(verify::checkUniformIntegrity(ctx));
  append(exp.uniform ? verify::checkUniformPrefixOrder(ctx)
                     : verify::checkPrefixOrderCorrectOnly(ctx));
  if (exp.checkLiveness) {
    append(verify::checkValidity(ctx));
    append(exp.uniform ? verify::checkUniformAgreement(ctx)
                       : verify::checkAgreementCorrectOnly(ctx));
  }
  if (exp.checkRecoveredDelivery)
    append(verify::checkRecoveredDelivery(ctx));
  if (exp.checkGenuineness)
    append(verify::checkGenuineness(ctx, r.genuineness));
  if (r.trace.deliveries.size() < exp.minDeliveries) {
    std::ostringstream os;
    os << "stall: only " << r.trace.deliveries.size() << " deliveries, "
       << "expected at least " << exp.minDeliveries;
    out.push_back(os.str());
  }
  return out;
}

std::string traceFingerprint(const core::RunResult& r) {
  std::ostringstream os;
  os << "topo n=" << r.topo.numProcesses() << " m=" << r.topo.numGroups();
  for (GroupId g = 0; g < r.topo.numGroups(); ++g)
    os << " " << r.topo.groupSize(g);
  os << "\ncorrect";
  for (ProcessId p : r.correct) os << " " << p;
  os << "\n";
  for (const auto& c : r.trace.casts)
    os << "C p" << c.process << " m" << c.msg << " d" << c.dest.bits()
       << " lc" << c.lamport << " t" << c.when << "\n";
  for (const auto& d : r.trace.deliveries)
    os << "D p" << d.process << " m" << d.msg << " lc" << d.lamport << " t"
       << d.when << " o" << d.order << "\n";
  // Fault-plane v2 lines are emitted ONLY when the corresponding events
  // exist: every pre-v2 run fingerprint stays byte-identical.
  for (const auto& rec : r.trace.recoveries)
    os << "R p" << rec.process << " t" << rec.when << "\n";
  for (const auto& p : r.trace.partitions)
    os << "P " << (p.cut ? "cut" : "heal") << " s" << p.side << " t"
       << p.when << "\n";
  if (r.trace.linkDrops != 0) os << "LD " << r.trace.linkDrops << "\n";
  if (r.trace.lossDrops != 0) os << "XD " << r.trace.lossDrops << "\n";
  for (int l = 0; l < kNumLayers; ++l) {
    const auto& c = r.traffic.at(static_cast<Layer>(l));
    // The channel and bootstrap layers postdate the golden corpus: their
    // lines appear only when such traffic exists, so channels-off /
    // bootstrap-unarmed fingerprints (and the loss-drop line above) stay
    // byte-identical to the pre-substrate runs.
    if ((static_cast<Layer>(l) == Layer::kChannel ||
         static_cast<Layer>(l) == Layer::kBootstrap) &&
        c.intra == 0 && c.inter == 0)
      continue;
    os << "T " << layerName(static_cast<Layer>(l)) << " intra=" << c.intra
       << " inter=" << c.inter << "\n";
  }
  os << "lastAlgoSend=" << r.lastAlgoSend << " end=" << r.endTime << "\n";
  return os.str();
}

std::string ScenarioResult::report() const {
  std::ostringstream os;
  os << name << " (seed " << seed << "): " << violations.size()
     << " violation(s)";
  for (const auto& v : violations) os << "\n  " << v;
  return os.str();
}

// ---------------------------------------------------------------------------
// ScenarioRunner.
// ---------------------------------------------------------------------------

ScenarioResult ScenarioRunner::run() const {
  const Scenario& s = scenario_;
  core::RunConfig cfg = s.config;
  if (s.latency) cfg.latency = latencyModelFor(*s.latency);
  // Recovery runs need the consensus round timeout armed: an amnesiac
  // rejoin can be an alive-but-silent coordinator of a round the rejoin
  // skip does not pass over (see StackConfig).
  // 500ms is ~2 worst-case preset round trips — long enough that only a
  // real stall fires it, short enough that an amnesiac catching up on a
  // backlog of decided instances (one timeout per instance) finishes
  // well inside the cell horizon.
  if ((!s.recoveries.empty() || s.randomRecoveries.has_value() ||
       s.churn.has_value()) &&
      cfg.stack.consensusRoundTimeout == 0)
    cfg.stack.consensusRoundTimeout = 500 * kMs;

  core::Experiment ex(cfg);
  const Topology& topo = ex.context().topology();

  ScenarioResult result;
  result.name = s.name;
  result.seed = cfg.seed;

  // Fault script: scripted crashes verbatim, random crashes derived from
  // the scenario seed.
  result.effectiveCrashes = s.crashes;
  if (s.randomCrashes) {
    auto extra = materializeCrashes(topo, *s.randomCrashes, cfg.seed);
    result.effectiveCrashes.insert(result.effectiveCrashes.end(),
                                   extra.begin(), extra.end());
  }

  // Recovery schedule: scripted verbatim, plus one seed-derived recovery
  // per effective crash.
  result.effectiveRecoveries = s.recoveries;
  if (s.randomRecoveries) {
    auto extra = materializeRecoveries(result.effectiveCrashes,
                                       *s.randomRecoveries, cfg.seed);
    result.effectiveRecoveries.insert(result.effectiveRecoveries.end(),
                                      extra.begin(), extra.end());
  }

  // Churn cycles: paired crash+recover schedules, appended to both.
  if (s.churn) {
    auto [crashes, recoveries] = materializeChurn(topo, *s.churn, cfg.seed);
    result.effectiveCrashes.insert(result.effectiveCrashes.end(),
                                   crashes.begin(), crashes.end());
    result.effectiveRecoveries.insert(result.effectiveRecoveries.end(),
                                      recoveries.begin(), recoveries.end());
  }

  for (const auto& c : result.effectiveCrashes) ex.crashAt(c.pid, c.when);
  for (const auto& rec : result.effectiveRecoveries)
    ex.recoverAt(rec.pid, rec.when);

  for (const auto& p : s.partitions) ex.partitionAt(p.side, p.from, p.until);

  if (!s.drops.empty()) {
    // The engine lives in the filter closure; per-rule coin streams are
    // seeded from the scenario seed, so reruns replay identical drops.
    auto engine =
        std::make_shared<DropEngine>(s.drops, topo, cfg.seed);
    auto* rt = &ex.runtime();
    ex.runtime().setDropFilter(
        [engine, rt](ProcessId from, ProcessId to, const Payload& p) {
          return (*engine)(from, to, p, rt->now());
        });
  }

  // Workload: generated casts re-derive from the scenario seed so sweeps
  // explore different sender/destination/arrival patterns per seed.
  if (s.workload) {
    workload::Spec spec = *s.workload;
    spec.seed = SplitMix64(cfg.seed).fork(spec.seed).next();
    ex.addWorkload(std::move(spec));
  }
  for (const auto& c : s.casts) {
    const GroupSet dest = c.dest.empty() ? topo.allGroups() : c.dest;
    ex.castAt(c.when, c.sender, dest, c.body);
  }

  result.run = ex.run(s.runUntil);
  result.violations = checkExpectations(result.run, s.expect);
  result.fingerprint = traceFingerprint(result.run);
  return result;
}

int resolveJobs(int jobs, int maxUseful) {
  if (maxUseful < 1) maxUseful = 1;
  if (jobs <= 0) {
    if (const char* env = std::getenv("WANMC_JOBS")) jobs = std::atoi(env);
    if (jobs <= 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      jobs = hw > 0 ? static_cast<int>(hw) : 1;
    }
  }
  return std::min(jobs, maxUseful);
}

std::vector<ScenarioResult> ScenarioRunner::sweepSeeds(uint64_t firstSeed,
                                                       int count,
                                                       int jobs) const {
  std::vector<ScenarioResult> out(static_cast<size_t>(std::max(count, 0)));
  if (count <= 0) return out;

  // Each seed builds its own Experiment/Runtime from a private Scenario
  // copy, and the library holds no mutable globals, so seeds are
  // embarrassingly parallel. Results are written by index: output order is
  // by seed, independent of worker scheduling.
  auto runSeed = [&](int i) {
    Scenario s = scenario_;
    s.config.seed = firstSeed + static_cast<uint64_t>(i);
    s.name = scenario_.name + "/seed" + std::to_string(s.config.seed);
    out[static_cast<size_t>(i)] = ScenarioRunner(std::move(s)).run();
  };

  // A threaded-backend seed already runs one OS thread per process; fanning
  // seeds out on top would oversubscribe the machine AND distort the very
  // wall-clock latencies the backend exists to measure. Serial, always.
  const int n = scenario_.config.backend == exec::Backend::kSim
                    ? resolveJobs(jobs, count)
                    : 1;
  if (n <= 1) {
    for (int i = 0; i < count; ++i) runSeed(i);
    return out;
  }
  std::atomic<int> next{0};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(n));
  for (int w = 0; w < n; ++w) {
    workers.emplace_back([&]() {
      for (int i = next.fetch_add(1); i < count; i = next.fetch_add(1))
        runSeed(i);
    });
  }
  for (auto& t : workers) t.join();
  return out;
}

// ---------------------------------------------------------------------------
// The standard fault matrix: one row per cell kind.
// ---------------------------------------------------------------------------

namespace {

// CellKind::flags.
enum : unsigned {
  // Latency presets: a row yields one cell per preset it sets, in this
  // order (bit i selects kPresets[i]).
  kLan = 1u << 0,
  kWan = 1u << 1,
  kMixed = 1u << 2,
  // The gate: the row crashes processes, so it runs only for stacks whose
  // traits tolerate crashes.
  kCrashes = 1u << 3,
  kMinority = 1u << 4,     // RandomCrashes{}: a seed-drawn minority per group
  kDownAndBack = 1u << 5,  // p1 down at 200 ms, back at 500 ms (downAndBack)
  kHeartbeat = 1u << 6,    // the heartbeat FD instead of the oracle
  kChannels = 1u << 7,     // reliable channels armed
  kBootstrap = 1u << 8,    // bootstrap plane armed
  // Heartbeat-FD runs never quiesce — the detector ticks forever — so the
  // fault-plane v2 cells bound the horizon explicitly: 30 simulated
  // seconds is ~50 WAN round trips past the last arrival.
  kLong = 1u << 9,
  kFloor = 1u << 10,  // minDeliveries = 1: the run must not stall flat
};
constexpr LatencyPreset kPresets[] = {LatencyPreset::kLan, LatencyPreset::kWan,
                                      LatencyPreset::kMixed};

// One cell kind: its tag, its flags, and the settings no flag covers,
// applied to the base cell (closed-loop workload, 900 s horizon) before
// the expectations are derived.
struct CellKind {
  const char* tag;
  unsigned flags;
  void (*setup)(Scenario&, const MatrixOptions&);
};

void poisson(Scenario& s, SimTime meanGap) {
  s.workload->model = workload::Model::kOpenLoopPoisson;
  s.workload->meanGap = meanGap;
}

// The batched Zipf workload: the batching plane accumulates casts per
// (sender, destination-set) window and the stacks order ONE carrier per
// batch. Arrivals are dense and Zipf-skewed so multi-cast batches actually
// form — uniform draws spread the batch keys and degenerate to singleton
// batches.
void batched(Scenario& s, const MatrixOptions& opt, SimTime window,
             int maxSize, int gapDivisor) {
  s.config.stack.batchWindow = window;
  s.config.stack.batchMaxSize = maxSize;
  poisson(s, std::max<SimTime>(opt.castInterval / gapDivisor, kMs));
  s.workload->senderZipf = 1.5;
  s.workload->destZipf = 1.5;
}

// Drops copies that cross a group border with `probability`, in
// [from, until).
void interGroupDrops(Scenario& s, double probability, SimTime from = 0,
                     SimTime until = kTimeNever) {
  DropSpec d;
  d.interGroupOnly = true;
  d.activeFrom = from;
  d.activeUntil = until;
  d.probability = probability;
  s.drops.push_back(d);
}

// The 300 ms cut: group g is cut off for three WAN round trips.
void cut(Scenario& s, GroupId g) {
  s.partitions.push_back(
      PartitionSpec{GroupSet::single(g), 150 * kMs, 450 * kMs});
}

// The down-and-back script: p1 crashes at `down` and rejoins with reset
// state at `up`. Arrivals keep coming well past the recovery instant: the
// recovered-delivery obligation is vacuous unless messages are cast AFTER
// the rejoin (the rotating senders include the recovered process itself —
// alive again, it casts again).
void downAndBack(Scenario& s, SimTime down, SimTime up, int extraCasts) {
  s.crashes.push_back(CrashSpec{1, down});
  s.recoveries.push_back(RecoverSpec{1, up});
  s.workload->count += extraCasts;
}

// Long-horizon churn: seed-derived crash+recover cycles marching through
// the membership while open-loop Poisson arrivals keep the protocol under
// load — every victim must rejoin mid-traffic, cycle after cycle, under
// the oracle and the heartbeat detector alike. Arrivals are stretched to
// span the whole churn window (a cycle every 2.5s for ~15s), not
// front-loaded like the closed-loop cells.
void churnOpen(Scenario& s, const MatrixOptions&) {
  s.churn = ChurnSpec{};
  poisson(s, 600 * kMs);
  s.workload->count += 20;
}

// New kinds are appended, so every earlier cell keeps its name and
// fingerprint.
constexpr CellKind kCellKinds[] = {
    // Failure-free cells: every latency preset.
    {"ok", kLan | kWan | kMixed | kFloor, nullptr},
    // Random minority crashes per group, WAN and mixed jitter.
    {"crash-minority", kWan | kMixed | kCrashes | kMinority, nullptr},
    // Sender crashes right after its first cast (process 0 casts at t=1ms).
    // Broadcast protocols address all groups (empty dest = all).
    {"crash-sender", kWan | kCrashes,
     [](Scenario& s, const MatrixOptions& opt) {
       s.workload.reset();
       const GroupSet dest = core::isBroadcastProtocol(s.config.protocol)
                                 ? GroupSet{}
                                 : GroupSet::of({0, 1});
       s.casts.push_back(ScheduledCast{kMs, 0, dest, "x"});
       for (int i = 1; i < opt.casts; ++i) {
         std::string body = "w";  // append: GCC 12 -Wrestrict, see below
         body += std::to_string(i);
         s.casts.push_back(ScheduledCast{kMs + i * opt.castInterval, 1, dest,
                                         std::move(body)});
       }
       s.crashes.push_back(CrashSpec{0, kMs + 1});
     }},
    // Omission cells: safety must survive any loss pattern. Liveness checks
    // are off (defaultExpectations) — lost packets legitimately stall runs.
    {"drop-protocol-lossy", kWan,
     [](Scenario& s, const MatrixOptions&) {
       interGroupDrops(s, 0.3);
       s.drops.back().layer = Layer::kProtocol;
     }},
    // Total inter-group blackout for a WAN round-trip.
    {"drop-window-blackout", kWan,
     [](Scenario& s, const MatrixOptions&) {
       interGroupDrops(s, 1.0, 150 * kMs, 400 * kMs);
     }},
    // Crashes AND probabilistic loss together.
    {"crash-plus-drop", kMixed | kCrashes | kMinority,
     [](Scenario& s, const MatrixOptions&) { interGroupDrops(s, 0.15); }},
    // Workload-realism cells: open-loop arrivals and skewed load, the
    // regimes the rotating-sender schedule could not express. Failure-free,
    // so the full trait-derived property suite (incl. liveness) applies.
    // Open-loop Poisson arrivals: bursts and quiet stretches at the same
    // mean rate as the closed-loop cells.
    {"open-poisson", kWan | kFloor,
     [](Scenario& s, const MatrixOptions& opt) {
       poisson(s, opt.castInterval);
     }},
    // On/off phases: a burst of back-to-back casts, then silence longer
    // than a WAN round trip, repeated — exercises quiescence/restart paths.
    {"open-burst", kMixed | kFloor,
     [](Scenario& s, const MatrixOptions& opt) {
       s.workload->model = workload::Model::kBursty;
       s.workload->onDuration = opt.castInterval;
       s.workload->offDuration = 300 * kMs;
       s.workload->burstGap = std::max<SimTime>(opt.castInterval / 4, kMs);
     }},
    // Zipf-skewed hotspots: one hot sender, popular destination groups.
    {"skew-zipf", kWan | kFloor,
     [](Scenario& s, const MatrixOptions&) {
       s.workload->senderZipf = 1.2;
       s.workload->destZipf = 0.8;
     }},
    // Open-loop load does not pause for fault handling: minority crashes
    // while Poisson arrivals keep coming.
    {"open-poisson-crash", kWan | kCrashes | kMinority,
     [](Scenario& s, const MatrixOptions& opt) {
       poisson(s, opt.castInterval);
     }},
    // Fault-plane v2 cells, all on the 30 s horizon (kLong).
    // The real detector instead of the oracle, failure-free: exercises
    // heartbeat traffic (and, for cross-group stacks, the remote lanes)
    // under WAN jitter with no suspicion ever justified.
    {"hb-ok", kWan | kHeartbeat | kLong | kFloor, nullptr},
    // Minority crashes under the heartbeat detector: suspicion now comes
    // from timeouts, not the oracle — for Rodrigues-style cross-group
    // consensus this is the remote-lane path (a remote crash must be
    // suspected or the vote quorum hangs).
    {"hb-crash-minority", kWan | kCrashes | kMinority | kHeartbeat | kLong,
     nullptr},
    // A partition that heals: group 0 is cut off for three WAN round trips.
    // Copies crossing the cut are lost for good (no retransmission below
    // the protocols), so like the blackout cells these check safety only.
    {"partition-heal", kWan | kLong,
     [](Scenario& s, const MatrixOptions&) { cut(s, 0); }},
    {"partition-heal-hb", kWan | kHeartbeat | kLong,
     [](Scenario& s, const MatrixOptions&) { cut(s, 0); }},
    // Crash + recovery, scripted: one process of group 0 is down for two
    // WAN round trips, then rejoins with reset state. Integrity binds per
    // incarnation; uniform order skips the amnesiac; and when the
    // protocol re-integrates recovered processes, they must deliver the
    // post-recovery messages every correct addressee delivered.
    {"crash-recover", kWan | kCrashes | kDownAndBack | kLong, nullptr},
    {"crash-recover-hb", kWan | kCrashes | kDownAndBack | kHeartbeat | kLong,
     nullptr},
    // Seed-derived minority crashes, every victim recovering after a
    // seed-derived delay, under adversarial jitter.
    {"crash-recover-sweep", kMixed | kCrashes | kMinority | kLong,
     [](Scenario& s, const MatrixOptions&) {
       s.randomRecoveries = RandomRecoveries{};
     }},
    // Partition + recovery combined: the healing cut and the amnesiac
    // rejoin interact (suspicion from the partition must retract while
    // the recovered process re-integrates). Safety-only, like every
    // partition cell.
    {"partition-recover", kWan | kCrashes | kLong,
     [](Scenario& s, const MatrixOptions&) {
       cut(s, 1);
       downAndBack(s, 200 * kMs, 600 * kMs, 4);
     }},
    // Batching cells (see batched).
    // Batching under open-loop Poisson load, failure-free: the full
    // trait-derived suite (incl. liveness — every window flushes).
    {"batch-open-poisson", kWan | kFloor,
     [](Scenario& s, const MatrixOptions& opt) {
       batched(s, opt, 50 * kMs, 4, 8);
     }},
    // Batching × crashes: windows open when senders die — dead-sender
    // batches must be dropped (their casts bind no obligations), and
    // correct senders' batches must still flush and deliver.
    {"batch-crash", kWan | kCrashes | kMinority,
     [](Scenario& s, const MatrixOptions& opt) {
       batched(s, opt, 60 * kMs, 3, 4);
     }},
    // Batching × healing partition: carriers crossing the cut are lost
    // for good like any packet, so safety-only (see partition-heal) —
    // but a lost carrier must lose its casts ATOMICALLY (prefix order
    // over constituents survives partial connectivity).
    {"batch-partition-heal", kWan | kLong,
     [](Scenario& s, const MatrixOptions& opt) {
       batched(s, opt, 60 * kMs, 4, 8);
       cut(s, 0);
     }},
    // Reliable-channel cells: the retransmitting substrate under the faults
    // that void liveness for bare stacks. With channels armed these are the
    // FULL property suites — transient loss and healing cuts must be
    // masked, so validity/agreement bind again (see
    // withDefaultExpectations).
    // The partition-heal cell graduated to a liveness cell: retransmit
    // timers outlive the 300ms cut, so every copy lost across it is
    // re-sent after the heal and all obligations must be met.
    {"chan-partition-heal", kWan | kChannels | kLong,
     [](Scenario& s, const MatrixOptions&) { cut(s, 0); }},
    // iid per-copy wire loss at 1%, 5%, and 10%: the classic lossy-WAN
    // regime. Without channels these rates would void liveness (a lost copy
    // is gone for good); with them the selective-repeat hole requests and
    // retransmit deadlines must recover every gap, so the full suite applies
    // at every rate.
    {"chan-loss-p1", kWan | kChannels | kLong | kFloor,
     [](Scenario& s, const MatrixOptions&) { s.config.lossRate = 0.01; }},
    {"chan-loss-p5", kWan | kChannels | kLong | kFloor,
     [](Scenario& s, const MatrixOptions&) { s.config.lossRate = 0.05; }},
    {"chan-loss-p10", kWan | kChannels | kLong | kFloor,
     [](Scenario& s, const MatrixOptions&) { s.config.lossRate = 0.10; }},
    // Channels x crash-recovery: sequence spaces keyed by both endpoints'
    // incarnations are what keep a recovered endpoint from replaying its
    // dead incarnation's space. Same script as crash-recover, channels
    // armed.
    {"chan-crash-recover", kWan | kCrashes | kDownAndBack | kChannels | kLong,
     nullptr},
    // Bootstrap cells: the state-transfer plane armed. Recovered processes
    // now REJOIN — traitsOf(kind, armed) flips recoveredRejoins for every
    // stack, so these are the cells where checkRecoveredDelivery binds
    // across the whole protocol zoo, not just the two natural rejoiners.
    // The crash-recover script with the plane armed: the rejoiner must
    // deliver everything cast after its recovery.
    {"boot-crash-recover", kWan | kCrashes | kDownAndBack | kBootstrap | kLong,
     nullptr},
    // Partition + recovery, with BOTH substrates armed: retransmission
    // masks the healing cut (liveness binds again, unlike the bare
    // partition-recover cell), then a crash+rejoin runs on the healed
    // network, so the transferred state spans the partition era. The
    // crash sits well past the heal: a victim that dies while its
    // partition-dropped copies are still on the ARQ's backed-off retry
    // schedule loses them forever (its channel state dies with it),
    // which non-uniform stacks without a second data path — Sousa02 has
    // no echo — legitimately cannot mask. The in-partition handshake
    // path is covered by test_bootstrap.
    {"boot-partition-recover", kWan | kCrashes | kBootstrap | kChannels | kLong,
     [](Scenario& s, const MatrixOptions&) {
       cut(s, 1);
       downAndBack(s, 1500 * kMs, 1900 * kMs, 20);
     }},
    {"churn-open", kWan | kCrashes | kBootstrap | kLong | kFloor, churnOpen},
    {"churn-open-hb",
     kWan | kCrashes | kBootstrap | kHeartbeat | kLong | kFloor, churnOpen},
};

}  // namespace

std::vector<Scenario> standardFaultMatrix(core::ProtocolKind kind,
                                          const MatrixOptions& opt) {
  const bool toleratesCrashes = traitsOf(kind).toleratesCrashes;
  std::vector<Scenario> out;
  for (const CellKind& k : kCellKinds) {
    if ((k.flags & kCrashes) != 0 && !toleratesCrashes) continue;
    for (size_t i = 0; i < std::size(kPresets); ++i) {
      if ((k.flags & (1u << i)) == 0) continue;
      Scenario s;
      s.name = core::protocolName(kind);  // built by append: avoids the
      s.name += "/";                      // GCC 12 -Wrestrict false
      s.name += k.tag;                    // positive on chained operator+
      s.name += "/";
      s.name += latencyPresetName(kPresets[i]);
      s.config.groups = opt.groups;
      s.config.procsPerGroup = opt.procsPerGroup;
      s.config.protocol = kind;
      s.config.seed = opt.firstSeed;
      if ((k.flags & kHeartbeat) != 0)
        s.config.stack.fdKind = fd::FdKind::kHeartbeat;
      s.config.stack.reliableChannels = (k.flags & kChannels) != 0;
      s.config.stack.bootstrap.armed = (k.flags & kBootstrap) != 0;
      s.latency = kPresets[i];
      s.workload = workload::Spec::closedLoop(opt.casts, opt.castInterval,
                                              std::min(2, opt.groups));
      if ((k.flags & kMinority) != 0) s.randomCrashes = RandomCrashes{};
      if ((k.flags & kDownAndBack) != 0)
        downAndBack(s, 200 * kMs, 500 * kMs, 4);
      s.runUntil = (k.flags & kLong) != 0 ? 30 * kSec : 900 * kSec;
      if (k.setup != nullptr) k.setup(s, opt);
      s.withDefaultExpectations();
      if ((k.flags & kFloor) != 0) s.expect.minDeliveries = 1;
      out.push_back(std::move(s));
    }
  }
  return out;
}

std::vector<ScenarioResult> runStandardMatrix(core::ProtocolKind kind,
                                              const MatrixOptions& opt,
                                              int jobs) {
  std::vector<ScenarioResult> out;
  for (const Scenario& s : standardFaultMatrix(kind, opt)) {
    auto sweep = ScenarioRunner(s).sweepSeeds(opt.firstSeed,
                                              opt.seedsPerCell, jobs);
    out.insert(out.end(), std::make_move_iterator(sweep.begin()),
               std::make_move_iterator(sweep.end()));
  }
  return out;
}

}  // namespace wanmc::testing
