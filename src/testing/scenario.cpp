#include "testing/scenario.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
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

std::vector<PartitionSpec> materializePartitions(const Topology& topo,
                                                 const RandomPartitions& plan,
                                                 uint64_t seed) {
  std::vector<PartitionSpec> out;
  if (topo.numGroups() < 2) return out;  // a lone group has no far side
  SplitMix64 rng(SplitMix64(seed).fork(plan.salt).next());
  for (int i = 0; i < plan.count; ++i) {
    const auto g = static_cast<GroupId>(
        rng.next() % static_cast<uint64_t>(topo.numGroups()));
    const SimTime from =
        rng.uniform(plan.earliest, std::max(plan.earliest, plan.latest));
    const SimTime dur =
        rng.uniform(plan.durMin, std::max(plan.durMin, plan.durMax));
    out.push_back(PartitionSpec{GroupSet::single(g), from, from + dur});
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
    for (const auto& s : specs_)
      coins_.emplace_back(SplitMix64(seed).fork(s.salt).next());
  }

  bool operator()(ProcessId from, ProcessId to, const Payload& p,
                  SimTime now) {
    bool drop = false;
    for (size_t i = 0; i < specs_.size(); ++i) {
      const DropSpec& s = specs_[i];
      if (s.layer && p.layer() != *s.layer) continue;
      if (s.from != kNoProcess && from != s.from) continue;
      if (s.to != kNoProcess && to != s.to) continue;
      if (s.fromGroup != kNoGroup && topo_->group(from) != s.fromGroup)
        continue;
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

ProtocolTraits traitsOf(core::ProtocolKind kind, bool bootstrapArmed) {
  using core::ProtocolKind;
  ProtocolTraits t;
  switch (kind) {
    case ProtocolKind::kA1:
      // A1's stage-skip optimization is what blocks amnesiac rejoins: a
      // message whose own group proposed the max timestamp goes s1 -> s3
      // WITHOUT a second consensus, so its final order exists only in
      // the TS exchange the recovered process missed — it sticks at s1
      // and blocks the delivery test behind it. Full re-integration
      // needs TS-state transfer (ROADMAP).
      break;
    case ProtocolKind::kFritzke98:
    case ProtocolKind::kRodrigues98:
      // Crash-tolerant, uniform, genuine — and amnesia-recoverable:
      // Fritzke98 never skips stages, so the whole ordering history is
      // in the consensus-instance stream a rejoin replays (decision
      // retransmission + round timeouts); Rodrigues re-collects votes
      // after the retraction re-introduces pending messages. Verified by
      // the crash-recover matrix cells, which cast past the recovery.
      t.recoveredRejoins = true;
      break;
    case ProtocolKind::kDelporte00:
      break;  // ring-token state is lost with the incarnation
    case ProtocolKind::kSkeen87:
      t.toleratesCrashes = false;  // [2] assumes a failure-free system
      break;
    case ProtocolKind::kViaBcast:
    case ProtocolKind::kA2:
      // Broadcast-based: every process participates. Same replay gap as
      // A1 for the rejoin (observed in the crash-recover cells).
      t.genuine = false;
      break;
    case ProtocolKind::kVicente02:
      t.genuine = false;
      // Sequencer-based: a recovered process misses the sequence numbers
      // its dead incarnation consumed and can hold back later slots, so
      // post-recovery delivery is not guaranteed (observed in the
      // crash-recover-sweep cells).
      break;
    case ProtocolKind::kSousa02:
      t.genuine = false;
      t.uniform = false;  // optimistic, non-uniform by design [12]
      break;  // sequencer-based: same recovery gap as Vicente02
    case ProtocolKind::kDetMerge00:
      // [1]'s merge needs every publisher's frontier to advance: a crashed
      // publisher stalls delivery, so crash scenarios are out of scope.
      t.toleratesCrashes = false;
      t.genuine = false;
      break;
  }
  // The bootstrap plane transfers exactly the state whose loss is recorded
  // above (TS exchanges, ring tokens, sequencer counters, merge frontiers):
  // with it armed, every stack's recovered processes rejoin (pinned by the
  // RejoinSmoke suite in tests/test_bootstrap.cpp).
  if (bootstrapArmed) t.recoveredRejoins = true;
  return t;
}

const char* protocolTestName(core::ProtocolKind kind) {
  using core::ProtocolKind;
  switch (kind) {
    case ProtocolKind::kA1: return "A1";
    case ProtocolKind::kFritzke98: return "Fritzke98";
    case ProtocolKind::kDelporte00: return "Ring";
    case ProtocolKind::kRodrigues98: return "Rodrigues98";
    case ProtocolKind::kViaBcast: return "ViaBcast";
    case ProtocolKind::kSkeen87: return "Skeen87";
    case ProtocolKind::kA2: return "A2";
    case ProtocolKind::kSousa02: return "Sousa02";
    case ProtocolKind::kVicente02: return "Vicente02";
    case ProtocolKind::kDetMerge00: return "DetMerge00";
  }
  return "Unknown";
}

PropertyExpectations defaultExpectations(core::ProtocolKind kind,
                                         bool anyCrashes, bool anyDrops) {
  const ProtocolTraits t = traitsOf(kind);
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
    anyDrops = !drops.empty() || !partitions.empty() ||
               randomPartitions.has_value() || config.lossRate > 0;
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
  if (exp.quiescenceBudget)
    append(verify::checkQuiescence(ctx, r.lastAlgoSend,
                                   *exp.quiescenceBudget));
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

  // Partition windows: scripted verbatim + seed-derived healing cuts.
  result.effectivePartitions = s.partitions;
  if (s.randomPartitions) {
    auto extra =
        materializePartitions(topo, *s.randomPartitions, cfg.seed);
    result.effectivePartitions.insert(result.effectivePartitions.end(),
                                      extra.begin(), extra.end());
  }
  for (const auto& p : result.effectivePartitions)
    ex.partitionAt(p.side, p.from, p.until);

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
// The standard fault matrix.
// ---------------------------------------------------------------------------

std::vector<Scenario> standardFaultMatrix(core::ProtocolKind kind,
                                          const MatrixOptions& opt) {
  const ProtocolTraits traits = traitsOf(kind);
  const std::string base = core::protocolName(kind);

  auto makeBase = [&](const char* tag, LatencyPreset latency) {
    Scenario s;
    s.name = base;  // built by append: avoids the GCC 12 -Wrestrict
    s.name += "/";  // false positive on chained operator+
    s.name += tag;
    s.name += "/";
    s.name += latencyPresetName(latency);
    s.config.groups = opt.groups;
    s.config.procsPerGroup = opt.procsPerGroup;
    s.config.protocol = kind;
    s.config.seed = opt.firstSeed;
    s.latency = latency;
    s.workload = workload::Spec::closedLoop(opt.casts, opt.castInterval,
                                            std::min(2, opt.groups));
    s.runUntil = 900 * kSec;
    return s;
  };

  std::vector<Scenario> out;

  // Failure-free cells: every latency preset.
  for (LatencyPreset l :
       {LatencyPreset::kLan, LatencyPreset::kWan, LatencyPreset::kMixed}) {
    Scenario s = makeBase("ok", l);
    s.withDefaultExpectations();
    s.expect.minDeliveries = 1;
    out.push_back(std::move(s));
  }

  if (traits.toleratesCrashes) {
    // Random minority crashes per group, WAN and mixed jitter.
    for (LatencyPreset l : {LatencyPreset::kWan, LatencyPreset::kMixed}) {
      Scenario s = makeBase("crash-minority", l);
      s.randomCrashes = RandomCrashes{1, 50 * kMs, kSec, 0xc4a5};
      s.withDefaultExpectations();
      out.push_back(std::move(s));
    }
    // Sender crashes right after its first cast (process 0 casts at t=1ms).
    // Broadcast protocols address all groups (empty dest = all).
    {
      Scenario s = makeBase("crash-sender", LatencyPreset::kWan);
      s.workload.reset();
      const GroupSet dest = core::isBroadcastProtocol(kind)
                                ? GroupSet{}
                                : GroupSet::of({0, 1});
      s.casts.push_back(ScheduledCast{kMs, 0, dest, "x"});
      for (int i = 1; i < opt.casts; ++i) {
        std::string body = "w";  // append: GCC 12 -Wrestrict, see makeBase
        body += std::to_string(i);
        s.casts.push_back(ScheduledCast{kMs + i * opt.castInterval, 1, dest,
                                        std::move(body)});
      }
      s.crashes.push_back(CrashSpec{0, kMs + 1});
      s.withDefaultExpectations();
      out.push_back(std::move(s));
    }
  }

  // Omission cells: safety must survive any loss pattern. Liveness checks
  // are off (defaultExpectations) — lost packets legitimately stall runs.
  {
    Scenario s = makeBase("drop-protocol-lossy", LatencyPreset::kWan);
    DropSpec d;
    d.layer = Layer::kProtocol;
    d.interGroupOnly = true;
    d.probability = 0.3;
    s.drops.push_back(d);
    s.withDefaultExpectations();
    out.push_back(std::move(s));
  }
  {
    Scenario s = makeBase("drop-window-blackout", LatencyPreset::kWan);
    DropSpec d;  // total inter-group blackout for a WAN round-trip
    d.interGroupOnly = true;
    d.activeFrom = 150 * kMs;
    d.activeUntil = 400 * kMs;
    s.drops.push_back(d);
    s.withDefaultExpectations();
    out.push_back(std::move(s));
  }
  if (traits.toleratesCrashes) {
    // Crashes AND probabilistic loss together.
    Scenario s = makeBase("crash-plus-drop", LatencyPreset::kMixed);
    s.randomCrashes = RandomCrashes{1, 50 * kMs, kSec, 0xc4a5};
    DropSpec d;
    d.interGroupOnly = true;
    d.probability = 0.15;
    s.drops.push_back(d);
    s.withDefaultExpectations();
    out.push_back(std::move(s));
  }

  // Workload-realism cells (PR 3): open-loop arrivals and skewed load, the
  // regimes the rotating-sender schedule could not express. Failure-free,
  // so the full trait-derived property suite (incl. liveness) applies.
  {
    // Open-loop Poisson arrivals: bursts and quiet stretches at the same
    // mean rate as the closed-loop cells.
    Scenario s = makeBase("open-poisson", LatencyPreset::kWan);
    s.workload->model = workload::Model::kOpenLoopPoisson;
    s.workload->meanGap = opt.castInterval;
    s.withDefaultExpectations();
    s.expect.minDeliveries = 1;
    out.push_back(std::move(s));
  }
  {
    // On/off phases: a burst of back-to-back casts, then silence longer
    // than a WAN round trip, repeated — exercises quiescence/restart paths.
    Scenario s = makeBase("open-burst", LatencyPreset::kMixed);
    s.workload->model = workload::Model::kBursty;
    s.workload->onDuration = opt.castInterval;
    s.workload->offDuration = 300 * kMs;
    s.workload->burstGap = std::max<SimTime>(opt.castInterval / 4, kMs);
    s.withDefaultExpectations();
    s.expect.minDeliveries = 1;
    out.push_back(std::move(s));
  }
  {
    // Zipf-skewed hotspots: one hot sender, popular destination groups.
    Scenario s = makeBase("skew-zipf", LatencyPreset::kWan);
    s.workload->senderZipf = 1.2;
    s.workload->destZipf = 0.8;
    s.withDefaultExpectations();
    s.expect.minDeliveries = 1;
    out.push_back(std::move(s));
  }
  if (traits.toleratesCrashes) {
    // Open-loop load does not pause for fault handling: minority crashes
    // while Poisson arrivals keep coming.
    Scenario s = makeBase("open-poisson-crash", LatencyPreset::kWan);
    s.workload->model = workload::Model::kOpenLoopPoisson;
    s.workload->meanGap = opt.castInterval;
    s.randomCrashes = RandomCrashes{1, 50 * kMs, kSec, 0xc4a5};
    s.withDefaultExpectations();
    out.push_back(std::move(s));
  }

  // Fault-plane v2 cells (appended so every pre-v2 cell keeps its name and
  // fingerprint). Heartbeat-FD runs never quiesce — the detector ticks
  // forever — so these cells bound the horizon explicitly: 30 simulated
  // seconds is ~50 WAN round trips past the last arrival.
  const SimTime v2Horizon = 30 * kSec;

  {
    // The real detector instead of the oracle, failure-free: exercises
    // heartbeat traffic (and, for cross-group stacks, the remote lanes)
    // under WAN jitter with no suspicion ever justified.
    Scenario s = makeBase("hb-ok", LatencyPreset::kWan);
    s.config.stack.fdKind = fd::FdKind::kHeartbeat;
    s.runUntil = v2Horizon;
    s.withDefaultExpectations();
    s.expect.minDeliveries = 1;
    out.push_back(std::move(s));
  }
  if (traits.toleratesCrashes) {
    // Minority crashes under the heartbeat detector: suspicion now comes
    // from timeouts, not the oracle — for Rodrigues-style cross-group
    // consensus this is the remote-lane path (a remote crash must be
    // suspected or the vote quorum hangs).
    Scenario s = makeBase("hb-crash-minority", LatencyPreset::kWan);
    s.config.stack.fdKind = fd::FdKind::kHeartbeat;
    s.randomCrashes = RandomCrashes{1, 50 * kMs, kSec, 0xc4a5};
    s.runUntil = v2Horizon;
    s.withDefaultExpectations();
    out.push_back(std::move(s));
  }

  // A partition that heals: group 0 is cut off for three WAN round trips.
  // Copies crossing the cut are lost for good (no retransmission below
  // the protocols), so like the blackout cells these check safety only.
  for (bool hb : {false, true}) {
    Scenario s = makeBase(hb ? "partition-heal-hb" : "partition-heal",
                          LatencyPreset::kWan);
    if (hb) s.config.stack.fdKind = fd::FdKind::kHeartbeat;
    s.partitions.push_back(
        PartitionSpec{GroupSet::single(0), 150 * kMs, 450 * kMs});
    s.runUntil = v2Horizon;
    s.withDefaultExpectations();
    out.push_back(std::move(s));
  }

  if (traits.toleratesCrashes) {
    // Crash + recovery, scripted: one process of group 0 is down for two
    // WAN round trips, then rejoins with reset state. Integrity binds per
    // incarnation; uniform order skips the amnesiac; and when the
    // protocol re-integrates recovered processes, they must deliver the
    // post-recovery messages every correct addressee delivered.
    for (bool hb : {false, true}) {
      Scenario s = makeBase(hb ? "crash-recover-hb" : "crash-recover",
                            LatencyPreset::kWan);
      if (hb) s.config.stack.fdKind = fd::FdKind::kHeartbeat;
      s.crashes.push_back(CrashSpec{1, 200 * kMs});
      s.recoveries.push_back(RecoverSpec{1, 500 * kMs});
      // Keep arrivals coming well past the recovery instant: the
      // recovered-delivery obligation is vacuous unless messages are
      // cast AFTER the rejoin (the rotating senders include the
      // recovered process itself — alive again, it casts again).
      s.workload->count = opt.casts + 4;
      s.runUntil = v2Horizon;
      s.withDefaultExpectations();
      out.push_back(std::move(s));
    }
    {
      // Seed-derived minority crashes, every victim recovering after a
      // seed-derived delay, under adversarial jitter.
      Scenario s = makeBase("crash-recover-sweep", LatencyPreset::kMixed);
      s.randomCrashes = RandomCrashes{1, 50 * kMs, kSec, 0xc4a5};
      s.randomRecoveries = RandomRecoveries{};
      s.runUntil = v2Horizon;
      s.withDefaultExpectations();
      out.push_back(std::move(s));
    }
    {
      // Partition + recovery combined: the healing cut and the amnesiac
      // rejoin interact (suspicion from the partition must retract while
      // the recovered process re-integrates). Safety-only, like every
      // partition cell.
      Scenario s = makeBase("partition-recover", LatencyPreset::kWan);
      s.partitions.push_back(
          PartitionSpec{GroupSet::single(1), 150 * kMs, 450 * kMs});
      s.crashes.push_back(CrashSpec{1, 200 * kMs});
      s.recoveries.push_back(RecoverSpec{1, 600 * kMs});
      s.workload->count = opt.casts + 4;  // arrivals past the recovery
      s.runUntil = v2Horizon;
      s.withDefaultExpectations();
      out.push_back(std::move(s));
    }
  }

  // Batching cells (PR 6, appended so every earlier cell keeps its name
  // and fingerprint): the batching plane accumulates casts per (sender,
  // destination-set) window and the stacks order ONE carrier per batch.
  // Arrivals are dense and Zipf-skewed so multi-cast batches actually
  // form — uniform draws spread the batch keys and degenerate to
  // singleton batches.
  {
    // Batching under open-loop Poisson load, failure-free: the full
    // trait-derived suite (incl. liveness — every window flushes).
    Scenario s = makeBase("batch-open-poisson", LatencyPreset::kWan);
    s.config.stack.batchWindow = 50 * kMs;
    s.config.stack.batchMaxSize = 4;
    s.workload->model = workload::Model::kOpenLoopPoisson;
    s.workload->meanGap = std::max<SimTime>(opt.castInterval / 8, kMs);
    s.workload->senderZipf = 1.5;
    s.workload->destZipf = 1.5;
    s.withDefaultExpectations();
    s.expect.minDeliveries = 1;
    out.push_back(std::move(s));
  }
  if (traits.toleratesCrashes) {
    // Batching × crashes: windows open when senders die — dead-sender
    // batches must be dropped (their casts bind no obligations), and
    // correct senders' batches must still flush and deliver.
    Scenario s = makeBase("batch-crash", LatencyPreset::kWan);
    s.config.stack.batchWindow = 60 * kMs;
    s.config.stack.batchMaxSize = 3;
    s.workload->model = workload::Model::kOpenLoopPoisson;
    s.workload->meanGap = std::max<SimTime>(opt.castInterval / 4, kMs);
    s.workload->senderZipf = 1.5;
    s.workload->destZipf = 1.5;
    s.randomCrashes = RandomCrashes{1, 50 * kMs, kSec, 0xc4a5};
    s.withDefaultExpectations();
    out.push_back(std::move(s));
  }
  {
    // Batching × healing partition: carriers crossing the cut are lost
    // for good like any packet, so safety-only (see partition-heal) —
    // but a lost carrier must lose its casts ATOMICALLY (prefix order
    // over constituents survives partial connectivity).
    Scenario s = makeBase("batch-partition-heal", LatencyPreset::kWan);
    s.config.stack.batchWindow = 60 * kMs;
    s.config.stack.batchMaxSize = 4;
    s.workload->model = workload::Model::kOpenLoopPoisson;
    s.workload->meanGap = std::max<SimTime>(opt.castInterval / 8, kMs);
    s.workload->senderZipf = 1.5;
    s.workload->destZipf = 1.5;
    s.partitions.push_back(
        PartitionSpec{GroupSet::single(0), 150 * kMs, 450 * kMs});
    s.runUntil = v2Horizon;
    s.withDefaultExpectations();
    out.push_back(std::move(s));
  }

  // Reliable-channel cells (PR 7, appended so every earlier cell keeps its
  // name and fingerprint): the retransmitting substrate under the faults
  // that void liveness for bare stacks. With channels armed these are the
  // FULL property suites — transient loss and healing cuts must be masked,
  // so validity/agreement bind again (see withDefaultExpectations).
  {
    // The partition-heal cell graduated to a liveness cell: retransmit
    // timers outlive the 300ms cut, so every copy lost across it is
    // re-sent after the heal and all obligations must be met.
    Scenario s = makeBase("chan-partition-heal", LatencyPreset::kWan);
    s.config.stack.reliableChannels = true;
    s.partitions.push_back(
        PartitionSpec{GroupSet::single(0), 150 * kMs, 450 * kMs});
    s.runUntil = v2Horizon;
    s.withDefaultExpectations();
    out.push_back(std::move(s));
  }
  // iid per-copy wire loss at 1%, 5%, and 10%: the classic lossy-WAN
  // regime. Without channels these rates would void liveness (a lost copy
  // is gone for good); with them the selective-repeat hole requests and
  // retransmit deadlines must recover every gap, so the full suite applies
  // at every rate.
  for (double lossP : {0.01, 0.05, 0.10}) {
    std::string tag = "chan-loss-p";  // append: GCC 12 -Wrestrict
    tag += std::to_string(static_cast<int>(lossP * 100 + 0.5));
    Scenario s = makeBase(tag.c_str(), LatencyPreset::kWan);
    s.config.stack.reliableChannels = true;
    s.config.lossRate = lossP;
    s.runUntil = v2Horizon;
    s.withDefaultExpectations();
    s.expect.minDeliveries = 1;
    out.push_back(std::move(s));
  }
  if (traits.toleratesCrashes) {
    // Channels x crash-recovery: sequence spaces keyed by both endpoints'
    // incarnations are what keep a recovered endpoint from replaying its
    // dead incarnation's space. Same script as crash-recover, channels
    // armed.
    Scenario s = makeBase("chan-crash-recover", LatencyPreset::kWan);
    s.config.stack.reliableChannels = true;
    s.crashes.push_back(CrashSpec{1, 200 * kMs});
    s.recoveries.push_back(RecoverSpec{1, 500 * kMs});
    s.workload->count = opt.casts + 4;  // arrivals past the recovery
    s.runUntil = v2Horizon;
    s.withDefaultExpectations();
    out.push_back(std::move(s));
  }

  // Bootstrap cells (PR 9, appended so every earlier cell keeps its name
  // and fingerprint): the state-transfer plane armed. Recovered processes
  // now REJOIN — traitsOf(kind, armed) flips recoveredRejoins for every
  // stack, so these are the cells where checkRecoveredDelivery binds
  // across the whole protocol zoo, not just the two natural rejoiners.
  if (traits.toleratesCrashes) {
    {
      // The crash-recover script with the plane armed: the rejoiner must
      // deliver everything cast after its recovery.
      Scenario s = makeBase("boot-crash-recover", LatencyPreset::kWan);
      s.config.stack.bootstrap.armed = true;
      s.crashes.push_back(CrashSpec{1, 200 * kMs});
      s.recoveries.push_back(RecoverSpec{1, 500 * kMs});
      s.workload->count = opt.casts + 4;  // arrivals past the recovery
      s.runUntil = v2Horizon;
      s.withDefaultExpectations();
      out.push_back(std::move(s));
    }
    {
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
      Scenario s = makeBase("boot-partition-recover", LatencyPreset::kWan);
      s.config.stack.bootstrap.armed = true;
      s.config.stack.reliableChannels = true;
      s.partitions.push_back(
          PartitionSpec{GroupSet::single(1), 150 * kMs, 450 * kMs});
      s.crashes.push_back(CrashSpec{1, 1500 * kMs});
      s.recoveries.push_back(RecoverSpec{1, 1900 * kMs});
      s.workload->count = opt.casts + 20;  // arrivals past the recovery
      s.runUntil = v2Horizon;
      s.withDefaultExpectations();
      out.push_back(std::move(s));
    }
    // Long-horizon churn: seed-derived crash+recover cycles marching
    // through the membership while open-loop Poisson arrivals keep the
    // protocol under load — every victim must rejoin mid-traffic, cycle
    // after cycle, under the oracle and the heartbeat detector alike.
    // Arrivals are stretched to span the whole churn window (a cycle
    // every 2.5s for ~15s), not front-loaded like the closed-loop cells.
    for (bool hb : {false, true}) {
      Scenario s = makeBase(hb ? "churn-open-hb" : "churn-open",
                            LatencyPreset::kWan);
      if (hb) s.config.stack.fdKind = fd::FdKind::kHeartbeat;
      s.config.stack.bootstrap.armed = true;
      s.churn = ChurnSpec{};
      s.workload->model = workload::Model::kOpenLoopPoisson;
      s.workload->meanGap = 600 * kMs;
      s.workload->count = opt.casts + 20;
      s.runUntil = v2Horizon;
      s.withDefaultExpectations();
      s.expect.minDeliveries = 1;
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
