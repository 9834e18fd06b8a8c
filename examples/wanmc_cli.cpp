// wanmc_cli — command-line driver for the simulator.
//
// Runs any protocol on any topology/workload and prints a summary (JSON) or
// raw traces (CSV) for external analysis / plotting, or drives the
// closed-loop latency-throughput sweep (the paper's Figure-1 regime).
//
//   $ ./examples/wanmc_cli --protocol a1 --groups 3 --procs 2
//         --msgs 50 --interval-ms 40 --dest-groups 2 --seed 9
//         --format summary      (one line; wrapped here for width)
//   $ ./examples/wanmc_cli sweep --protocol a1 --points 7 --csv-out a1.csv
//
//   --protocol   a1|fritzke98|delporte00|rodrigues98|skeen87|viabcast|
//                a2|sousa02|vicente02|detmerge00
//   --workload   closed-loop|open-fixed|open-poisson|bursty (arrival model)
//   --interval-ms <ms>
//                the arrival spacing (closed loop) or mean gap (open loops),
//                a decimal number of ms of at least 0.001 (0.02 = 20 us)
//   --workload-spec "open-poisson count=50 mean=20000 szipf=1.2"
//                full serialized workload::Spec, overrides the other
//                workload flags (see src/workload/spec.hpp)
//   --format     summary (JSON) | deliveries (CSV) |
//                latency (CSV percentile rows, see core::writeLatencyCsv)
//   --json-out / --csv-out    also write the summary JSON / latency CSV
//                to a file. `sweep` accepts only --csv-out (the sweep CSV)
//   --inter-ms / --intra-us   link latencies (fixed)
//   --batch-window <ms> / --batch-max <n>
//                batching plane (StackConfig::batchWindow/batchMaxSize):
//                coalesce same-(sender,dest) casts for up to <ms>, flush
//                early at <n> casts. 0 0 (the default) = batching off
//   --loss <p>   iid per-wire-copy drop probability in [0,1), deterministic
//                from the run seed (RunConfig::lossRate). Liveness under
//                loss needs --reliable-channels.
//   --reliable-channels
//                arm the retransmitting channel substrate (src/channel/):
//                per-link sequencing, ACK/NACK, timer-driven retransmit
//   --crash <pid>:<ms>        schedule a crash (repeatable)
//   --recover <pid>:<ms>      schedule a recovery (fresh incarnation,
//                             reset state; no-op if alive; repeatable)
//   --partition <g,g,..>:<fromMs>:<untilMs>
//                             cut those groups off for [from, until)ms;
//                             `untilMs` = "never" keeps the cut
//                             (repeatable). Bad pids/groups/windows are
//                             rejected up front, not silently ignored.
//   --churn <pid>:<periodMs>  continuous crash/recover cycling: <pid>
//                             crashes at k*period and rejoins half a
//                             period later, for every k >= 1 inside the
//                             arrival schedule. Arms the bootstrap plane
//                             (state transfer) and the consensus round
//                             timeout. Validated like --crash: bad pids
//                             and periods that fit no cycle are rejected
//                             up front (repeatable).
//
// `sweep` flags: --points K, --casts M, --cap C, --seeds S, --jobs J,
// --interval-max-ms / --interval-min-ms (ladder endpoints), plus
// --protocol/--groups/--procs/--dest-groups/--seed/--inter-ms/--intra-us/
// --batch-window/--batch-max,
// and --check-baseline FILE [--tolerance F]: compare this sweep's p50/p99
// per load point against a baseline CSV and exit 1 on a >F regression
// (default 0.25) — the CI percentile gate.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/export.hpp"
#include "core/run_options.hpp"
#include "metrics/sweep.hpp"
#include "workload/spec.hpp"

using namespace wanmc;

namespace {

workload::Model parseModel(const std::string& s) {
  for (workload::Model m :
       {workload::Model::kClosedLoop, workload::Model::kOpenLoopFixed,
        workload::Model::kOpenLoopPoisson, workload::Model::kBursty})
    if (s == workload::modelName(m)) return m;
  std::fprintf(stderr, "unknown workload model '%s'\n", s.c_str());
  std::exit(2);
}

void writeFileOrDie(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  if (!f.good()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  f << text;
}

// Strict integer parse: the whole token must be a number (silent
// tail-garbage acceptance is how bad fault schedules sneak through).
long long parseIntOrDie(const std::string& s, const char* what) {
  size_t used = 0;
  long long v = 0;
  try {
    v = std::stoll(s, &used);
  } catch (const std::exception&) {
    used = std::string::npos;
  }
  if (used != s.size() || s.empty()) {
    std::fprintf(stderr, "%s: '%s' is not a number\n", what, s.c_str());
    std::exit(2);
  }
  return v;
}

// Strict positive decimal milliseconds, to whole microseconds: "0.02" is
// 20 us. A malformed value, or one that is not at least 1 us, exits.
SimTime parseMsOrDie(const std::string& s, const char* what) {
  size_t used = 0;
  double ms = 0;
  try {
    ms = std::stod(s, &used);
  } catch (const std::exception&) {
    used = std::string::npos;
  }
  if (used != s.size() || s.empty()) {
    std::fprintf(stderr, "%s: '%s' is not a number\n", what, s.c_str());
    std::exit(2);
  }
  const double us = std::round(ms * static_cast<double>(kMs));
  if (!(us >= 1 && us < 1e15)) {  // 1e15 us is 31 years; rejects nan, inf
    std::fprintf(stderr, "%s: '%s' is not an interval of at least 0.001 ms\n",
                 what, s.c_str());
    std::exit(2);
  }
  return static_cast<SimTime>(us);
}

// "<pid>:<ms>" for --crash / --recover.
std::pair<ProcessId, SimTime> parsePidAtMs(const std::string& v,
                                           const char* flag) {
  const auto colon = v.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= v.size()) {
    std::fprintf(stderr, "%s expects <pid>:<ms>, got '%s'\n", flag,
                 v.c_str());
    std::exit(2);
  }
  return {static_cast<ProcessId>(
              parseIntOrDie(v.substr(0, colon), flag)),
          parseIntOrDie(v.substr(colon + 1), flag) * kMs};
}

// "<g,g,..>:<fromMs>:<untilMs|never>" for --partition.
struct PartitionArg {
  GroupSet side;
  SimTime from = 0;
  SimTime until = kTimeNever;
};
PartitionArg parsePartition(const std::string& v) {
  const auto c1 = v.find(':');
  const auto c2 = c1 == std::string::npos ? std::string::npos
                                          : v.find(':', c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos) {
    std::fprintf(stderr,
                 "--partition expects <g,g,..>:<fromMs>:<untilMs|never>, "
                 "got '%s'\n",
                 v.c_str());
    std::exit(2);
  }
  PartitionArg out;
  std::string groups = v.substr(0, c1);
  size_t pos = 0;
  while (pos <= groups.size()) {
    const auto comma = groups.find(',', pos);
    const std::string tok =
        groups.substr(pos, comma == std::string::npos ? std::string::npos
                                                      : comma - pos);
    const long long g = parseIntOrDie(tok, "--partition group");
    if (g < 0 || g >= 64) {
      std::fprintf(stderr, "--partition: group %lld out of range\n", g);
      std::exit(2);
    }
    out.side.add(static_cast<GroupId>(g));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  out.from = parseIntOrDie(v.substr(c1 + 1, c2 - c1 - 1),
                           "--partition fromMs") * kMs;
  const std::string untilTok = v.substr(c2 + 1);
  if (untilTok != "never")
    out.until = parseIntOrDie(untilTok, "--partition untilMs") * kMs;
  return out;
}

// Baseline comparison for `sweep --check-baseline`: per load point
// (keyed by interval_us), p50 and p99 may not regress by more than
// `tolerance` (fractional). Returns the number of violations.
int checkSweepBaseline(const std::vector<metrics::SweepPoint>& points,
                       const std::string& baselinePath, double tolerance) {
  std::ifstream in(baselinePath);
  if (!in.good()) {
    std::fprintf(stderr, "cannot read baseline %s\n", baselinePath.c_str());
    return 1;
  }
  // writeSweepCsv layout: interval_us,offered,goodput,p50,p90,p99,...
  std::map<long long, std::pair<double, double>> base;  // interval -> p50,p99
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::vector<std::string> cols;
    std::stringstream ss(line);
    std::string tok;
    while (std::getline(ss, tok, ',')) cols.push_back(tok);
    if (cols.size() < 6) continue;
    base[std::atoll(cols[0].c_str())] = {std::atof(cols[3].c_str()),
                                         std::atof(cols[5].c_str())};
  }
  int bad = 0;
  auto gate = [&](long long interval, const char* name, double now,
                  double was) {
    if (was <= 0) return;
    const double ratio = now / was;
    if (ratio > 1.0 + tolerance) {
      std::fprintf(stderr,
                   "sweep gate: %s at interval %lldus regressed %.1f%% "
                   "(%.0fus -> %.0fus, tolerance %.0f%%)\n",
                   name, interval, (ratio - 1.0) * 100.0, was, now,
                   tolerance * 100.0);
      ++bad;
    }
  };
  int matched = 0;
  for (const auto& p : points) {
    auto it = base.find(static_cast<long long>(p.interval));
    if (it == base.end()) continue;
    ++matched;
    gate(p.interval, "p50", static_cast<double>(p.latency.p50),
         it->second.first);
    gate(p.interval, "p99", static_cast<double>(p.latency.p99),
         it->second.second);
  }
  if (matched == 0) {
    std::fprintf(stderr,
                 "sweep gate: no load point of the baseline matches this "
                 "sweep (different ladder?)\n");
    return 1;
  }
  if (bad == 0)
    std::fprintf(stderr, "sweep gate: %d load points within %.0f%% of %s\n",
                 matched, tolerance * 100.0, baselinePath.c_str());
  return bad;
}

// `wanmc_cli sweep ...`: the closed-loop offered-load ladder, one
// latency-vs-throughput CSV row per load point (metrics/sweep.hpp).
int sweepMain(int argc, char** argv) {
  core::RunOptions ro;  // the shared knobs, parsed/validated in one place
  metrics::SweepOptions opt;
  int points = 7;
  SimTime slowest = 256 * kMs;
  SimTime fastest = 4 * kMs;
  std::string csvOut;
  std::string baseline;
  double tolerance = 0.25;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (ro.consumeFlag(arg, next)) continue;
    if (arg == "--points") points = std::atoi(next().c_str());
    else if (arg == "--casts") opt.casts = std::atoi(next().c_str());
    else if (arg == "--cap") opt.inFlightCap = std::atoi(next().c_str());
    else if (arg == "--seeds") opt.seedsPerPoint = std::atoi(next().c_str());
    else if (arg == "--jobs") opt.jobs = std::atoi(next().c_str());
    else if (arg == "--interval-max-ms")
      slowest = parseMsOrDie(next(), "--interval-max-ms");
    else if (arg == "--interval-min-ms")
      fastest = parseMsOrDie(next(), "--interval-min-ms");
    else if (arg == "--csv-out") {
      csvOut = next();
    } else if (arg == "--check-baseline") {
      baseline = next();
    } else if (arg == "--tolerance") {
      tolerance = std::atof(next().c_str());
    } else if (arg == "--help") {
      std::printf(
          "usage: wanmc_cli sweep %s\n"
          "         [--points K] [--casts M] [--cap C] [--seeds S] "
          "[--jobs J] [--interval-max-ms A] [--interval-min-ms B] "
          "[--csv-out FILE] [--check-baseline FILE [--tolerance F]]\n",
          core::RunOptions::flagHelp());
      return 0;
    } else {
      std::fprintf(stderr, "unknown sweep flag '%s' (try sweep --help)\n",
                   arg.c_str());
      return 2;
    }
  }

  if (points <= 0 || opt.casts <= 0 || opt.seedsPerPoint <= 0) {
    std::fprintf(stderr,
                 "sweep: --points, --casts, and --seeds must be positive "
                 "(got %d, %d, %d)\n",
                 points, opt.casts, opt.seedsPerPoint);
    return 2;
  }
  if (tolerance <= 0) {
    std::fprintf(stderr, "sweep: --tolerance must be positive\n");
    return 2;
  }
  try {
    opt.base = ro.toRunConfig();  // validates the shared knobs
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "sweep: %s\n", e.what());
    return 2;
  }
  opt.firstSeed = ro.seed;
  opt.destGroups = ro.destGroups;
  opt.intervals = metrics::defaultLoadLadder(points, slowest, fastest);
  std::vector<metrics::SweepPoint> curve;
  try {
    curve = metrics::runLatencyThroughputSweep(opt);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "sweep: %s\n", e.what());
    return 2;
  }
  std::ostringstream os;
  metrics::writeSweepCsv(curve, os);
  std::fputs(os.str().c_str(), stdout);
  if (!csvOut.empty()) writeFileOrDie(csvOut, os.str());
  if (!baseline.empty() && checkSweepBaseline(curve, baseline, tolerance) > 0)
    return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "sweep") == 0)
    return sweepMain(argc - 2, argv + 2);

  core::RunOptions ro;  // the shared knobs, parsed/validated in one place
  workload::Spec spec = workload::Spec::closedLoop(20, 40 * kMs);
  std::string format = "summary";
  std::string jsonOut;
  std::string csvOut;
  std::vector<std::pair<ProcessId, SimTime>> crashes;
  std::vector<std::pair<ProcessId, SimTime>> recoveries;
  std::vector<std::pair<ProcessId, SimTime>> churns;  // pid -> cycle period
  std::vector<PartitionArg> partitions;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (ro.consumeFlag(arg, next)) continue;
    if (arg == "--msgs") spec.count = std::atoi(next().c_str());
    else if (arg == "--interval-ms") {
      const SimTime v = parseMsOrDie(next(), "--interval-ms");
      spec.interval = spec.meanGap = v;  // one knob for either model family
    } else if (arg == "--workload") spec.model = parseModel(next());
    else if (arg == "--cap") spec.inFlightCap = std::atoi(next().c_str());
    else if (arg == "--zipf-sender")
      spec.senderZipf = std::atof(next().c_str());
    else if (arg == "--zipf-dest") spec.destZipf = std::atof(next().c_str());
    else if (arg == "--burst-on-ms")
      spec.onDuration = std::atoi(next().c_str()) * kMs;
    else if (arg == "--burst-off-ms")
      spec.offDuration = std::atoi(next().c_str()) * kMs;
    else if (arg == "--burst-gap-ms")
      spec.burstGap = std::atoi(next().c_str()) * kMs;
    else if (arg == "--workload-spec") {
      const std::string text = next();
      auto parsed = workload::parse(text);
      if (!parsed) {
        std::fprintf(stderr, "malformed workload spec '%s'\n", text.c_str());
        return 2;
      }
      spec = *parsed;
    } else if (arg == "--format") {
      format = next();
    } else if (arg == "--json-out") {
      jsonOut = next();
    } else if (arg == "--csv-out") {
      csvOut = next();
    } else if (arg == "--crash") {
      crashes.push_back(parsePidAtMs(next(), "--crash"));
    } else if (arg == "--recover") {
      recoveries.push_back(parsePidAtMs(next(), "--recover"));
    } else if (arg == "--partition") {
      partitions.push_back(parsePartition(next()));
    } else if (arg == "--churn") {
      const auto parsed = parsePidAtMs(next(), "--churn");
      if (parsed.second <= 0) {
        std::fprintf(stderr, "--churn: period must be positive, got %lldms\n",
                     static_cast<long long>(parsed.second / kMs));
        return 2;
      }
      churns.push_back(parsed);
    } else if (arg == "--help") {
      std::printf("usage: wanmc_cli [sweep] %s\n"
                  "         [--msgs M] [--interval-ms I] "
                  "[--workload closed-loop|open-fixed|open-poisson|bursty] "
                  "[--cap C] [--zipf-sender S] [--zipf-dest S] "
                  "[--burst-on-ms A] [--burst-off-ms B] [--burst-gap-ms G] "
                  "[--workload-spec \"MODEL k=v ...\"] "
                  "[--crash pid:ms] "
                  "[--recover pid:ms] [--churn pid:periodMs] "
                  "[--partition g,g:fromMs:untilMs|never] "
                  "[--format summary|deliveries|latency] "
                  "[--json-out FILE] [--csv-out FILE]\n"
                  "       wanmc_cli sweep --help   for the sweep flags\n",
                  core::RunOptions::flagHelp());
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s' (try --help)\n", arg.c_str());
      return 2;
    }
  }

  core::RunConfig cfg;
  try {
    cfg = ro.toRunConfig();  // validates the shared knobs
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  spec.destGroups = ro.destGroups;

  // Recovery runs need the consensus round timeout armed (see
  // StackConfig::consensusRoundTimeout) — same default ScenarioRunner uses.
  if ((!recoveries.empty() || !churns.empty()) &&
      cfg.stack.consensusRoundTimeout == 0)
    cfg.stack.consensusRoundTimeout = 500 * kMs;
  // Churned processes rejoin over the state-transfer handshake; without it
  // the fresh incarnations would sit amnesiac for the rest of the run.
  if (!churns.empty()) cfg.stack.bootstrap.armed = true;

  // Expand each churn plan into explicit crash/recover cycles spanning the
  // arrival schedule: crash at k*period, rejoin half a period later. A
  // period that fits no full cycle is a schedule typo, not a quiet no-op.
  for (auto [pid, period] : churns) {
    int cycles = 0;
    for (SimTime t = period; t + period / 2 < spec.nominalEnd();
         t += period) {
      crashes.emplace_back(pid, t);
      recoveries.emplace_back(pid, t + period / 2);
      ++cycles;
    }
    if (cycles == 0) {
      std::fprintf(stderr,
                   "--churn: period %lldms fits no crash/recover cycle "
                   "inside the arrival schedule (ends at %lldms)\n",
                   static_cast<long long>(period / kMs),
                   static_cast<long long>(spec.nominalEnd() / kMs));
      return 2;
    }
  }

  // The Experiment ctor rejects sim-only axes on the threaded backend
  // (validateBackend) — surface that as a usage error, not an abort.
  std::optional<core::Experiment> exOpt;
  try {
    exOpt.emplace(cfg);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  core::Experiment& ex = *exOpt;
  try {
    for (auto [pid, when] : crashes) ex.crashAt(pid, when);
    for (auto [pid, when] : recoveries) ex.recoverAt(pid, when);
    for (const auto& p : partitions) ex.partitionAt(p.side, p.from, p.until);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "invalid fault schedule: %s\n", e.what());
    return 2;
  } catch (const std::logic_error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  ex.addWorkload(spec);
  // DetMerge00's heartbeats never quiesce: bound its run near the end of
  // the arrival schedule instead of waiting out the full horizon.
  const SimTime horizon = cfg.protocol == core::ProtocolKind::kDetMerge00
                              ? spec.nominalEnd() + 5 * kSec
                              : 3600 * kSec;
  auto r = ex.run(horizon);

  // The safety suite runs ONCE: its verdict feeds the summary JSON (both
  // copies) and the exit code. A partition or message loss legitimately
  // loses messages — delivery obligations are void (same rule the
  // scenario harness applies) — so those runs check safety only:
  // integrity + uniform prefix order. Reliable channels restore the
  // obligation: loss and healed partitions are masked by retransmission,
  // and only a never-healed cut still voids delivery.
  bool deliveryVoid;
  if (cfg.stack.reliableChannels) {
    deliveryVoid = false;
    for (const auto& p : partitions)
      if (p.until == kTimeNever) deliveryVoid = true;
  } else {
    deliveryVoid = !partitions.empty() || cfg.lossRate > 0;
  }
  verify::Violations violations;
  if (!deliveryVoid) {
    violations = r.checkAtomicSuite();
  } else {
    const auto ctx = r.checkContext();
    violations = verify::checkUniformIntegrity(ctx);
    auto order = verify::checkUniformPrefixOrder(ctx);
    violations.insert(violations.end(), order.begin(), order.end());
  }
  std::string summaryText;
  auto summaryJson = [&]() -> const std::string& {
    if (summaryText.empty()) {
      std::ostringstream os;
      core::writeSummaryJson(r, os, &violations);
      summaryText = os.str();
    }
    return summaryText;
  };

  if (format == "summary") {
    std::cout << summaryJson();
  } else if (format == "deliveries") {
    core::writeDeliveriesCsv(r, std::cout);
  } else if (format == "latency") {
    core::writeLatencyCsv(r, std::cout);
  } else {
    std::fprintf(stderr, "unknown format '%s'\n", format.c_str());
    return 2;
  }
  if (!jsonOut.empty()) writeFileOrDie(jsonOut, summaryJson());
  if (!csvOut.empty()) {
    std::ostringstream os;
    core::writeLatencyCsv(r, os);
    writeFileOrDie(csvOut, os.str());
  }
  return violations.empty() ? 0 : 1;
}
