// core::RunOptions — the shared experiment knob set, parsed and validated
// in exactly ONE place.
//
// Before PR 10 the same ~10 knobs (protocol, topology shape, seed, link
// latencies, batching, loss, channels) were plumbed three times: once per
// hand-rolled flag loop in wanmc_cli (single-run and sweep), and once more
// by every harness that built a RunConfig by hand. Each copy had its own
// validation (or none), and adding a knob meant touching all of them. The
// backend axis would have made it four.
//
// RunOptions is the one struct all of those now share:
//   * consumeFlag() is the single CLI parse path — both wanmc_cli loops
//     feed every flag through it first and only handle their own extras.
//   * validate() is the single shape check — ranges, positivity, the
//     lossRate domain — throwing std::invalid_argument with the same
//     message no matter which entry point the knob came through.
//     (Backend-capability rejections live in Experiment::validateBackend,
//     which sees the full RunConfig.)
//   * serialize() writes the options as one "k=v ..." line, so a bench can
//     record the exact configuration with its artifact (bench_calibration
//     puts it in its CSV header and JSON).
//   * toRunConfig() produces the core::RunConfig everything downstream
//     (Experiment, ScenarioRunner, the sweep API) consumes.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "core/experiment.hpp"

namespace wanmc::core {

// nullopt on an unknown name. The inverses are protocolInfo(k).key (the
// roster, experiment.hpp) and exec::backendName.
[[nodiscard]] std::optional<ProtocolKind> protocolFromName(
    const std::string& name);
[[nodiscard]] std::optional<exec::Backend> backendFromName(
    const std::string& name);

struct RunOptions {
  exec::Backend backend = exec::Backend::kSim;
  ProtocolKind protocol = ProtocolKind::kA1;
  int groups = 2;
  int procsPerGroup = 2;
  uint64_t seed = 1;
  // Link latency bounds (the CLI's --inter-ms/--intra-us set fixed values;
  // the full jittered model stays reachable through the struct).
  exec::LatencyModel latency = exec::LatencyModel::fixed(kMs, 100 * kMs);
  SimTime batchWindow = 0;      // 0: batching off
  int batchMaxSize = 0;         // 0: no size trigger
  double lossRate = 0;          // iid wire-copy drop probability, [0, 1)
  bool reliableChannels = false;
  int destGroups = 2;           // groups per multicast (workload/sweep knob)

  // The one CLI parse path. If `arg` is a shared knob flag, consumes its
  // value via `next` (which must return the following argv token, exiting
  // on a missing value) and returns true; unknown flags return false so
  // the caller can handle its own extras. Malformed values exit(2) with a
  // message, like the rest of the CLI.
  bool consumeFlag(const std::string& arg,
                   const std::function<std::string()>& next);

  // The one shape check: throws std::invalid_argument naming the knob.
  void validate() const;

  // One-line "k=v" serialization, in a stable key order.
  [[nodiscard]] std::string serialize() const;

  // Validates, then builds the RunConfig downstream consumers take.
  [[nodiscard]] RunConfig toRunConfig() const;

  // The usage text for the shared flags (one source for both --help's).
  [[nodiscard]] static const char* flagHelp();
};

}  // namespace wanmc::core
