// Declarative workload specifications: what traffic an experiment drives.
//
// A workload::Spec is a serializable tagged union of arrival-model
// parameters. It describes WHAT casts a run generates — the generation
// itself happens reactively inside the simulation (src/workload/
// generator.hpp): each model schedules its next arrival as a Runtime timer
// only once its time is known, which is what lets closed-loop models react
// to deliveries and keeps open-loop storms from pre-materializing millions
// of events.
//
// Every model is a pure function of (spec, seed, topology): the same spec
// against the same experiment reproduces a byte-identical trace. The
// kClosedLoop model with inFlightCap == 0 reproduces the legacy
// core::WorkloadSpec / scheduleWorkload() schedule bit-for-bit (same RNG
// stream, same cast times, same message ids), which is what keeps the
// pre-existing golden fingerprints valid.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace wanmc::workload {

// Arrival process of a workload. Sender/destination skew (the Zipf knobs
// below) composes with every model; kTraceReplay ignores the RNG entirely.
enum class Model : uint8_t {
  // Fixed spacing between arrivals. inFlightCap == 0 is the legacy
  // uniform rotating-sender schedule; inFlightCap > 0 defers an arrival
  // until fewer than `cap` of this workload's casts are still undelivered
  // (a closed loop of `cap` clients with think time = interval).
  kClosedLoop,
  // Open loop: arrivals keep coming regardless of delivery progress.
  kOpenLoopFixed,    // deterministic inter-arrival gap (meanGap)
  kOpenLoopPoisson,  // exponential inter-arrival gaps with mean meanGap
  // On/off phases: bursts of open-loop arrivals every burstGap for
  // onDuration, then silence for offDuration, repeating until count.
  kBursty,
  // Deterministic replay of explicit (when, sender, dest) entries.
  kTraceReplay,
};

[[nodiscard]] const char* modelName(Model m);

// One replayed cast. An empty destination set means "all groups".
struct TraceCast {
  SimTime when = 0;
  ProcessId sender = 0;
  GroupSet dest{};

  friend bool operator==(const TraceCast&, const TraceCast&) = default;
};

struct Spec {
  Model model = Model::kClosedLoop;

  // ---- knobs shared by every generated model ----------------------------
  SimTime start = 10 * kMs;  // first arrival
  int count = 20;            // total casts (kTraceReplay: trace.size())
  int destGroups = 2;        // groups per multicast, clamped to the topology
  uint64_t seed = 7;         // workload-private RNG stream

  // Zipf skew exponents, 0 = uniform. senderZipf biases the sending
  // process (pid 0 hottest); destZipf biases which extra groups a
  // multicast addresses (group 0 most popular). Exponent 0 draws are
  // bit-identical to the legacy uniform `rng % n` draws.
  double senderZipf = 0.0;
  double destZipf = 0.0;

  // ---- kClosedLoop -------------------------------------------------------
  SimTime interval = 50 * kMs;  // spacing (and think time when capped)
  int inFlightCap = 0;          // 0: uncapped (the legacy schedule)

  // ---- kOpenLoopFixed / kOpenLoopPoisson ---------------------------------
  SimTime meanGap = 50 * kMs;  // (mean) inter-arrival gap

  // ---- kBursty -----------------------------------------------------------
  SimTime onDuration = 100 * kMs;
  SimTime offDuration = 400 * kMs;
  SimTime burstGap = 5 * kMs;  // spacing within a burst

  // ---- kTraceReplay ------------------------------------------------------
  std::vector<TraceCast> trace;

  // Convenience constructors for the common shapes.
  static Spec closedLoop(int count, SimTime interval, int destGroups = 2) {
    Spec s;
    s.model = Model::kClosedLoop;
    s.count = count;
    s.interval = interval;
    s.destGroups = destGroups;
    return s;
  }
  static Spec openLoopPoisson(int count, SimTime meanGap,
                              int destGroups = 2) {
    Spec s;
    s.model = Model::kOpenLoopPoisson;
    s.count = count;
    s.meanGap = meanGap;
    s.destGroups = destGroups;
    return s;
  }
  static Spec traceReplay(std::vector<TraceCast> casts) {
    Spec s;
    s.model = Model::kTraceReplay;
    s.trace = std::move(casts);
    s.count = static_cast<int>(s.trace.size());
    return s;
  }

  friend bool operator==(const Spec&, const Spec&) = default;

  // Upper bound on when the LAST arrival of this spec is issued (ignores
  // delivery latency). Capped closed loops and Poisson tails can exceed
  // their nominal spacing, so the bound is deliberately generous; use it
  // to size run horizons, not to assert exact schedules.
  [[nodiscard]] SimTime nominalEnd() const;

  // The offered load this spec is CONFIGURED for, in casts per simulated
  // second: the inverse mean inter-arrival gap of the model (bursty:
  // averaged over a whole on+off cycle; trace replay: count over the
  // replay window). The measured rate (metrics::Summary::offeredPerSec)
  // can sit below this when a capped closed loop defers arrivals — the
  // gap between the two is the load-shedding signal.
  [[nodiscard]] double nominalRatePerSec() const;
};

// Compact single-line serialization: "model key=value key=value ...".
// parse() accepts the keys in any order and defaults the rest; it returns
// nullopt (never throws) on an unknown model, an unknown key, a key the
// model does not read (interval= or cap= outside closed-loop, mean=
// outside the open loops, on=/off=/gap= outside bursty, cast= outside
// trace), or a malformed value. Round trip: parse(toString(s)) reproduces
// s exactly.
[[nodiscard]] std::string toString(const Spec& s);
[[nodiscard]] std::optional<Spec> parse(const std::string& text);

}  // namespace wanmc::workload
