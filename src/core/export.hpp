// Trace and statistics export: CSV for delivery traces and latency
// percentiles, JSON for run summaries. Used by the CLI tool and handy for
// plotting bench/sweep output.
//
// Redesigned around the streaming metrics plane (PR 4): writeSummaryJson
// and writeLatencyCsv read RunResult::metrics (built online by
// metrics::Recorder — no O(trace) rescan);
// the row-per-event CSVs still walk the trace, which is what they export.
#pragma once

#include <ostream>
#include <string>

#include "core/experiment.hpp"

namespace wanmc::core {

// One row per A-Deliver event:
//   process,group,msg,sender,destGroups,lamport,simTimeUs,order
void writeDeliveriesCsv(const RunResult& r, std::ostream& os);

// A JSON object with the run's aggregates, read from r.metrics: counts,
// traffic per layer, latency-degree histogram, wall-latency percentiles
// (p50/p90/p99/max, log-bucket semantics — see metrics/summary.hpp),
// offered/goodput rates, per-group and per-destination-size breakdowns,
// quiescence info, and safety-check results. Callers that already ran the
// safety suite pass the verdict via `violations` to avoid re-running it
// (it is the one remaining trace-sized cost in this exporter).
void writeSummaryJson(const RunResult& r, std::ostream& os,
                      const verify::Violations* violations = nullptr);

// Latency percentile rows from r.metrics, one scope per row:
//   scope,key,count,p50_us,p90_us,p99_us,max_us,mean_us
// Scopes: "message" (cast -> last delivery), "delivery" (each A-Deliver),
// "group,<g>" (deliveries at group g), "destsize,<k>" (messages addressed
// to k groups).
void writeLatencyCsv(const RunResult& r, std::ostream& os);

}  // namespace wanmc::core
