#include "core/export.hpp"

#include <algorithm>
#include <vector>

namespace wanmc::core {

namespace {

std::string destString(const GroupSet& s) {
  std::string out;
  for (GroupId g : s.groups()) {
    if (!out.empty()) out += "|";
    out += std::to_string(g);
  }
  return out;
}

}  // namespace

void writeDeliveriesCsv(const RunResult& r, std::ostream& os) {
  os << "process,group,msg,sender,destGroups,lamport,simTimeUs,order\n";
  const CastIndex casts(r.trace);
  for (const auto& d : r.trace.deliveries) {
    const CastEvent* c = casts.find(d.msg);
    os << d.process << ',' << r.topo.group(d.process) << ',' << d.msg << ','
       << (c != nullptr ? c->process : kNoProcess) << ','
       << (c != nullptr ? destString(c->dest) : std::string()) << ','
       << d.lamport << ',' << d.when << ',' << d.order << '\n';
  }
}

namespace {

// Harvested results always carry a populated summary; hand-assembled
// RunResults (tests, external tooling) may not — rebuild from the trace
// so the exporters never silently print an empty measurement.
metrics::Summary ensureSummary(const RunResult& r) {
  if (r.metrics.casts != 0 || r.trace.casts.empty()) return r.metrics;
  return metrics::summarizeTrace(r.trace, r.topo, r.traffic, r.lastAlgoSend,
                                 r.endTime);
}

}  // namespace

void writeSummaryJson(const RunResult& r, std::ostream& os,
                      const verify::Violations* precomputed) {
  // Everything below reads the streaming summary — no trace rescans. The
  // trace is consulted only by the safety checkers.
  const metrics::Summary m = ensureSummary(r);
  const metrics::LatencyStats wall = m.msgStats();

  const verify::Violations violations =
      precomputed != nullptr ? *precomputed : r.checkAtomicSuite();

  os << "{\n";
  os << "  \"processes\": " << r.topo.numProcesses() << ",\n";
  os << "  \"groups\": " << r.topo.numGroups() << ",\n";
  os << "  \"casts\": " << m.casts << ",\n";
  os << "  \"deliveries\": " << m.deliveries << ",\n";
  os << "  \"traffic\": {\n";
  for (int l = 0; l < kNumLayers; ++l) {
    const auto layer = static_cast<Layer>(l);
    os << "    \"" << layerName(layer) << "\": {\"intra\": "
       << m.traffic.at(layer).intra << ", \"inter\": "
       << m.traffic.at(layer).inter << "}"
       << (l + 1 < kNumLayers ? "," : "") << "\n";
  }
  os << "  },\n";
  os << "  \"latencyDegreeHistogram\": {";
  bool firstH = true;
  for (const auto& [deg, n] : m.latencyDegrees) {
    if (!firstH) os << ", ";
    os << "\"" << deg << "\": " << n;
    firstH = false;
  }
  os << "},\n";
  os << "  \"wallLatencyUs\": {\"p50\": " << wall.p50 << ", \"p90\": "
     << wall.p90 << ", \"p99\": " << wall.p99 << ", \"max\": " << wall.max
     << "},\n";
  os << "  \"metrics\": ";
  metrics::writeJson(m, os, "  ");
  os << ",\n";
  os << "  \"lastAlgorithmicSendUs\": " << r.lastAlgoSend << ",\n";
  os << "  \"correctProcesses\": " << r.correct.size() << ",\n";
  os << "  \"safetyViolations\": [";
  for (size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << violations[i] << "\"";
  }
  os << "]\n";
  os << "}\n";
}

void writeLatencyCsv(const RunResult& r, std::ostream& os) {
  const metrics::Summary m = ensureSummary(r);
  os << "scope,key,count,p50_us,p90_us,p99_us,max_us,mean_us\n";
  auto row = [&os](const std::string& scope, const std::string& key,
                   const metrics::LatencyStats& s) {
    os << scope << ',' << key << ',' << s.count << ',' << s.p50 << ','
       << s.p90 << ',' << s.p99 << ',' << s.max << ',' << s.mean << '\n';
  };
  row("message", "", m.msgStats());
  row("delivery", "", m.deliveryStats());
  for (size_t g = 0; g < m.perGroup.size(); ++g)
    if (m.perGroup[g].count() > 0)
      row("group", std::to_string(g), metrics::LatencyStats::of(m.perGroup[g]));
  for (size_t k = 0; k < m.perDestSize.size(); ++k)
    if (m.perDestSize[k].count() > 0)
      row("destsize", std::to_string(k),
          metrics::LatencyStats::of(m.perDestSize[k]));
}

}  // namespace wanmc::core
