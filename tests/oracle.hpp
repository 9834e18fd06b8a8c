// Reference oracles for the run-observation jobs. The library builds every
// metrics::Summary with metrics::Recorder and checks prefix order with
// verify::StreamingOrderChecker; these are the straightforward, independent
// versions the tests check them against: a map-based rebuild of the
// Summary from the trace, and the pairwise comparison of projected final
// delivery sequences.
#pragma once

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "metrics/summary.hpp"
#include "verify/properties.hpp"

namespace wanmc::oracle {

// The Summary of a recorded trace, recomputed from scratch. `traffic` and
// `lastAlgoSend` come from the runtime, as at harvest.
inline metrics::Summary summarizeTrace(const RunTrace& trace,
                                       const Topology& topo,
                                       const TrafficStats& traffic,
                                       SimTime lastAlgoSend, SimTime endTime) {
  metrics::Summary out;
  out.processes = topo.numProcesses();
  out.groups = topo.numGroups();
  out.traffic = traffic;
  out.faults = faultStatsOf(trace);
  out.lastAlgoSendAt = lastAlgoSend;
  out.endTime = endTime;
  out.perGroup.resize(static_cast<size_t>(topo.numGroups()));
  out.perDestSize.resize(static_cast<size_t>(topo.numGroups()) + 1);

  struct MsgStat {
    SimTime castAt = -1;
    SimTime lastDeliveryAt = -1;
    uint64_t castLamport = 0;
    int64_t maxLamportDelta = -1;
    uint32_t deliveries = 0;
    uint32_t addressees = 0;
    uint32_t destGroups = 0;
  };
  std::map<MsgId, MsgStat> stats;

  out.casts = trace.casts.size();
  for (const CastEvent& c : trace.casts) {
    if (out.firstCastAt < 0) out.firstCastAt = c.when;
    out.lastCastAt = std::max(out.lastCastAt, c.when);
    MsgStat& s = stats[c.msg];
    s.castAt = c.when;
    s.castLamport = c.lamport;
    s.destGroups = static_cast<uint32_t>(c.dest.size());
    s.addressees = 0;
    for (GroupId g : c.dest.groups())
      s.addressees += static_cast<uint32_t>(topo.groupSize(g));
  }

  out.deliveries = trace.deliveries.size();
  for (const DeliveryEvent& d : trace.deliveries) {
    out.lastDeliveryAt = std::max(out.lastDeliveryAt, d.when);
    auto it = stats.find(d.msg);
    if (it == stats.end() || it->second.castAt < 0) continue;
    MsgStat& s = it->second;
    const SimTime latency = d.when - s.castAt;
    out.deliveryLatency.add(latency);
    out.perGroup[static_cast<size_t>(topo.group(d.process))].add(latency);
    out.perDestSize[s.destGroups].add(latency);
    s.lastDeliveryAt = d.when;
    ++s.deliveries;
    const int64_t delta = static_cast<int64_t>(d.lamport) -
                          static_cast<int64_t>(s.castLamport);
    if (delta > s.maxLamportDelta) s.maxLamportDelta = delta;
  }

  for (const auto& [id, s] : stats) {
    if (s.castAt < 0 || s.deliveries == 0) continue;
    ++out.completed;
    if (s.deliveries >= s.addressees) ++out.fullyDelivered;
    out.msgLatency.add(s.lastDeliveryAt - s.castAt);
    ++out.latencyDegrees[s.maxLamportDelta];
  }
  return out;
}

// Prefix order over the pairs of `procs`: project both final delivery
// sequences on the messages addressed to both processes and report the
// first position where the projections differ.
inline verify::Violations prefixOrderOver(const verify::CheckContext& ctx,
                                          const std::set<ProcessId>& procs) {
  std::map<MsgId, GroupSet> destOf;
  for (const CastEvent& c : ctx.trace->casts) destOf[c.msg] = c.dest;
  auto isAddressee = [&](ProcessId p, MsgId m) {
    auto it = destOf.find(m);
    return it != destOf.end() && it->second.contains(ctx.topo->group(p));
  };
  auto seqs = ctx.trace->sequences();

  verify::Violations out;
  std::vector<ProcessId> ps(procs.begin(), procs.end());
  for (size_t i = 0; i < ps.size(); ++i) {
    for (size_t j = i + 1; j < ps.size(); ++j) {
      const ProcessId p = ps[i];
      const ProcessId q = ps[j];
      auto project = [&](ProcessId self) {
        std::vector<MsgId> projected;
        for (MsgId m : seqs[self])
          if (isAddressee(p, m) && isAddressee(q, m)) projected.push_back(m);
        return projected;
      };
      const auto sp = project(p);
      const auto sq = project(q);
      const size_t n = std::min(sp.size(), sq.size());
      for (size_t x = 0; x < n; ++x) {
        if (sp[x] != sq[x]) {
          std::ostringstream os;
          os << "prefix order violated between p" << p << " and p" << q
             << " at position " << x << ": m" << sp[x] << " vs m" << sq[x];
          out.push_back(os.str());
          break;
        }
      }
    }
  }
  return out;
}

// verify::checkUniformPrefixOrder's contract: all pairs of processes that
// never recovered.
inline verify::Violations uniformPrefixOrder(const verify::CheckContext& ctx) {
  const std::set<ProcessId> recovered = verify::recoveredProcesses(ctx);
  std::set<ProcessId> procs;
  for (ProcessId p : ctx.topo->allProcesses())
    if (!recovered.count(p)) procs.insert(p);
  return prefixOrderOver(ctx, procs);
}

// verify::checkPrefixOrderCorrectOnly's contract: pairs of correct
// processes.
inline verify::Violations prefixOrderCorrectOnly(
    const verify::CheckContext& ctx) {
  return prefixOrderOver(ctx, ctx.correct);
}

}  // namespace wanmc::oracle
