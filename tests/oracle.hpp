// Reference oracles for the run-observation jobs. The library builds every
// metrics::Summary with metrics::Recorder, checks prefix order with
// verify::StreamingOrderChecker and checks the delivery properties over
// dense per-message bit tables; these are the straightforward, independent
// versions the tests check them against: a map-based rebuild of the
// Summary from the trace, the pairwise comparison of projected final
// delivery sequences, and set-based integrity, validity, agreement and
// recovered-delivery checkers.
#pragma once

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
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

// ---------------------------------------------------------------------------
// Set-based integrity, validity, agreement and recovered-delivery checkers:
// a std::set of delivered ids per process, rebuilt by each checker. Same
// contracts and wording as their verify:: counterparts.
// ---------------------------------------------------------------------------

namespace detail {

inline std::string pname(ProcessId p) {
  std::string s("p");
  s += std::to_string(p);
  return s;
}
inline std::string mname(MsgId m) {
  std::string s("m");
  s += std::to_string(m);
  return s;
}

// False for a message that was never cast.
inline bool isAddressee(const verify::CheckContext& ctx, const CastIndex& casts,
                        ProcessId p, MsgId m) {
  const CastEvent* c = casts.find(m);
  return c != nullptr && c->dest.contains(ctx.topo->group(p));
}

// Sorted recovery times per process, for incarnation segmentation.
inline std::map<ProcessId, std::vector<SimTime>> recoveryTimes(
    const verify::CheckContext& ctx) {
  std::map<ProcessId, std::vector<SimTime>> out;
  for (const auto& r : ctx.trace->recoveries) out[r.process].push_back(r.when);
  for (auto& [p, times] : out) std::sort(times.begin(), times.end());
  return out;
}

// Incarnation index of a delivery: the number of recoveries of `p` at or
// before `when`.
inline int incarnationAt(const std::vector<SimTime>& times, SimTime when) {
  return static_cast<int>(
      std::upper_bound(times.begin(), times.end(), when) - times.begin());
}

inline verify::Violations agreementImpl(const verify::CheckContext& ctx,
                                        bool uniform) {
  verify::Violations out;
  std::map<ProcessId, std::set<MsgId>> deliveredBy;
  std::set<MsgId> deliveredByAnyone;
  std::set<MsgId> deliveredByCorrect;
  for (const auto& d : ctx.trace->deliveries) {
    deliveredBy[d.process].insert(d.msg);
    deliveredByAnyone.insert(d.msg);
    if (ctx.correct.count(d.process)) deliveredByCorrect.insert(d.msg);
  }
  const auto& trigger = uniform ? deliveredByAnyone : deliveredByCorrect;
  const CastIndex casts(*ctx.trace);
  for (MsgId m : trigger) {
    for (ProcessId q : ctx.correct) {
      if (!isAddressee(ctx, casts, q, m)) continue;
      if (!deliveredBy[q].count(m))
        out.push_back(std::string(uniform ? "uniform " : "") +
                      "agreement: correct " + pname(q) +
                      " never delivered " + mname(m) +
                      " although it was delivered elsewhere");
    }
  }
  return out;
}

}  // namespace detail

inline verify::Violations uniformIntegrity(const verify::CheckContext& ctx) {
  using namespace detail;
  verify::Violations out;
  std::set<MsgId> cast;
  for (const auto& c : ctx.trace->casts) cast.insert(c.msg);
  const CastIndex casts(*ctx.trace);
  const auto recTimes = recoveryTimes(ctx);

  std::map<std::tuple<ProcessId, int, MsgId>, int> count;
  for (const auto& d : ctx.trace->deliveries) {
    int inc = 0;
    if (auto it = recTimes.find(d.process); it != recTimes.end())
      inc = incarnationAt(it->second, d.when);
    ++count[{d.process, inc, d.msg}];
    if (!cast.count(d.msg))
      out.push_back(pname(d.process) + " delivered " + mname(d.msg) +
                    " which was never A-XCast");
    if (!isAddressee(ctx, casts, d.process, d.msg))
      out.push_back(pname(d.process) + " delivered " + mname(d.msg) +
                    " but is not an addressee");
  }
  for (const auto& [key, n] : count) {
    if (n > 1)
      out.push_back(pname(std::get<0>(key)) + " delivered " +
                    mname(std::get<2>(key)) + " " + std::to_string(n) +
                    " times");
  }
  return out;
}

inline verify::Violations recoveredDelivery(const verify::CheckContext& ctx) {
  using namespace detail;
  verify::Violations out;
  const auto recTimes = recoveryTimes(ctx);
  if (recTimes.empty()) return out;
  const CastIndex casts(*ctx.trace);

  std::map<ProcessId, std::set<MsgId>> deliveredBy;
  for (const auto& d : ctx.trace->deliveries)
    deliveredBy[d.process].insert(d.msg);

  std::map<ProcessId, SimTime> lastCrash;
  for (const auto& c : ctx.trace->crashes)
    lastCrash[c.process] = std::max(lastCrash[c.process], c.when);

  for (const auto& [p, times] : recTimes) {
    const SimTime lastRecovery = times.back();
    if (auto it = lastCrash.find(p);
        it != lastCrash.end() && it->second > lastRecovery)
      continue;
    for (const auto& c : ctx.trace->casts) {
      if (c.when <= lastRecovery) continue;
      if (!isAddressee(ctx, casts, p, c.msg)) continue;
      bool settled = true;
      for (ProcessId q : ctx.correct) {
        if (!isAddressee(ctx, casts, q, c.msg)) continue;
        if (!deliveredBy[q].count(c.msg)) {
          settled = false;
          break;
        }
      }
      if (!settled) continue;
      if (!deliveredBy[p].count(c.msg))
        out.push_back("recovery: " + pname(p) + " (recovered at t=" +
                      std::to_string(lastRecovery) + "us) never delivered " +
                      mname(c.msg) + " cast at t=" + std::to_string(c.when) +
                      "us although every correct addressee did");
    }
  }
  return out;
}

inline verify::Violations validity(const verify::CheckContext& ctx) {
  using namespace detail;
  verify::Violations out;
  std::map<ProcessId, std::set<MsgId>> deliveredBy;
  for (const auto& d : ctx.trace->deliveries)
    deliveredBy[d.process].insert(d.msg);
  const CastIndex casts(*ctx.trace);

  for (const auto& c : ctx.trace->casts) {
    if (!ctx.correct.count(c.process)) continue;
    for (ProcessId q : ctx.correct) {
      if (!isAddressee(ctx, casts, q, c.msg)) continue;
      if (!deliveredBy[q].count(c.msg))
        out.push_back("validity: correct " + pname(q) + " never delivered " +
                      mname(c.msg) + " cast by correct " + pname(c.process));
    }
  }
  return out;
}

inline verify::Violations uniformAgreement(const verify::CheckContext& ctx) {
  return detail::agreementImpl(ctx, /*uniform=*/true);
}

inline verify::Violations agreementCorrectOnly(
    const verify::CheckContext& ctx) {
  return detail::agreementImpl(ctx, /*uniform=*/false);
}

}  // namespace wanmc::oracle
