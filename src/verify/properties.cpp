#include "verify/properties.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "verify/streaming.hpp"

namespace wanmc::verify {

namespace {

// Built by append: avoids the GCC 12 -Wrestrict false positive on chained
// string operator+ (same workaround as standardFaultMatrix's name builder).
std::string pname(ProcessId p) {
  std::string s("p");
  s += std::to_string(p);
  return s;
}
std::string mname(MsgId m) {
  std::string s("m");
  s += std::to_string(m);
  return s;
}

// False for a message that was never cast.
bool isAddressee(const CheckContext& ctx, const CastIndex& casts, ProcessId p,
                 MsgId m) {
  const CastEvent* c = casts.find(m);
  return c != nullptr && c->dest.contains(ctx.topo->group(p));
}

// Sorted recovery times per process, for incarnation segmentation.
std::map<ProcessId, std::vector<SimTime>> recoveryTimes(
    const CheckContext& ctx) {
  std::map<ProcessId, std::vector<SimTime>> out;
  for (const auto& r : ctx.trace->recoveries) out[r.process].push_back(r.when);
  for (auto& [p, times] : out) std::sort(times.begin(), times.end());
  return out;
}

// Incarnation index of a delivery: the number of recoveries of `p` at or
// before `when` (a recovery strictly precedes anything its fresh node
// delivers at the same instant).
int incarnationAt(const std::vector<SimTime>& times, SimTime when) {
  return static_cast<int>(
      std::upper_bound(times.begin(), times.end(), when) - times.begin());
}

}  // namespace

std::set<ProcessId> recoveredProcesses(const CheckContext& ctx) {
  std::set<ProcessId> out;
  for (const auto& r : ctx.trace->recoveries) out.insert(r.process);
  return out;
}

Violations checkUniformIntegrity(const CheckContext& ctx) {
  Violations out;
  std::set<MsgId> cast;
  for (const auto& c : ctx.trace->casts) cast.insert(c.msg);
  const CastIndex casts(*ctx.trace);
  const auto recTimes = recoveryTimes(ctx);

  // The duplicate check binds per (process, incarnation): an amnesiac
  // recovered process may re-deliver what its dead incarnation delivered,
  // but never the same message twice within one incarnation.
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

Violations checkRecoveredDelivery(const CheckContext& ctx) {
  Violations out;
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
    // A process that crashed AGAIN after its final recovery ends the run
    // down: it owes no deliveries (crash-recover-crash is a legitimate
    // schedule, not a liveness failure).
    if (auto it = lastCrash.find(p);
        it != lastCrash.end() && it->second > lastRecovery)
      continue;
    for (const auto& c : ctx.trace->casts) {
      if (c.when <= lastRecovery) continue;  // pre-recovery: no obligation
      if (!isAddressee(ctx, casts, p, c.msg)) continue;
      // Only messages the correct addressees all delivered: the protocol
      // demonstrably completed them, so the recovered process — alive the
      // whole time — must have delivered too.
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

Violations checkValidity(const CheckContext& ctx) {
  Violations out;
  std::map<ProcessId, std::set<MsgId>> deliveredBy;
  for (const auto& d : ctx.trace->deliveries)
    deliveredBy[d.process].insert(d.msg);
  const CastIndex casts(*ctx.trace);

  for (const auto& c : ctx.trace->casts) {
    if (!ctx.correct.count(c.process)) continue;  // only correct senders
    for (ProcessId q : ctx.correct) {
      if (!isAddressee(ctx, casts, q, c.msg)) continue;
      if (!deliveredBy[q].count(c.msg))
        out.push_back("validity: correct " + pname(q) + " never delivered " +
                      mname(c.msg) + " cast by correct " + pname(c.process));
    }
  }
  return out;
}

namespace {

Violations agreementImpl(const CheckContext& ctx, bool uniform) {
  Violations out;
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

}  // namespace

Violations checkUniformAgreement(const CheckContext& ctx) {
  return agreementImpl(ctx, /*uniform=*/true);
}

Violations checkAgreementCorrectOnly(const CheckContext& ctx) {
  return agreementImpl(ctx, /*uniform=*/false);
}

namespace {

// Replays the trace into the streaming checker: every cast first (the
// checker keys deliveries on their message's destination), then the
// deliveries in recorded order. Recovered processes are skipped: an
// amnesiac rejoin restarts its sequence mid-run, so no prefix comparison
// across the gap is sound (see recoveredProcesses). Their deliveries still
// bind under uniform agreement and per-incarnation integrity.
StreamingOrderChecker replayOrder(const CheckContext& ctx) {
  StreamingOrderChecker checker(*ctx.topo);
  for (ProcessId p : recoveredProcesses(ctx)) checker.excludeProcess(p);
  for (const auto& c : ctx.trace->casts) checker.onCast(c);
  for (const auto& d : ctx.trace->deliveries) checker.onDeliver(d);
  return checker;
}

}  // namespace

Violations checkUniformPrefixOrder(const CheckContext& ctx) {
  return replayOrder(ctx).violations();
}

Violations checkPrefixOrderCorrectOnly(const CheckContext& ctx) {
  return replayOrder(ctx).violations(ctx.correct);
}

Violations checkGenuineness(const CheckContext& ctx,
                            const GenuinenessInput& in) {
  Violations out;
  // Allowed participants: every sender and every addressee of cast messages.
  std::set<ProcessId> allowed;
  for (const auto& c : ctx.trace->casts) {
    allowed.insert(c.process);
    for (ProcessId p : ctx.topo->allProcesses())
      if (c.dest.contains(ctx.topo->group(p))) allowed.insert(p);
  }
  for (ProcessId p : in.sentAlgorithmic) {
    if (!allowed.count(p))
      out.push_back("genuineness: " + pname(p) +
                    " sent protocol messages but is neither sender nor "
                    "addressee of any cast message");
  }
  for (ProcessId p : in.receivedAlgorithmic) {
    if (!allowed.count(p))
      out.push_back("genuineness: " + pname(p) +
                    " received protocol messages but is neither sender nor "
                    "addressee of any cast message");
  }
  return out;
}

Violations checkQuiescence(const CheckContext& ctx, SimTime lastAlgoSend,
                           SimTime settleBudget) {
  Violations out;
  SimTime lastCast = 0;
  for (const auto& c : ctx.trace->casts)
    lastCast = std::max(lastCast, c.when);
  if (lastAlgoSend > lastCast + settleBudget) {
    std::ostringstream os;
    os << "quiescence: a protocol message was sent at t=" << lastAlgoSend
       << "us, more than " << settleBudget << "us after the last cast (t="
       << lastCast << "us)";
    out.push_back(os.str());
  }
  return out;
}

Violations checkAtomicSuite(const CheckContext& ctx) {
  Violations out;
  auto append = [&out](Violations v) {
    out.insert(out.end(), v.begin(), v.end());
  };
  append(checkUniformIntegrity(ctx));
  append(checkValidity(ctx));
  append(checkUniformAgreement(ctx));
  append(checkUniformPrefixOrder(ctx));
  return out;
}

}  // namespace wanmc::verify
