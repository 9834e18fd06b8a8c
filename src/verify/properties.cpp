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

constexpr size_t kWordBits = 64;

size_t processes(const CheckContext& ctx) {
  return static_cast<size_t>(ctx.topo->numProcesses());
}

// `rows` rows of `bits` bits each, in one allocation. Indexed by message id
// (ids are dense, the contract CastIndex relies on), one row per id costs
// what one node per delivery would not.
class BitRows {
 public:
  BitRows(size_t rows, size_t bits)
      : width_((bits + kWordBits - 1) / kWordBits), words_(rows * width_) {}

  [[nodiscard]] size_t width() const { return width_; }
  [[nodiscard]] uint64_t word(size_t row, size_t w) const {
    return words_[row * width_ + w];
  }
  [[nodiscard]] bool test(size_t row, size_t bit) const {
    return (word(row, bit / kWordBits) >> (bit % kWordBits)) & 1;
  }
  // Sets the bit; returns whether it was set already.
  bool testAndSet(size_t row, size_t bit) {
    uint64_t& w = words_[row * width_ + bit / kWordBits];
    const uint64_t mask = uint64_t{1} << (bit % kWordBits);
    const bool was = (w & mask) != 0;
    w |= mask;
    return was;
  }

 private:
  size_t width_;
  std::vector<uint64_t> words_;
};

// What validity, agreement and recovered delivery read: every cast by id,
// and who A-Delivered each cast id (row m, bit p). A delivery of an id
// past the last cast gets no row: it is nobody's obligation.
struct DeliveryTable {
  explicit DeliveryTable(const CheckContext& ctx)
      : casts(*ctx.trace),
        deliveredBy(casts.size(), processes(ctx)),
        correct(1, processes(ctx)),
        members(64, processes(ctx)) {
    for (const auto& d : ctx.trace->deliveries)
      if (d.msg < casts.size())
        deliveredBy.testAndSet(d.msg, static_cast<size_t>(d.process));
    for (ProcessId p : ctx.correct)
      correct.testAndSet(0, static_cast<size_t>(p));
    for (ProcessId p = 0; p < ctx.topo->numProcesses(); ++p)
      members.testAndSet(static_cast<size_t>(ctx.topo->group(p)),
                         static_cast<size_t>(p));
  }

  // Calls f(q) for each correct addressee q of m that never delivered it,
  // by ascending pid. Nothing for an id that was never cast.
  template <class F>
  void forEachMissing(MsgId m, F&& f) const {
    const CastEvent* c = casts.find(m);
    if (c == nullptr) return;
    for (size_t w = 0; w < deliveredBy.width(); ++w) {
      uint64_t addressees = 0;
      for (GroupId g : c->dest)
        addressees |= members.word(static_cast<size_t>(g), w);
      for (uint64_t miss =
               correct.word(0, w) & addressees & ~deliveredBy.word(m, w);
           miss != 0; miss &= miss - 1)
        f(static_cast<ProcessId>(w * kWordBits + __builtin_ctzll(miss)));
    }
  }

  CastIndex casts;
  BitRows deliveredBy;
  BitRows correct;  // one row: the correct processes
  BitRows members;  // row g: the members of group g, for every GroupSet bit
};

Violations integrity(const CheckContext& ctx, const CastIndex& casts) {
  Violations out;
  const auto recTimes = recoveryTimes(ctx);

  // The duplicate check binds per (process, incarnation): an amnesiac
  // recovered process may re-deliver what its dead incarnation delivered,
  // but never the same message twice within one incarnation. Each slot
  // gets one bit per cast id: p's incarnations take the slots from
  // firstSlot[p] on, one more per recovery of p.
  const size_t n = processes(ctx);
  std::vector<size_t> firstSlot(n + 1, 0);
  for (const auto& r : ctx.trace->recoveries)
    ++firstSlot[static_cast<size_t>(r.process) + 1];
  for (size_t p = 0; p < n; ++p) firstSlot[p + 1] += firstSlot[p] + 1;
  BitRows seen(casts.size(), firstSlot[n]);
  // Delivery counts of the repeats, and of every id past the last cast
  // (no row), in the order their "N times" lines are reported.
  std::map<std::tuple<ProcessId, int, MsgId>, int> count;
  for (const auto& d : ctx.trace->deliveries) {
    int inc = 0;
    if (auto it = recTimes.find(d.process); it != recTimes.end())
      inc = incarnationAt(it->second, d.when);
    if (d.msg >= casts.size()) {
      ++count[{d.process, inc, d.msg}];
    } else if (seen.testAndSet(
                   d.msg, firstSlot[static_cast<size_t>(d.process)] +
                              static_cast<size_t>(inc))) {
      int& k = count[{d.process, inc, d.msg}];
      k = std::max(k, 1) + 1;  // the first delivery only set the bit
    }
    if (casts.find(d.msg) == nullptr)
      out.push_back(pname(d.process) + " delivered " + mname(d.msg) +
                    " which was never A-XCast");
    if (!isAddressee(ctx, casts, d.process, d.msg))
      out.push_back(pname(d.process) + " delivered " + mname(d.msg) +
                    " but is not an addressee");
  }
  for (const auto& [key, k] : count) {
    if (k > 1)
      out.push_back(pname(std::get<0>(key)) + " delivered " +
                    mname(std::get<2>(key)) + " " + std::to_string(k) +
                    " times");
  }
  return out;
}

Violations validity(const CheckContext& ctx, const DeliveryTable& table) {
  Violations out;
  for (const auto& c : ctx.trace->casts) {
    if (!ctx.correct.count(c.process)) continue;  // only correct senders
    table.forEachMissing(c.msg, [&](ProcessId q) {
      out.push_back("validity: correct " + pname(q) + " never delivered " +
                    mname(c.msg) + " cast by correct " + pname(c.process));
    });
  }
  return out;
}

Violations agreement(const DeliveryTable& table, bool uniform) {
  Violations out;
  const BitRows& got = table.deliveredBy;
  // By ascending id. Only a cast id has addressees to owe it; a delivery by
  // any process (non-uniform: by a correct one) creates the obligation.
  for (MsgId m = 0; m < table.casts.size(); ++m) {
    bool triggered = false;
    for (size_t w = 0; w < got.width(); ++w)
      triggered |= (got.word(m, w) &
                    (uniform ? ~uint64_t{0} : table.correct.word(0, w))) != 0;
    if (!triggered) continue;
    table.forEachMissing(m, [&](ProcessId q) {
      out.push_back(std::string(uniform ? "uniform " : "") +
                    "agreement: correct " + pname(q) + " never delivered " +
                    mname(m) + " although it was delivered elsewhere");
    });
  }
  return out;
}

}  // namespace

std::set<ProcessId> recoveredProcesses(const CheckContext& ctx) {
  std::set<ProcessId> out;
  for (const auto& r : ctx.trace->recoveries) out.insert(r.process);
  return out;
}

Violations checkUniformIntegrity(const CheckContext& ctx) {
  return integrity(ctx, CastIndex(*ctx.trace));
}

Violations checkRecoveredDelivery(const CheckContext& ctx) {
  Violations out;
  const auto recTimes = recoveryTimes(ctx);
  if (recTimes.empty()) return out;
  const DeliveryTable table(ctx);

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
      if (!isAddressee(ctx, table.casts, p, c.msg)) continue;
      // Only messages the correct addressees all delivered: the protocol
      // demonstrably completed them, so the recovered process — alive the
      // whole time — must have delivered too.
      bool settled = true;
      table.forEachMissing(c.msg, [&settled](ProcessId) { settled = false; });
      if (!settled) continue;
      if (!table.deliveredBy.test(c.msg, static_cast<size_t>(p)))
        out.push_back("recovery: " + pname(p) + " (recovered at t=" +
                      std::to_string(lastRecovery) + "us) never delivered " +
                      mname(c.msg) + " cast at t=" + std::to_string(c.when) +
                      "us although every correct addressee did");
    }
  }
  return out;
}

Violations checkValidity(const CheckContext& ctx) {
  return validity(ctx, DeliveryTable(ctx));
}

Violations checkUniformAgreement(const CheckContext& ctx) {
  return agreement(DeliveryTable(ctx), /*uniform=*/true);
}

Violations checkAgreementCorrectOnly(const CheckContext& ctx) {
  return agreement(DeliveryTable(ctx), /*uniform=*/false);
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
  // Allowed participants: every sender, and every member of a group some
  // cast was addressed to.
  std::set<ProcessId> senders;
  uint64_t destBits = 0;
  for (const auto& c : ctx.trace->casts) {
    senders.insert(c.process);
    destBits |= c.dest.bits();
  }
  const GroupSet addressed(destBits);
  auto allowed = [&](ProcessId p) {
    return senders.count(p) != 0 || addressed.contains(ctx.topo->group(p));
  };
  for (ProcessId p : in.sentAlgorithmic) {
    if (!allowed(p))
      out.push_back("genuineness: " + pname(p) +
                    " sent protocol messages but is neither sender nor "
                    "addressee of any cast message");
  }
  for (ProcessId p : in.receivedAlgorithmic) {
    if (!allowed(p))
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
  const DeliveryTable table(ctx);
  append(integrity(ctx, table.casts));
  append(validity(ctx, table));
  append(agreement(table, /*uniform=*/true));
  append(checkUniformPrefixOrder(ctx));
  return out;
}

}  // namespace wanmc::verify
