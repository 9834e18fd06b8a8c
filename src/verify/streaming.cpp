#include "verify/streaming.hpp"

#include <sstream>

namespace wanmc::verify {

StreamingOrderChecker::StreamingOrderChecker(const Topology& topo)
    : topo_(&topo), n_(topo.numProcesses()), members_(topo) {
  const auto n = static_cast<size_t>(n_);
  pairs_.resize(n * (n - 1) / 2);
  excluded_.assign(n, 0);
}

void StreamingOrderChecker::onCast(const CastEvent& ev) {
  const size_t idx = static_cast<size_t>(ev.msg);
  if (idx >= destBits_.size()) {
    size_t grow = destBits_.size() < 16 ? 16 : destBits_.size() * 2;
    destBits_.resize(std::max(grow, idx + 1), 0);
  }
  destBits_[idx] = ev.dest.bits();
  // Materialize the addressee list once per distinct destination set, off
  // the delivery path.
  (void)members_.of(ev.dest);
}

void StreamingOrderChecker::advance(PairState& st, ProcessId p, ProcessId q,
                                    ProcessId deliverer, MsgId m) {
  if (st.violated) return;  // one violation per pair, like the oracle
  if (st.pending.empty() || st.aheadSide == deliverer) {
    st.pending.push_back(m);
    st.aheadSide = deliverer;
    return;
  }
  // The other side is ahead: its element at position `matched` is the
  // queue front, ours is m. Equal -> the common prefix grows; unequal ->
  // the two projections diverge exactly here.
  const MsgId front = st.pending.front();
  st.pending.pop_front();
  if (front == m) {
    ++st.matched;
    return;
  }
  st.violated = true;
  st.violationPos = st.matched;
  st.violationA = st.aheadSide == p ? front : m;
  st.violationB = st.aheadSide == p ? m : front;
  (void)q;
  ++violatedPairs_;
}

void StreamingOrderChecker::onDeliver(const DeliveryEvent& ev) {
  const ProcessId p = ev.process;
  if (excluded_[static_cast<size_t>(p)] != 0) return;
  const size_t idx = static_cast<size_t>(ev.msg);
  const uint64_t bits = idx < destBits_.size() ? destBits_[idx] : 0;
  if (bits == 0) return;  // never cast: integrity's problem, not order's
  if (((bits >> topo_->group(p)) & 1u) == 0) return;  // p not an addressee
  const std::vector<ProcessId>& members = members_.of(GroupSet(bits));
  for (ProcessId q : members) {
    if (q == p || excluded_[static_cast<size_t>(q)] != 0) continue;
    const ProcessId lo = p < q ? p : q;
    const ProcessId hi = p < q ? q : p;
    advance(pairs_[pairIndex(lo, hi)], lo, hi, p, ev.msg);
  }
}

void StreamingOrderChecker::appendViolation(Violations& out, ProcessId p,
                                            ProcessId q,
                                            const PairState& st) const {
  std::ostringstream os;
  os << "prefix order violated between p" << p << " and p" << q
     << " at position " << st.violationPos << ": m" << st.violationA
     << " vs m" << st.violationB;
  out.push_back(os.str());
}

Violations StreamingOrderChecker::violations() const {
  Violations out;
  for (ProcessId p = 0; p < n_; ++p)
    for (ProcessId q = p + 1; q < n_; ++q) {
      const PairState& st = pairs_[pairIndex(p, q)];
      if (st.violated) appendViolation(out, p, q, st);
    }
  return out;
}

Violations StreamingOrderChecker::violations(
    const std::set<ProcessId>& correct) const {
  Violations out;
  for (ProcessId p = 0; p < n_; ++p) {
    if (!correct.count(p)) continue;
    for (ProcessId q = p + 1; q < n_; ++q) {
      if (!correct.count(q)) continue;
      const PairState& st = pairs_[pairIndex(p, q)];
      if (st.violated) appendViolation(out, p, q, st);
    }
  }
  return out;
}

}  // namespace wanmc::verify
