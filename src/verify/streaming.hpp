// Prefix-order checking: the one implementation, on both backends.
//
// StreamingOrderChecker is fed cast and delivery events (sim/observer.hpp):
// live from a sim runtime, or replayed from a recorded trace by
// checkUniformPrefixOrder / checkPrefixOrderCorrectOnly
// (verify/properties.hpp). For every unordered process pair {p, q} it keeps
// one merged cursor — a queue of deliveries one side is ahead by, projected
// on messages addressed to BOTH — and compares elements the moment both
// sides have one. Each delivery of message m touches only the addressees
// of m, so the total work is O(deliveries * addressees), with no pairwise
// comparison of final sequences; the per-pair queues hold only the current
// divergence between the two processes, not whole sequences.
//
// The tests keep that pairwise final-sequence comparison as a reference
// oracle and check that both give the same violations, word for word, on
// every cell of the standard matrix.
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <vector>

#include "common/ids.hpp"
#include "sim/observer.hpp"
#include "sim/topology.hpp"
#include "verify/properties.hpp"

namespace wanmc::verify {

class StreamingOrderChecker final : public sim::RunObserver {
 public:
  // `topo` must outlive the checker. To check a sim run live, register it
  // with rt.addObserver(&checker, sim::kObserveCasts | sim::kObserveDeliveries)
  // before the run starts.
  explicit StreamingOrderChecker(const Topology& topo);

  // Excludes `p` from all pair comparisons. Call BEFORE the first event
  // for processes that crash and RECOVER: a recovered process rejoins
  // with reset state, so its delivery sequence restarts mid-run and
  // cross-incarnation prefix comparison is meaningless (see
  // recoveredProcesses).
  void excludeProcess(ProcessId p) {
    excluded_[static_cast<size_t>(p)] = 1;
  }

  void onCast(const CastEvent& ev) override;
  void onDeliver(const DeliveryEvent& ev) override;

  // Violations over all process pairs (uniform prefix order), in pair
  // order: "prefix order violated between p<p> and p<q> at position <i>:
  // m<a> vs m<b>", with p < q and m<a> the message p delivered there.
  [[nodiscard]] Violations violations() const;
  // Restricted to pairs where both processes are in `correct`.
  [[nodiscard]] Violations violations(
      const std::set<ProcessId>& correct) const;

  // True iff some pair has already diverged (cheap mid-run probe).
  [[nodiscard]] bool anyViolation() const { return violatedPairs_ > 0; }

 private:
  // State of one unordered pair {p, q}, p < q. `pending` holds the merged
  // cursor's backlog: deliveries (projected on messages addressed to both)
  // that `aheadSide` has made and the other side has not yet matched.
  struct PairState {
    std::deque<MsgId> pending;
    ProcessId aheadSide = kNoProcess;
    uint64_t matched = 0;  // length of the agreed common prefix
    bool violated = false;
    uint64_t violationPos = 0;
    MsgId violationA = 0;  // what the lower pid delivered at that position
    MsgId violationB = 0;
  };

  [[nodiscard]] size_t pairIndex(ProcessId p, ProcessId q) const {
    // p < q; dense triangular index.
    const auto n = static_cast<size_t>(n_);
    const auto a = static_cast<size_t>(p);
    const auto b = static_cast<size_t>(q);
    return a * n - a * (a + 1) / 2 + (b - a - 1);
  }

  void advance(PairState& st, ProcessId p, ProcessId q, ProcessId deliverer,
               MsgId m);
  void appendViolation(Violations& out, ProcessId p, ProcessId q,
                       const PairState& st) const;

  const Topology* topo_;
  int n_ = 0;
  std::vector<PairState> pairs_;
  std::vector<uint8_t> excluded_;  // recovered processes, dense by pid
  uint64_t violatedPairs_ = 0;

  // Destination bits per message, dense by MsgId (ids are sequential).
  std::vector<uint64_t> destBits_;
  // Addressee process lists per distinct destination set, cached so the
  // delivery path never materializes group member vectors.
  MemberLists members_;
};

}  // namespace wanmc::verify
