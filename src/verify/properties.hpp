// Property checkers over run traces.
//
// Each checker corresponds to a property of the paper's §2.2 specification
// (or §3's definitions) and returns a list of human-readable violations —
// empty means the property held in the observed run. The checkers take the
// run trace plus the set of processes that were correct (never crashed), so
// uniform vs non-uniform obligations can be told apart.
//
// Cost: integrity, validity, both agreements and recovered delivery read
// dense tables indexed by message id: one bit per process per cast id
// (integrity: one per process incarnation) and one row of words per id,
// so a check runs in O(casts + deliveries) time on up to 64 processes
// (each further 64 add one word per row). They share CastIndex's
// assumption that ids are dense (core::Experiment allocates them
// sequentially from 1): a trace with a sparse, huge id pays a row for
// every id below it. checkAtomicSuite builds the cast index and the
// delivered-by table once for all its checks. tests/oracle.hpp keeps the
// set-based versions the tests compare them against.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/trace.hpp"
#include "sim/topology.hpp"

namespace wanmc::verify {

struct CheckContext {
  const RunTrace* trace = nullptr;
  const Topology* topo = nullptr;
  std::set<ProcessId> correct;  // processes that never crashed
};

using Violations = std::vector<std::string>;

// Processes that crashed and later RECOVERED (fault plane v2), derived
// from the trace's recovery events. A recovered process is an amnesiac
// rejoin: it is NOT correct (the paper's "correct" means never crashed),
// its delivery sequence restarts, and the checkers treat it specially:
//   * integrity binds PER INCARNATION (it may re-deliver a message its
//     dead incarnation delivered — it kept no state — but never twice
//     within one incarnation, and never a message it is no addressee of);
//   * prefix-order pairs involving it are skipped (its sequence has a
//     gap no prefix comparison can interpret); correct-only checks never
//     saw it anyway;
//   * uniform agreement still counts its deliveries as obligations on the
//     correct processes — uniformity is exactly the promise that ANY
//     delivery, even by a process that later crashed or recovered, binds.
[[nodiscard]] std::set<ProcessId> recoveredProcesses(const CheckContext& ctx);

// Uniform integrity: every process A-Delivers a message at most once (per
// incarnation, see above), only if it is an addressee, and only if the
// message was A-XCast.
[[nodiscard]] Violations checkUniformIntegrity(const CheckContext& ctx);

// Recovered-process liveness: a message cast strictly after a process's
// final recovery, addressed to it, and delivered by every correct
// addressee must eventually be delivered by the recovered process too —
// it is alive for the message's whole lifetime. (Only checkable when the
// protocol re-integrates amnesiac processes; gate on
// ProtocolTraits::recoveredRejoins.)
[[nodiscard]] Violations checkRecoveredDelivery(const CheckContext& ctx);

// Validity: if a correct process A-XCasts m, every correct addressee
// eventually A-Delivers m (checked at end of run: "eventually" = "by now").
[[nodiscard]] Violations checkValidity(const CheckContext& ctx);

// Uniform agreement: if ANY process (even one that later crashed)
// A-Delivers m, every correct addressee A-Delivers m.
[[nodiscard]] Violations checkUniformAgreement(const CheckContext& ctx);

// Non-uniform agreement (for the Sousa-et-al. baseline): like uniform
// agreement but only deliveries by correct processes create obligations.
[[nodiscard]] Violations checkAgreementCorrectOnly(const CheckContext& ctx);

// Uniform prefix order: for any two processes p,q and the final sequences
// S_p, S_q projected on messages addressed to both p and q, one projection
// is a prefix of the other. Checked by replaying the trace into
// StreamingOrderChecker (verify/streaming.hpp).
[[nodiscard]] Violations checkUniformPrefixOrder(const CheckContext& ctx);

// Prefix order restricted to pairs of correct processes.
[[nodiscard]] Violations checkPrefixOrderCorrectOnly(const CheckContext& ctx);

// Genuineness (paper §2.2): only the sender and the addressees of cast
// messages take part in the protocol. Checked over the runtime's per-layer
// participation flags; the failure-detector substrate is excluded (it is an
// oracle in the paper's accounting).
struct GenuinenessInput {
  std::set<ProcessId> sentAlgorithmic;
  std::set<ProcessId> receivedAlgorithmic;
};
[[nodiscard]] Violations checkGenuineness(const CheckContext& ctx,
                            const GenuinenessInput& in);

// Quiescence: the last algorithmic (non-FD) send happened within
// `settleBudget` of the last A-XCast. lastAlgoSend < 0 means nothing was
// ever sent.
[[nodiscard]] Violations checkQuiescence(const CheckContext& ctx, SimTime lastAlgoSend,
                           SimTime settleBudget);

// Convenience: run the standard safety suite (integrity + validity +
// uniform agreement + uniform prefix order) and return all violations.
[[nodiscard]] Violations checkAtomicSuite(const CheckContext& ctx);

}  // namespace wanmc::verify
