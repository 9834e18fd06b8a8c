#include "bootstrap/bootstrap.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace wanmc::bootstrap {

namespace {
// Re-issue the snapshot request against the next candidate donor if no
// offer arrived within this budget (donor crashed, reply partitioned
// away...). Must exceed one WAN round trip.
constexpr SimTime kRetry = 400 * kMs;
// Settle slack added on top of interMax + intraMax before the first
// request: covers scheduler same-instant ordering and the donor-side
// processing of late copies.
constexpr SimTime kSettleSlack = 50 * kMs;
}  // namespace

std::string BootstrapPayload::debugString() const {
  const char* k = kind == Kind::kAnnounce ? "announce"
                  : kind == Kind::kRequest ? "request"
                  : kind == Kind::kOffer   ? "offer"
                                           : "deny";
  return std::string("boot-") + k + "(s" + std::to_string(session) + ")";
}

Plane::Plane(exec::Context& rt)
    : rt_(rt),
      // One settle window covers every copy that was in flight toward a
      // live donor when the rejoiner came back: inter + intra bounds the
      // worst chain still converging on the donor's tables.
      settle_(rt.latencyModel().interMax + rt.latencyModel().intraMax +
              kSettleSlack),
      eps_(static_cast<size_t>(rt.topology().numProcesses())) {}

void Plane::bind(ProcessId pid, Participant* node, fd::FailureDetector& fd) {
  Endpoint& e = ep(pid);
  e = Endpoint{};
  e.node = node;
  // Donor announcement: a fresh retraction means some process rejoined
  // with a new incarnation — this (live, steady) endpoint volunteers as
  // its donor. The callback is owned by the failure detector, which dies
  // with this incarnation's node, so it can never fire for a stale owner.
  fd.onRetraction([this, pid](ProcessId q, bool fresh) {
    if (fresh && q != pid) announce(pid, q);
  });
}

void Plane::announce(ProcessId donor, ProcessId rejoiner) {
  if (rt_.crashed(donor) || ep(donor).joining) return;
  rt_.multicast(donor, {rejoiner},
                std::make_shared<BootstrapPayload>(
                    BootstrapPayload::Kind::kAnnounce,
                    rt_.incarnation(rejoiner)));
}

void Plane::onRecovered(ProcessId pid) {
  Endpoint& e = ep(pid);
  e.joining = true;
  e.session = rt_.incarnation(pid);
  e.attempt = 0;
  e.candIdx = 0;
  e.preferred = kNoProcess;
  if (e.node != nullptr) e.node->setJoining(true);
  // Same-group donors first: group-scoped state (per-group consensus, group
  // clocks, the delivery subset of multicast protocols) only a groupmate
  // holds. Cross-group donors are a last resort for the globally-symmetric
  // broadcast stacks.
  const Topology& topo = rt_.topology();
  e.candidates.clear();
  for (ProcessId q : topo.members(topo.group(pid)))
    if (q != pid) e.candidates.push_back(q);
  for (ProcessId q : topo.allProcesses())
    if (q != pid && topo.group(q) != topo.group(pid))
      e.candidates.push_back(q);
  const uint32_t session = e.session;
  rt_.timer(pid, settle_, [this, pid, session] {
    Endpoint& e2 = ep(pid);
    if (e2.joining && e2.session == session) sendRequest(pid);
  });
}

void Plane::sendRequest(ProcessId pid) {
  Endpoint& e = ep(pid);
  // Pick the donor: an announced volunteer if it is still up, else cycle
  // the candidate list, skipping processes known down right now (crash
  // knowledge is oracle-grade here, like OracleFd: the plane is harness
  // substrate, and the retry loop covers everything the oracle cannot
  // see — partitions, donors that die mid-transfer).
  ProcessId target = kNoProcess;
  if (e.preferred != kNoProcess && !rt_.crashed(e.preferred)) {
    target = e.preferred;
  } else if (!e.candidates.empty()) {
    for (size_t i = 0; i < e.candidates.size(); ++i) {
      const size_t idx = (e.candIdx + i) % e.candidates.size();
      if (!rt_.crashed(e.candidates[idx])) {
        e.candIdx = idx;
        target = e.candidates[idx];
        break;
      }
    }
  }
  ++e.attempt;
  if (target != kNoProcess) {
    ++stats_.snapshotsRequested;
    rt_.multicast(pid, {target},
                  std::make_shared<BootstrapPayload>(
                      BootstrapPayload::Kind::kRequest, e.session));
  }
  // Retry against the next candidate if no offer lands in time. The timer
  // is incarnation-guarded (Runtime::timer) and additionally keyed on
  // (session, attempt): an install, a deny-advance, or a second crash all
  // invalidate it.
  const uint32_t session = e.session;
  const uint64_t attempt = e.attempt;
  rt_.timer(pid, kRetry, [this, pid, session, attempt] {
    Endpoint& e2 = ep(pid);
    if (!e2.joining || e2.session != session || e2.attempt != attempt)
      return;
    ++stats_.retries;
    e2.preferred = kNoProcess;
    ++e2.candIdx;
    sendRequest(pid);
  });
}

void Plane::onMessage(ProcessId self, ProcessId from, const Payload& p) {
  const auto& bp = static_cast<const BootstrapPayload&>(p);
  Endpoint& e = ep(self);
  switch (bp.kind) {
    case BootstrapPayload::Kind::kAnnounce: {
      // A donor volunteered. Remember it; if the settle timer has not
      // fired yet it becomes the first target, otherwise the next retry
      // uses it. Same-group volunteers win the race: groupmates announce
      // over fast intra links, but a LATER cross-group announce (WAN
      // latency) must not steal the slot — group-scoped protocol state
      // only a groupmate holds. A cross-group volunteer is kept only
      // while nothing better is known (singleton groups, whole group
      // down).
      if (!e.joining || bp.session != e.session) break;
      const Topology& topo = rt_.topology();
      if (e.preferred == kNoProcess || topo.sameGroup(self, from) ||
          !topo.sameGroup(self, e.preferred))
        e.preferred = from;
      break;
    }
    case BootstrapPayload::Kind::kRequest: {
      if (e.joining) {
        // Cannot donate while waiting for a snapshot ourselves: advance
        // the rejoiner to the next candidate immediately.
        ++stats_.denies;
        rt_.multicast(self, {from},
                      std::make_shared<BootstrapPayload>(
                          BootstrapPayload::Kind::kDeny, bp.session));
        break;
      }
      auto snap = e.node->makeSnapshot();
      ++stats_.snapshotsServed;
      stats_.snapshotBytes += snap->approxBytes();
      rt_.multicast(self, {from},
                    std::make_shared<BootstrapPayload>(
                        BootstrapPayload::Kind::kOffer, bp.session,
                        std::move(snap)));
      break;
    }
    case BootstrapPayload::Kind::kOffer: {
      if (bp.session != rt_.incarnation(self)) {
        // Offer for a superseded incarnation (the rejoiner crashed again
        // and came back): the new session runs its own handshake.
        ++stats_.staleDropped;
        break;
      }
      if (!e.joining || bp.session != e.session) break;  // duplicate
      e.joining = false;
      ++e.attempt;  // kill the pending retry
      const size_t replayed = e.node->installSnapshot(*bp.snapshot);
      ++stats_.snapshotsInstalled;
      stats_.suffixMessages += replayed;
      rejoins_.push_back(Rejoin{self, e.session, rt_.now(),
                                static_cast<uint64_t>(replayed)});
      break;
    }
    case BootstrapPayload::Kind::kDeny:
      if (!e.joining || bp.session != e.session) break;
      ++e.attempt;  // supersede the outstanding retry
      if (e.preferred == from) e.preferred = kNoProcess;
      ++e.candIdx;
      sendRequest(self);
      break;
  }
}

}  // namespace wanmc::bootstrap
