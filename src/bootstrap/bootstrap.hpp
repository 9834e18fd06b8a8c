// The bootstrap plane: recovery state transfer for rejoining incarnations.
//
// When armed, a recovered process does not limp back in as an amnesiac —
// it runs a rejoin handshake before initiating protocol work:
//
//   1. The runtime rebuilds the crashed process; the plane marks the fresh
//      incarnation JOINING (protocols gate proposal initiation on it) and
//      arms a settle timer of interMax + intraMax + slack. Any send the
//      process missed while down reaches a live donor within that window,
//      so one snapshot taken after it is complete — no re-request protocol.
//   2. At settle, the rejoiner sends kRequest to a candidate donor
//      (same-group peers first, ascending, then the other groups: group-
//      scoped state — clocks, per-group consensus — only a groupmate can
//      donate). Peers whose failure detector freshly retracted the rejoiner
//      send kAnnounce, which promotes them to preferred donor.
//   3. A live donor serializes its order state (Participant::makeSnapshot)
//      and replies kOffer. A donor that is itself still joining replies
//      kDeny, which advances the rejoiner to the next candidate at once.
//   4. The rejoiner installs the snapshot (consensus decisions, rmcast
//      delivered set, ordered ids, protocol state, delivery-suffix replay)
//      and resumes.
//      A retry timer re-issues the request against the next candidate if
//      the donor crashed or the reply was lost (e.g. an unhealed
//      partition): candidates cycle forever, so the rejoin completes as
//      soon as ANY donor is reachable.
//
// Sessions and incarnations: every packet carries the rejoiner's session
// (= its incarnation at request time). A process that crashes AGAIN while
// rejoining invalidates the session; offers addressed to the dead session
// are dropped as stale, and the plane's timers are incarnation-guarded
// Runtime timers, so no stale callback can fire into a newer incarnation.
//
// Accounting: bootstrap traffic rides Layer::kBootstrap — a substrate like
// the reliable-channel plane, excluded from the genuineness/quiescence
// accounting and from interAlgorithmic(), and visible in trace fingerprints
// only when the plane is armed and actually transfers (zero-traffic layers
// emit no fingerprint line). Unarmed runs are byte-identical to a build
// without this plane.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bootstrap/snapshot.hpp"
#include "common/ids.hpp"
#include "common/message.hpp"
#include "common/time.hpp"
#include "common/trace.hpp"
#include "fd/failure_detector.hpp"
#include "exec/context.hpp"

namespace wanmc::bootstrap {

struct Config {
  // Off (default): the plane is never constructed; every pre-existing run
  // is byte-identical. On: recovered processes run the rejoin handshake.
  bool armed = false;
};

struct BootstrapPayload final : Payload {
  enum class Kind : uint8_t { kAnnounce, kRequest, kOffer, kDeny };
  Kind kind = Kind::kRequest;
  uint32_t session = 0;  // rejoiner incarnation the exchange belongs to
  std::shared_ptr<const Snapshot> snapshot;  // kOffer only

  BootstrapPayload(Kind k, uint32_t s,
                   std::shared_ptr<const Snapshot> snap = nullptr)
      : kind(k), session(s), snapshot(std::move(snap)) {}
  [[nodiscard]] Layer layer() const override { return Layer::kBootstrap; }
  [[nodiscard]] std::string debugString() const override;
};

// One completed rejoin, for catch-up latency measurement (the Experiment
// surfaces these in RunResult).
struct Rejoin {
  ProcessId pid = kNoProcess;
  uint32_t session = 0;
  SimTime installedAt = 0;
  uint64_t suffixReplayed = 0;
};

class Plane {
 public:
  explicit Plane(exec::Context& rt);

  Plane(const Plane&) = delete;
  Plane& operator=(const Plane&) = delete;

  // Called from every XcastNode constructor (each incarnation): resets the
  // process's endpoint, binds the Participant surface, and hooks the fresh
  // failure detector's retraction signal for donor announcements.
  void bind(ProcessId pid, Participant* node, fd::FailureDetector& fd);

  // Called by the node factory right after the fresh incarnation is built:
  // marks it joining and arms the settle timer.
  void onRecovered(ProcessId pid);

  // Layer::kBootstrap packets, routed here by StackNode::onMessage.
  void onMessage(ProcessId self, ProcessId from, const Payload& p);

  [[nodiscard]] const BootstrapStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<Rejoin>& rejoins() const {
    return rejoins_;
  }

 private:
  struct Endpoint {
    Participant* node = nullptr;
    bool joining = false;
    uint32_t session = 0;
    uint64_t attempt = 0;  // invalidates retry timers of superseded requests
    std::vector<ProcessId> candidates;  // same group first, then the rest
    size_t candIdx = 0;
    ProcessId preferred = kNoProcess;  // last kAnnounce sender
  };

  void sendRequest(ProcessId pid);
  void announce(ProcessId donor, ProcessId rejoiner);
  [[nodiscard]] Endpoint& ep(ProcessId pid) {
    return eps_[static_cast<size_t>(pid)];
  }

  exec::Context& rt_;
  SimTime settle_ = 0;
  std::vector<Endpoint> eps_;
  BootstrapStats stats_;
  std::vector<Rejoin> rejoins_;
};

}  // namespace wanmc::bootstrap
