#include "metrics/recorder.hpp"

#include <algorithm>

namespace wanmc::metrics {

namespace {

// Addressee count of a destination set (the cast hot path: the bit walk
// allocates nothing).
uint32_t addresseeCount(const Topology& topo, const GroupSet& dest) {
  uint32_t n = 0;
  for (GroupId g : dest) n += static_cast<uint32_t>(topo.groupSize(g));
  return n;
}

}  // namespace

Recorder::Recorder(const Topology& topo) : topo_(topo) {
  perGroup_.resize(static_cast<size_t>(topo_.numGroups()));
  perDestSize_.resize(static_cast<size_t>(topo_.numGroups()) + 1);
}

void Recorder::onCast(const CastEvent& ev) {
  ++casts_;
  if (firstCastAt_ < 0) firstCastAt_ = ev.when;
  lastCastAt_ = ev.when;

  const size_t idx = static_cast<size_t>(ev.msg);
  if (idx >= stats_.size()) {
    size_t grow = stats_.size() < 16 ? 16 : stats_.size() * 2;
    stats_.resize(std::max(grow, idx + 1));
  }
  MsgStat& s = stats_[idx];
  s.castAt = ev.when;
  s.castLamport = ev.lamport;
  s.addressees = addresseeCount(topo_, ev.dest);
  s.destGroups = static_cast<uint32_t>(ev.dest.size());
}

void Recorder::onDeliver(const DeliveryEvent& ev) {
  ++deliveries_;
  lastDeliveryAt_ = ev.when;

  MsgStat* s = statOf(ev.msg);
  if (s == nullptr || s->castAt < 0) return;  // never cast: no latency
  const SimTime latency = ev.when - s->castAt;
  deliveryLatency_.add(latency);
  perGroup_[static_cast<size_t>(topo_.group(ev.process))].add(latency);
  perDestSize_[s->destGroups].add(latency);

  s->lastDeliveryAt = ev.when;
  ++s->deliveries;
  const int64_t delta = static_cast<int64_t>(ev.lamport) -
                        static_cast<int64_t>(s->castLamport);
  if (delta > s->maxLamportDelta) s->maxLamportDelta = delta;
}

Summary Recorder::summary(SimTime endTime) const {
  Summary out;
  out.processes = topo_.numProcesses();
  out.groups = topo_.numGroups();
  out.casts = casts_;
  out.deliveries = deliveries_;
  out.firstCastAt = firstCastAt_;
  out.lastCastAt = lastCastAt_;
  out.lastDeliveryAt = lastDeliveryAt_;
  out.endTime = endTime;
  out.deliveryLatency = deliveryLatency_;
  out.perGroup = perGroup_;
  out.perDestSize = perDestSize_;

  // Message-level fold: O(#messages), independent of trace length.
  for (const MsgStat& s : stats_) {
    if (s.castAt < 0 || s.deliveries == 0) continue;
    ++out.completed;
    if (s.deliveries >= s.addressees) ++out.fullyDelivered;
    out.msgLatency.add(s.lastDeliveryAt - s.castAt);
    ++out.latencyDegrees[s.maxLamportDelta];
  }
  return out;
}

}  // namespace wanmc::metrics
