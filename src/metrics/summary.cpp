#include "metrics/summary.hpp"

#include <algorithm>
#include <cstdio>

#include "metrics/recorder.hpp"

namespace wanmc::metrics {

namespace {

double secondsOf(SimTime us) { return static_cast<double>(us) / 1e6; }

}  // namespace

double Summary::offeredPerSec() const {
  // Inverse of the mean inter-arrival gap over the casting window; a
  // single cast has no measurable rate.
  if (casts < 2 || lastCastAt <= firstCastAt) return 0;
  return static_cast<double>(casts - 1) /
         secondsOf(lastCastAt - firstCastAt);
}

double Summary::goodputPerSec() const {
  if (completed == 0 || lastDeliveryAt <= firstCastAt) return 0;
  return static_cast<double>(completed) /
         secondsOf(lastDeliveryAt - firstCastAt);
}

void Summary::merge(const Summary& other) {
  processes = std::max(processes, other.processes);
  groups = std::max(groups, other.groups);
  casts += other.casts;
  deliveries += other.deliveries;
  completed += other.completed;
  fullyDelivered += other.fullyDelivered;

  auto minTime = [](SimTime a, SimTime b) {
    if (a < 0) return b;
    if (b < 0) return a;
    return std::min(a, b);
  };
  firstCastAt = minTime(firstCastAt, other.firstCastAt);
  lastCastAt = std::max(lastCastAt, other.lastCastAt);
  lastDeliveryAt = std::max(lastDeliveryAt, other.lastDeliveryAt);
  lastAlgoSendAt = std::max(lastAlgoSendAt, other.lastAlgoSendAt);
  endTime = std::max(endTime, other.endTime);

  msgLatency.merge(other.msgLatency);
  deliveryLatency.merge(other.deliveryLatency);
  if (perGroup.size() < other.perGroup.size())
    perGroup.resize(other.perGroup.size());
  for (size_t g = 0; g < other.perGroup.size(); ++g)
    perGroup[g].merge(other.perGroup[g]);
  if (perDestSize.size() < other.perDestSize.size())
    perDestSize.resize(other.perDestSize.size());
  for (size_t k = 0; k < other.perDestSize.size(); ++k)
    perDestSize[k].merge(other.perDestSize[k]);
  for (const auto& [deg, n] : other.latencyDegrees) latencyDegrees[deg] += n;
  traffic += other.traffic;
  faults.crashes += other.faults.crashes;
  faults.recoveries += other.faults.recoveries;
  faults.partitionsCut += other.faults.partitionsCut;
  faults.partitionsHealed += other.faults.partitionsHealed;
  faults.linkDrops += other.faults.linkDrops;
  faults.lossDrops += other.faults.lossDrops;
  channels.dataSent += other.channels.dataSent;
  channels.retransmits += other.channels.retransmits;
  channels.acksSent += other.channels.acksSent;
  channels.nacksSent += other.channels.nacksSent;
  channels.duplicatesDropped += other.channels.duplicatesDropped;
  channels.staleDropped += other.channels.staleDropped;
  channels.holdbackOverflow += other.channels.holdbackOverflow;
  channels.delivered += other.channels.delivered;
  bootstrap.snapshotsRequested += other.bootstrap.snapshotsRequested;
  bootstrap.snapshotsServed += other.bootstrap.snapshotsServed;
  bootstrap.snapshotsInstalled += other.bootstrap.snapshotsInstalled;
  bootstrap.snapshotBytes += other.bootstrap.snapshotBytes;
  bootstrap.suffixMessages += other.bootstrap.suffixMessages;
  bootstrap.retries += other.bootstrap.retries;
  bootstrap.denies += other.bootstrap.denies;
  bootstrap.staleDropped += other.bootstrap.staleDropped;
}

Summary summarizeTrace(const RunTrace& trace, const Topology& topo,
                       const TrafficStats& traffic, SimTime lastAlgoSend,
                       SimTime endTime) {
  // Every cast first: a delivery the trace lists before its cast (possible
  // only in a hand-assembled trace) still counts.
  Recorder rec(topo);
  for (const CastEvent& c : trace.casts) rec.onCast(c);
  for (const DeliveryEvent& d : trace.deliveries) rec.onDeliver(d);
  Summary out = rec.summary(endTime);
  out.traffic = traffic;
  out.lastAlgoSendAt = lastAlgoSend;
  out.faults = faultStatsOf(trace);
  return out;
}

// ---------------------------------------------------------------------------
// JSON.
// ---------------------------------------------------------------------------

namespace {

std::string fmtDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void writeStats(const LatencyStats& s, std::ostream& os) {
  os << "{\"count\": " << s.count << ", \"p50\": " << s.p50
     << ", \"p90\": " << s.p90 << ", \"p99\": " << s.p99
     << ", \"max\": " << s.max << ", \"mean\": " << fmtDouble(s.mean) << "}";
}

}  // namespace

void writeJson(const Summary& s, std::ostream& os, const std::string& indent) {
  const std::string in2 = indent + "  ";
  os << "{\n";
  os << in2 << "\"casts\": " << s.casts << ",\n";
  os << in2 << "\"deliveries\": " << s.deliveries << ",\n";
  os << in2 << "\"completed\": " << s.completed << ",\n";
  os << in2 << "\"fullyDelivered\": " << s.fullyDelivered << ",\n";
  os << in2 << "\"offeredPerSec\": " << fmtDouble(s.offeredPerSec()) << ",\n";
  os << in2 << "\"goodputPerSec\": " << fmtDouble(s.goodputPerSec()) << ",\n";
  os << in2 << "\"msgLatencyUs\": ";
  writeStats(s.msgStats(), os);
  os << ",\n";
  os << in2 << "\"deliveryLatencyUs\": ";
  writeStats(s.deliveryStats(), os);
  os << ",\n";
  os << in2 << "\"latencyDegreeHistogram\": {";
  bool first = true;
  for (const auto& [deg, n] : s.latencyDegrees) {
    if (!first) os << ", ";
    os << "\"" << deg << "\": " << n;
    first = false;
  }
  os << "},\n";
  os << in2 << "\"perGroupLatencyUs\": {";
  first = true;
  for (size_t g = 0; g < s.perGroup.size(); ++g) {
    if (s.perGroup[g].count() == 0) continue;
    if (!first) os << ", ";
    os << "\"" << g << "\": ";
    writeStats(LatencyStats::of(s.perGroup[g]), os);
    first = false;
  }
  os << "},\n";
  os << in2 << "\"perDestSizeLatencyUs\": {";
  first = true;
  for (size_t k = 0; k < s.perDestSize.size(); ++k) {
    if (s.perDestSize[k].count() == 0) continue;
    if (!first) os << ", ";
    os << "\"" << k << "\": ";
    writeStats(LatencyStats::of(s.perDestSize[k]), os);
    first = false;
  }
  os << "},\n";
  os << in2 << "\"faults\": {\"crashes\": " << s.faults.crashes
     << ", \"recoveries\": " << s.faults.recoveries
     << ", \"partitionsCut\": " << s.faults.partitionsCut
     << ", \"partitionsHealed\": " << s.faults.partitionsHealed
     << ", \"linkDrops\": " << s.faults.linkDrops
     << ", \"lossDrops\": " << s.faults.lossDrops << "},\n";
  os << in2 << "\"channels\": {\"dataSent\": " << s.channels.dataSent
     << ", \"retransmits\": " << s.channels.retransmits
     << ", \"acksSent\": " << s.channels.acksSent
     << ", \"nacksSent\": " << s.channels.nacksSent
     << ", \"duplicatesDropped\": " << s.channels.duplicatesDropped
     << ", \"staleDropped\": " << s.channels.staleDropped
     << ", \"holdbackOverflow\": " << s.channels.holdbackOverflow
     << ", \"delivered\": " << s.channels.delivered << "},\n";
  os << in2 << "\"bootstrap\": {\"snapshotsRequested\": "
     << s.bootstrap.snapshotsRequested
     << ", \"snapshotsServed\": " << s.bootstrap.snapshotsServed
     << ", \"snapshotsInstalled\": " << s.bootstrap.snapshotsInstalled
     << ", \"snapshotBytes\": " << s.bootstrap.snapshotBytes
     << ", \"suffixMessages\": " << s.bootstrap.suffixMessages
     << ", \"retries\": " << s.bootstrap.retries
     << ", \"denies\": " << s.bootstrap.denies
     << ", \"staleDropped\": " << s.bootstrap.staleDropped << "},\n";
  os << in2 << "\"quiescence\": {\"lastCastUs\": " << s.lastCastAt
     << ", \"lastAlgoSendUs\": " << s.lastAlgoSendAt << ", \"settleUs\": "
     << (s.lastAlgoSendAt >= 0 && s.lastCastAt >= 0
             ? s.lastAlgoSendAt - s.lastCastAt
             : -1)
     << "},\n";
  os << in2 << "\"endTimeUs\": " << s.endTime << "\n";
  os << indent << "}";
}

}  // namespace wanmc::metrics
