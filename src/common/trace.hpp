// Run traces: everything the verifiers and the benchmark harness need to
// check the paper's properties and to measure latency degrees.
//
// The latency degree (paper §2.3) is defined over a *modified* Lamport
// clock: only inter-group sends tick the clock. The simulator stamps every
// A-XCast and A-Deliver event with that clock; Delta(m, R) is then
//     max_{q in Pi'(m)} ts(A-Deliver(m)_q) - ts(A-XCast(m)_p).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/message.hpp"
#include "common/time.hpp"

namespace wanmc {

// One A-Deliver (or R-Deliver / optimistic-deliver) event.
struct DeliveryEvent {
  ProcessId process = kNoProcess;
  MsgId msg = 0;
  uint64_t lamport = 0;   // modified Lamport timestamp of the deliver event
  SimTime when = 0;       // simulated wall-clock
  uint64_t order = 0;     // per-process delivery sequence number
};

// One A-XCast (A-MCast or A-BCast) event.
struct CastEvent {
  ProcessId process = kNoProcess;
  MsgId msg = 0;
  GroupSet dest;
  uint64_t lamport = 0;
  SimTime when = 0;
};

// One benign crash (crash-stop until recovered).
struct CrashEvent {
  ProcessId process = kNoProcess;
  SimTime when = 0;
};

// One process recovery: the process rejoins with RESET protocol state (the
// crash-recovery model without stable storage — an amnesiac rejoin). The
// runtime bumps the process's incarnation; verifiers use these events to
// segment a recovered process's deliveries by incarnation.
struct RecoveryEvent {
  ProcessId process = kNoProcess;
  SimTime when = 0;
};

// One network-partition transition: `side` (GroupSet bits) is cut from (or
// re-joined to) the rest of the topology.
struct PartitionEvent {
  bool cut = true;  // false: heal
  uint64_t side = 0;
  SimTime when = 0;
};

// Aggregated trace of one simulation run. Each fact is recorded once: a
// message's sender and destination live only in its CastEvent (CastIndex
// looks them up by id).
struct RunTrace {
  std::vector<CastEvent> casts;
  std::vector<DeliveryEvent> deliveries;
  // Fault-plane events (always recorded; empty in fault-free runs).
  std::vector<CrashEvent> crashes;
  std::vector<RecoveryEvent> recoveries;
  std::vector<PartitionEvent> partitions;
  // Wire copies discarded because their link was cut at send time.
  uint64_t linkDrops = 0;
  // Wire copies discarded by the iid LossModel (sim::Runtime::setLossRate).
  uint64_t lossDrops = 0;

  // Per-process delivery sequences, in delivery order.
  [[nodiscard]] std::map<ProcessId, std::vector<MsgId>> sequences() const {
    std::map<ProcessId, std::vector<MsgId>> out;
    for (const auto& d : deliveries) out[d.process].push_back(d.msg);
    return out;
  }

  [[nodiscard]] std::optional<CastEvent> castOf(MsgId id) const {
    for (const auto& c : casts)
      if (c.msg == id) return c;
    return std::nullopt;
  }

  // Delta(m, R): max over delivering processes of the Lamport distance from
  // the cast event. Returns nullopt if m was never cast or never delivered.
  [[nodiscard]] std::optional<int64_t> latencyDegree(MsgId id) const {
    auto cast = castOf(id);
    if (!cast) return std::nullopt;
    std::optional<int64_t> best;
    for (const auto& d : deliveries) {
      if (d.msg != id) continue;
      int64_t delta = static_cast<int64_t>(d.lamport) -
                      static_cast<int64_t>(cast->lamport);
      if (!best || delta > *best) best = delta;
    }
    return best;
  }

  // Max simulated wall-clock delay between cast and last delivery of m.
  [[nodiscard]] std::optional<SimTime> wallLatency(MsgId id) const {
    auto cast = castOf(id);
    if (!cast) return std::nullopt;
    std::optional<SimTime> best;
    for (const auto& d : deliveries) {
      if (d.msg != id) continue;
      SimTime delta = d.when - cast->when;
      if (!best || delta > *best) best = delta;
    }
    return best;
  }
};

// The cast event of each message id, in one dense table (core::Experiment
// allocates ids sequentially from 1). Built once per pass over a trace by
// the checkers and exporters that look up a delivered message's sender or
// destination. If an id was cast twice, the later cast wins. Holds
// pointers into `trace.casts`: the trace must outlive the index.
class CastIndex {
 public:
  explicit CastIndex(const RunTrace& trace) {
    MsgId maxId = 0;
    for (const CastEvent& c : trace.casts) maxId = std::max(maxId, c.msg);
    if (!trace.casts.empty()) byId_.assign(maxId + 1, nullptr);
    for (const CastEvent& c : trace.casts) byId_[c.msg] = &c;
  }

  // nullptr when `id` was never cast.
  [[nodiscard]] const CastEvent* find(MsgId id) const {
    return id < byId_.size() ? byId_[id] : nullptr;
  }

  // One past the largest cast id (0 when nothing was cast): the row count
  // of a table indexed by cast id.
  [[nodiscard]] size_t size() const { return byId_.size(); }

 private:
  std::vector<const CastEvent*> byId_;
};

// Fault-plane counters: one block of the metrics Summary. Derived from the
// RunTrace and injected into the Summary at harvest (and by summarizeTrace),
// like the traffic counters.
struct FaultStats {
  uint64_t crashes = 0;
  uint64_t recoveries = 0;
  uint64_t partitionsCut = 0;
  uint64_t partitionsHealed = 0;
  uint64_t linkDrops = 0;  // copies discarded on a cut link
  uint64_t lossDrops = 0;  // copies discarded by the iid LossModel
  friend bool operator==(const FaultStats&, const FaultStats&) = default;
};

[[nodiscard]] inline FaultStats faultStatsOf(const RunTrace& t) {
  FaultStats out;
  out.crashes = t.crashes.size();
  out.recoveries = t.recoveries.size();
  for (const auto& p : t.partitions) (p.cut ? out.partitionsCut
                                            : out.partitionsHealed)++;
  out.linkDrops = t.linkDrops;
  out.lossDrops = t.lossDrops;
  return out;
}

// Reliable-channel substrate counters (src/channel/). Maintained by the
// channel plane itself, not derivable from the RunTrace: like lastAlgoSend,
// they are injected into the Summary at harvest. All-zero when channels
// are off.
struct ChannelStats {
  uint64_t dataSent = 0;           // first transmissions of protocol packets
  uint64_t retransmits = 0;        // timer/request resends, re-key re-offers
  uint64_t acksSent = 0;           // cumulative ACK control packets
  uint64_t nacksSent = 0;          // ACKs that carried a gap request
  uint64_t duplicatesDropped = 0;  // (sender incarnation, seq) already seen
  uint64_t staleDropped = 0;       // packets from or to a dead incarnation
  // Seqs past the holdback cap: always 0, since the send window bounds
  // what a receiver tracks. Kept for report readers.
  uint64_t holdbackOverflow = 0;
  uint64_t delivered = 0;          // handoffs to the stacks, one per packet
  friend bool operator==(const ChannelStats&, const ChannelStats&) = default;
};

// Bootstrap-plane counters (src/bootstrap/). Like ChannelStats: maintained
// by the bootstrap plane itself and injected into the Summary at harvest.
// All-zero when the plane is unarmed.
struct BootstrapStats {
  uint64_t snapshotsRequested = 0;  // kRequest packets sent by rejoiners
  uint64_t snapshotsServed = 0;     // kOffer packets sent by live peers
  uint64_t snapshotsInstalled = 0;  // offers accepted and installed
  uint64_t snapshotBytes = 0;       // approximate serialized size of offers
  uint64_t suffixMessages = 0;      // delivery-suffix entries replayed
  uint64_t retries = 0;             // request re-issues (peer dead or silent)
  uint64_t denies = 0;              // kDeny responses (peer itself rejoining)
  uint64_t staleDropped = 0;        // packets for a superseded incarnation
  friend bool operator==(const BootstrapStats&,
                         const BootstrapStats&) = default;
};

// Per-layer message counters, split intra/inter group.
struct TrafficStats {
  struct Counter {
    uint64_t intra = 0;
    uint64_t inter = 0;
    [[nodiscard]] uint64_t total() const { return intra + inter; }
    friend bool operator==(const Counter&, const Counter&) = default;
  };
  Counter perLayer[kNumLayers];

  friend bool operator==(const TrafficStats& a, const TrafficStats& b) {
    for (int l = 0; l < kNumLayers; ++l)
      if (!(a.perLayer[l] == b.perLayer[l])) return false;
    return true;
  }

  TrafficStats& operator+=(const TrafficStats& o) {
    for (int l = 0; l < kNumLayers; ++l) {
      perLayer[l].intra += o.perLayer[l].intra;
      perLayer[l].inter += o.perLayer[l].inter;
    }
    return *this;
  }

  Counter& at(Layer l) { return perLayer[static_cast<int>(l)]; }
  [[nodiscard]] const Counter& at(Layer l) const {
    return perLayer[static_cast<int>(l)];
  }

  [[nodiscard]] uint64_t intraTotal() const {
    uint64_t s = 0;
    for (const auto& c : perLayer) s += c.intra;
    return s;
  }
  // Inter-group messages of the algorithmic layers (isAlgorithmic).
  // Retransmitted channel DATA copies count under their inner layer.
  [[nodiscard]] uint64_t interAlgorithmic() const {
    uint64_t s = 0;
    for (int l = 0; l < kNumLayers; ++l)
      if (isAlgorithmic(static_cast<Layer>(l))) s += perLayer[l].inter;
    return s;
  }
};

}  // namespace wanmc
