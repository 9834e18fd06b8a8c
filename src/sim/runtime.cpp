#include "sim/runtime.hpp"

#include <sstream>
#include <stdexcept>

namespace wanmc::sim {

void Runtime::start() {
  requireNodes("Runtime::start");
  for (ProcessId p = 0; p < topology().numProcesses(); ++p)
    if (!crashed(p)) node(p).onStart();
}

uint64_t Runtime::run(SimTime until, uint64_t maxEvents) {
  return sched_.run(until, maxEvents);
}

WANMC_HOT void Runtime::multicast(ProcessId from,
                                  const std::vector<ProcessId>& tos,
                                  PayloadPtr payload) {
  assert(payload != nullptr);
  if (crashed(from)) return;  // crash-stop: a crashed process sends nothing
  if (tos.empty()) return;

  const Layer layer = payload->layer();
  // A fan-out to several destinations is ONE send event (paper §2.3).
  const uint64_t sendTs = stampSend(from, tos);

  if (layer != Layer::kFailureDetector) {
    // Bootstrap state transfer is substrate, like the FD and the channel
    // plane's ACK/NACK (isAlgorithmic): it neither counts as algorithmic
    // activity (genuineness) nor resets the quiescence clock.
    noteSend(from, layer, sched_.now());

    // Reliable-channel substrate: the plane takes over transmission of the
    // whole fan-out (it will emit wire copies through channelSend, each
    // carrying this fan-out's single Lamport stamp). FD traffic stays on
    // the direct path — heartbeat timing IS the failure signal. Bootstrap
    // traffic rides the channels on purpose: the catch-up path must be as
    // loss-tolerant as the protocol traffic it reconstructs.
    if (channelHook_ != nullptr) {
      channelHook_->onSend(from, tos, payload, sendTs);
      return;
    }
  }

  // One pooled record for the whole fan-out; each copy is only a POD heap
  // entry. Copies are scheduled in destination order, so sequence numbers,
  // latency draws, and fire order are identical to a per-copy scheme.
  Fanout* f = acquireFanout();
  f->payload = std::move(payload);
  f->from = from;
  f->layer = layer;
  f->sendTs = sendTs;
  f->pending = 0;

  for (ProcessId to : tos) {
    const std::optional<SimTime> delay =
        wireDelay(from, to, layer, *f->payload);
    if (!delay) continue;
    ++f->pending;
    sched_.at(sched_.now() + *delay, Delivery{this, f, to});
  }
  if (f->pending == 0) releaseFanout(f);  // every copy dropped
}

WANMC_HOT std::optional<SimTime> Runtime::wireDelay(ProcessId from,
                                                    ProcessId to, Layer layer,
                                                    const Payload& p) {
  const bool inter = !topology().sameGroup(from, to);
  countCopy(from, layer, inter);
  if (anyLinkState_ && !linkUp(from, to)) {
    ++trace_.linkDrops;
    return std::nullopt;
  }
  if (drop_ && drop_(from, to, p)) return std::nullopt;
  if (lossP_ > 0 && lossRng_.uniform01() < lossP_) {
    ++trace_.lossDrops;
    return std::nullopt;
  }
  return latencyDraw()(inter, rng_);
}

void Runtime::setLossRate(double p) {
  if (!(p >= 0.0 && p < 1.0)) {
    std::ostringstream os;
    os << "Runtime::setLossRate: probability " << p
       << " outside [0, 1) - a lossless link needs 0, a dead one a cut";
    throw std::invalid_argument(os.str());
  }
  lossP_ = p;
}

WANMC_HOT void Runtime::channelSend(ProcessId from, ProcessId to,
                                    PayloadPtr payload, Layer accountLayer) {
  assert(payload != nullptr);
  assert(channelHook_ != nullptr);
  if (crashed(from)) return;  // crash between enqueue and (re)transmit
  // Channel control traffic (ACK/NACK) is substrate, like FD: it neither
  // counts as algorithmic activity nor resets the quiescence clock. DATA
  // (re)transmissions are accounted under their inner layer and do —
  // except bootstrap DATA, which is substrate all the way down.
  noteSend(from, accountLayer, sched_.now());
  const std::optional<SimTime> delay =
      wireDelay(from, to, accountLayer, *payload);
  if (!delay) return;
  sched_.at(sched_.now() + *delay,
            ChanDelivery{this, from, to, std::move(payload)});
}

void Runtime::deliverFromChannel(ProcessId from, ProcessId to,
                                 const PayloadPtr& payload, uint64_t sendTs) {
  // Receive event against the ORIGINAL send stamp: however many
  // retransmissions it took, the Lamport cost model sees one send event.
  receive(from, to, payload, sendTs, payload->layer());
}

WANMC_HOT void Runtime::deliverCopy(Fanout& f, ProcessId to) {
  receive(f.from, to, f.payload, f.sendTs, f.layer);
  if (--f.pending == 0) releaseFanout(&f);
}

void Runtime::crash(ProcessId pid) {
  if (crashed(pid)) return;
  markCrashed(pid);
  trace_.crashes.push_back(CrashEvent{pid, sched_.now()});
  fireCrashListeners(pid);
}

void Runtime::scheduleCrash(ProcessId pid, SimTime when) {
  assert(when >= sched_.now());
  sched_.at(when, [this, pid]() { crash(pid); });
}

void Runtime::recover(ProcessId pid) {
  assert(pid >= 0 && pid < topology().numProcesses());
  if (!crashed(pid)) return;  // scheduled recovery of an alive process
  if (!nodeFactory_)
    throw std::logic_error(
        "Runtime::recover: no node factory installed (setNodeFactory)");
  // The flags flip FIRST: the fresh node's constructor and onStart may
  // register timers and listeners, and those must carry the NEW
  // incarnation (old-incarnation timers are suppressed by TimerGuard).
  beginIncarnation(pid);
  // The channel plane forgets the dead incarnation's endpoints before the
  // fresh node exists: its first sends open brand-new sequence spaces.
  if (channelHook_ != nullptr) channelHook_->onReset(pid);
  purgeListeners(pid);
  std::unique_ptr<Node> fresh = nodeFactory_(pid);
  assert(fresh != nullptr);
  attach(pid, std::move(fresh));  // destroys the dead incarnation's node
  trace_.recoveries.push_back(RecoveryEvent{pid, sched_.now()});
  fireRecoveryListeners(pid);
  node(pid).onStart();
}

void Runtime::scheduleRecover(ProcessId pid, SimTime when) {
  assert(when >= sched_.now());
  sched_.at(when, [this, pid]() { recover(pid); });
}

// ---- dynamic link state ----------------------------------------------------

Runtime::PartitionId Runtime::partition(GroupSet side, SimTime from,
                                        SimTime until) {
  const int m = topology().numGroups();
  auto bad = [](const auto&... parts) {
    std::ostringstream os;
    os << "Runtime::partition: ";
    (os << ... << parts);
    throw std::invalid_argument(os.str());
  };
  if (side.empty()) bad("empty partition side");
  if (m < 64 && (side.bits() >> m) != 0)
    bad("side ", side.str(), " addresses groups beyond the topology's ", m);
  if (side == topology().allGroups())
    bad("side ", side.str(),
        " is the whole topology - a partition needs a non-empty far side");
  if (from < sched_.now()) bad("window starts in the past");
  if (until != kTimeNever && until <= from)
    bad("window [", from, ", ", until, ")us is empty");

  const auto id = static_cast<PartitionId>(partitions_.size());
  partitions_.push_back(Partition{side, false, false});
  anyLinkState_ = true;
  if (groupCut_.empty())
    groupCut_.assign(static_cast<size_t>(m) * static_cast<size_t>(m), 0);
  if (from <= sched_.now()) {
    activatePartition(id);
  } else {
    sched_.at(from, [this, id]() { activatePartition(id); });
  }
  if (until != kTimeNever) sched_.at(until, [this, id]() { heal(id); });
  return id;
}

void Runtime::activatePartition(PartitionId id) {
  Partition& p = partitions_[id];
  if (p.healed || p.active) return;  // healed before the cut fired
  p.active = true;
  adjustGroupCuts(p.side, +1);
  trace_.partitions.push_back(
      PartitionEvent{true, p.side.bits(), sched_.now()});
}

void Runtime::heal(PartitionId id) {
  assert(id < partitions_.size());
  Partition& p = partitions_[id];
  if (p.healed) return;
  p.healed = true;
  if (!p.active) return;  // cut never activated: nothing to undo
  p.active = false;
  adjustGroupCuts(p.side, -1);
  trace_.partitions.push_back(
      PartitionEvent{false, p.side.bits(), sched_.now()});
}

void Runtime::healAll() {
  for (PartitionId id = 0; id < partitions_.size(); ++id) heal(id);
}

void Runtime::adjustGroupCuts(const GroupSet& side, int delta) {
  const int m = topology().numGroups();
  for (GroupId a = 0; a < m; ++a) {
    const bool inSide = side.contains(a);
    for (GroupId b = 0; b < m; ++b) {
      if (a == b || side.contains(b) == inSide) continue;
      auto& c = groupCut_[static_cast<size_t>(a) * static_cast<size_t>(m) +
                          static_cast<size_t>(b)];
      c = static_cast<uint16_t>(static_cast<int>(c) + delta);
    }
  }
}

bool Runtime::linkUp(ProcessId from, ProcessId to) const {
  return !anyLinkState_ ||
         !groupLinkCut(topology().group(from), topology().group(to));
}

void Runtime::recordCast(ProcessId pid, const AppMsgPtr& m) {
  trace_.casts.push_back(castEvent(pid, m, sched_.now()));
  for (RunObserver* o : castObservers_) o->onCast(trace_.casts.back());
}

void Runtime::recordDelivery(ProcessId pid, MsgId msg) {
  trace_.deliveries.push_back(deliveryEvent(pid, msg, sched_.now()));
  for (RunObserver* o : deliveryObservers_)
    o->onDeliver(trace_.deliveries.back());
}

}  // namespace wanmc::sim
