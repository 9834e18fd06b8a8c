#include "sim/runtime.hpp"

#include <sstream>
#include <stdexcept>

namespace wanmc::sim {

void Runtime::attach(ProcessId pid, std::unique_ptr<Node> node) {
  assert(pid >= 0 && pid < topo_.numProcesses());
  // Indexed by pid (not append order) so recovery can swap one slot.
  if (owned_.size() < static_cast<size_t>(topo_.numProcesses()))
    owned_.resize(static_cast<size_t>(topo_.numProcesses()));
  nodes_[static_cast<size_t>(pid)] = node.get();
  owned_[static_cast<size_t>(pid)] = std::move(node);
}

void Runtime::start() {
  for (ProcessId p = 0; p < topo_.numProcesses(); ++p)
    if (nodes_[static_cast<size_t>(p)] == nullptr)
      throw std::logic_error("Runtime::start: process " + std::to_string(p) +
                             " has no attached node");
  for (ProcessId p = 0; p < topo_.numProcesses(); ++p)
    if (!crashed(p)) nodes_[static_cast<size_t>(p)]->onStart();
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

  // Modified Lamport clock (paper §2.3, rule 2): the send event is stamped
  // LC+1 if it leaves the group, LC otherwise; the sender's clock advances
  // to the stamp. A fan-out to several destinations is ONE send event.
  // Group membership per destination is computed once here and reused by
  // the scheduling loop below (interScratch_ keeps its capacity across
  // calls, so this does not allocate at steady state).
  bool anyInter = false;
  interScratch_.clear();
  for (ProcessId to : tos) {
    const bool inter = !topo_.sameGroup(from, to);
    interScratch_.push_back(inter ? 1 : 0);
    anyInter |= inter;
  }
  uint64_t& senderClock = lamport_[static_cast<size_t>(from)];
  const uint64_t sendTs = senderClock + (anyInter ? 1 : 0);
  senderClock = sendTs;

  if (layer != Layer::kFailureDetector) {
    // Bootstrap state transfer is substrate, like the FD and the channel
    // plane's ACK/NACK (isAlgorithmic): it neither counts as algorithmic
    // activity (genuineness) nor resets the quiescence clock.
    if (isAlgorithmic(layer)) {
      lastAlgoSend_ = sched_.now();
      sentAlgo_[static_cast<size_t>(from)] = 1;
    }

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

  auto& counter = traffic_.at(layer);
  size_t idx = 0;
  for (ProcessId to : tos) {
    const bool inter = interScratch_[idx++] != 0;
    if (inter) {
      ++counter.inter;
    } else {
      ++counter.intra;
    }

    // Cut links drop the copy before the latency draw, exactly like the
    // drop filter: link state never perturbs the RNG stream of the copies
    // that do go out.
    if (anyLinkState_ && !linkUp(from, to)) {
      ++trace_.linkDrops;
      continue;
    }
    if (drop_ && drop_(from, to, *f->payload)) continue;
    if (lossP_ > 0 && lossRng_.uniform01() < lossP_) {
      ++trace_.lossDrops;
      continue;
    }

    const SimTime delay = latencyDraw_(inter, rng_);
    ++f->pending;
    sched_.at(sched_.now() + delay, Delivery{this, f, to});
  }
  if (f->pending == 0) releaseFanout(f);  // every copy dropped
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
  const bool inter = !topo_.sameGroup(from, to);
  auto& counter = traffic_.at(accountLayer);
  if (inter) {
    ++counter.inter;
  } else {
    ++counter.intra;
  }
  // Channel control traffic (ACK/NACK) is substrate, like FD: it neither
  // counts as algorithmic activity nor resets the quiescence clock. DATA
  // (re)transmissions are accounted under their inner layer and do —
  // except bootstrap DATA, which is substrate all the way down.
  if (isAlgorithmic(accountLayer)) {
    lastAlgoSend_ = sched_.now();
    sentAlgo_[static_cast<size_t>(from)] = 1;
  }
  if (anyLinkState_ && !linkUp(from, to)) {
    ++trace_.linkDrops;
    return;
  }
  if (drop_ && drop_(from, to, *payload)) return;
  if (lossP_ > 0 && lossRng_.uniform01() < lossP_) {
    ++trace_.lossDrops;
    return;
  }
  const SimTime delay = latencyDraw_(inter, rng_);
  sched_.at(sched_.now() + delay,
            ChanDelivery{this, from, to, std::move(payload)});
}

void Runtime::deliverFromChannel(ProcessId from, ProcessId to,
                                 const PayloadPtr& payload, uint64_t sendTs) {
  if (crashed(to)) return;
  // Receive event (rule 3) against the ORIGINAL send stamp: however many
  // retransmissions it took, the Lamport cost model sees one send event.
  uint64_t& recvClock = lamport_[static_cast<size_t>(to)];
  recvClock = std::max(recvClock, sendTs);
  if (isAlgorithmic(payload->layer())) recvAlgo_[static_cast<size_t>(to)] = 1;
  nodes_[static_cast<size_t>(to)]->onMessage(from, payload);
}

WANMC_HOT void Runtime::deliverCopy(Fanout& f, ProcessId to) {
  if (!crashed(to)) {  // to a crashed process: vanishes
    // Receive event (rule 3): the receiver's clock jumps to
    // max(LC, ts(send(m))).
    uint64_t& recvClock = lamport_[static_cast<size_t>(to)];
    recvClock = std::max(recvClock, f.sendTs);
    if (isAlgorithmic(f.layer)) recvAlgo_[static_cast<size_t>(to)] = 1;
    nodes_[static_cast<size_t>(to)]->onMessage(f.from, f.payload);
  }
  if (--f.pending == 0) releaseFanout(&f);
}

void Runtime::crash(ProcessId pid) {
  if (crashed(pid)) return;
  crashed_[static_cast<size_t>(pid)] = 1;
  everCrashed_[static_cast<size_t>(pid)] = 1;
  trace_.crashes.push_back(CrashEvent{pid, sched_.now()});
  dispatchListeners(crashListeners_, pid);
}

void Runtime::scheduleCrash(ProcessId pid, SimTime when) {
  assert(when >= sched_.now());
  sched_.at(when, [this, pid]() { crash(pid); });
}

void Runtime::recover(ProcessId pid) {
  assert(pid >= 0 && pid < topo_.numProcesses());
  if (!crashed(pid)) return;  // scheduled recovery of an alive process
  if (!nodeFactory_)
    throw std::logic_error(
        "Runtime::recover: no node factory installed (setNodeFactory)");
  const size_t i = static_cast<size_t>(pid);
  // The flags flip FIRST: the fresh node's constructor and onStart may
  // register timers and listeners, and those must carry the NEW
  // incarnation (old-incarnation timers are suppressed by TimerGuard).
  ++incarnation_[i];
  crashed_[i] = 0;
  // The channel plane forgets the dead incarnation's endpoints before the
  // fresh node exists: its first sends open brand-new sequence spaces.
  if (channelHook_ != nullptr) channelHook_->onReset(pid);
  purgeListeners(crashListeners_, pid, incarnation_[i]);
  purgeListeners(recoveryListeners_, pid, incarnation_[i]);
  std::unique_ptr<Node> fresh = nodeFactory_(pid);
  assert(fresh != nullptr);
  nodes_[i] = fresh.get();
  owned_[i] = std::move(fresh);  // destroys the dead incarnation's node
  trace_.recoveries.push_back(RecoveryEvent{pid, sched_.now()});
  dispatchListeners(recoveryListeners_, pid);
  nodes_[i]->onStart();
}

void Runtime::scheduleRecover(ProcessId pid, SimTime when) {
  assert(when >= sched_.now());
  sched_.at(when, [this, pid]() { recover(pid); });
}

// ---- dynamic link state ----------------------------------------------------

Runtime::PartitionId Runtime::partition(GroupSet side, SimTime from,
                                        SimTime until) {
  const int m = topo_.numGroups();
  auto bad = [](const auto&... parts) {
    std::ostringstream os;
    os << "Runtime::partition: ";
    (os << ... << parts);
    throw std::invalid_argument(os.str());
  };
  if (side.empty()) bad("empty partition side");
  if (m < 64 && (side.bits() >> m) != 0)
    bad("side ", side.str(), " addresses groups beyond the topology's ", m);
  if (side == topo_.allGroups())
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
  const int m = topo_.numGroups();
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
  return !anyLinkState_ || !groupLinkCut(topo_.group(from), topo_.group(to));
}

int Runtime::aliveInGroup(GroupId g) const {
  int alive = 0;
  for (ProcessId p : topo_.members(g))
    if (!crashed(p)) ++alive;
  return alive;
}

void Runtime::recordCast(ProcessId pid, const AppMsgPtr& m) {
  trace_.casts.push_back(CastEvent{pid, m->id, m->dest,
                                   lamport_[static_cast<size_t>(pid)],
                                   sched_.now()});
  for (RunObserver* o : castObservers_) o->onCast(trace_.casts.back());
}

void Runtime::recordDelivery(ProcessId pid, MsgId msg) {
  trace_.deliveries.push_back(
      DeliveryEvent{pid, msg, lamport_[static_cast<size_t>(pid)],
                    sched_.now(), perProcOrder_[static_cast<size_t>(pid)]++});
  for (RunObserver* o : deliveryObservers_)
    o->onDeliver(trace_.deliveries.back());
}

}  // namespace wanmc::sim
