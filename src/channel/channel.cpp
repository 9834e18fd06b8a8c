#include "channel/channel.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/arena.hpp"
#include "common/hot.hpp"

namespace wanmc::channel {

std::string DataPacket::debugString() const {
  std::ostringstream os;
  os << "chan-data{seq=" << seq << " inc=" << senderInc << " to="
     << receiverInc << " " << inner->debugString() << "}";
  return os.str();
}

std::string AckPacket::debugString() const {
  std::ostringstream os;
  os << "chan-ack{cum=" << cumAck;
  if (numHoles > 0) {
    os << " holes=";
    for (uint32_t h = 0; h < numHoles; ++h)
      os << "[" << holes[h].from << "," << holes[h].to << ")";
    os << " sack=" << sackTo;
  }
  os << " inc=" << receiverInc << " of=" << senderInc << "}";
  return os.str();
}

Plane::Plane(exec::Context& rt, Config cfg)
    : rt_(rt), cfg_(cfg), n_(rt.topology().numProcesses()) {
  if (cfg_.holdbackCap == 0)
    throw std::invalid_argument("channel::Config::holdbackCap must be >= 1");
  const auto& lm = rt_.latencyModel();
  // Deterministic in the model. Intra-group: one worst-case DATA + ACK
  // round trip plus 1 ms of slack. Inter-group: a worst-case round trip
  // over the slowest link class plus the receiver's turnaround and slack.
  intraRto_ = 2 * lm.intraMax + 1 * kMs;
  interRto_ =
      2 * std::max(lm.interMax, lm.intraMax) + 2 * lm.intraMax + 1 * kMs;
  // A repeated request is ignored until the copies the first resend raced
  // against have had time to land.
  intraWindow_ = std::max(lm.intraMax - lm.intraMin, intraRto_);
  interWindow_ = std::max(lm.interMax - lm.interMin, intraRto_);
  maxRto_ = interRto_ * 16;
  out_.resize(static_cast<size_t>(n_) * static_cast<size_t>(n_));
  in_.resize(static_cast<size_t>(n_) * static_cast<size_t>(n_));
}

SimTime Plane::timeout(ProcessId from, ProcessId to,
                       const OutLink& ol) const {
  const SimTime base =
      rt_.topology().sameGroup(from, to) ? intraRto_ : interRto_;
  return std::min(base << ol.backoff, maxRto_);
}

WANMC_HOT void Plane::onSend(ProcessId from, const std::vector<ProcessId>& tos,
                             const PayloadPtr& payload, uint64_t sendTs) {
  const Layer layer = payload->layer();
  for (ProcessId to : tos) {
    OutLink& ol = out(from, to);
    ol.window.push_back(Unacked{payload, layer, sendTs});
    // Past the send window the packet waits for the base to slide.
    if (ol.window.size() <= cfg_.holdbackCap)
      sendFirst(from, to, ol, ol.window.size() - 1);
  }
}

WANMC_HOT void Plane::transmit(ProcessId from, ProcessId to, OutLink& ol,
                               size_t i) {
  Unacked& u = ol.window[i];
  u.lastTx = rt_.now();
  auto pkt = std::allocate_shared<DataPacket>(
      PoolAllocator<DataPacket>(&rt_.payloadArena()));
  pkt->inner = u.inner;
  pkt->innerLayer = u.innerLayer;
  pkt->seq = ol.base + i;
  pkt->sendTs = u.sendTs;
  pkt->senderInc = rt_.incarnation(from);
  pkt->receiverInc = ol.peerInc;
  rt_.channelSend(from, to, std::move(pkt), u.innerLayer);
}

WANMC_HOT void Plane::sendFirst(ProcessId from, ProcessId to, OutLink& ol,
                                size_t i) {
  ++stats_.dataSent;
  transmit(from, to, ol, i);
  armTimer(from, to, ol, rt_.now() + timeout(from, to, ol));
}

void Plane::resend(ProcessId from, ProcessId to, OutLink& ol, size_t i) {
  ++stats_.retransmits;
  ol.window[i].resent = true;
  transmit(from, to, ol, i);
}

void Plane::armTimer(ProcessId from, ProcessId to, OutLink& ol, SimTime at) {
  if (ol.timerAt <= at) return;  // an earlier fire re-arms for this one
  if (ol.timerAt != kTimeNever) rt_.cancelTimer(ol.timer);
  ol.timerAt = at;
  // Runtime::timer is incarnation-guarded: if `from` crashes (or crashes
  // and recovers) before this fires, the dead incarnation's timer is
  // suppressed.
  ol.timer = rt_.timer(from, at - rt_.now(),
                       [this, from, to]() { onRto(from, to); });
}

void Plane::disarmTimer(OutLink& ol) {
  if (ol.timerAt == kTimeNever) return;
  rt_.cancelTimer(ol.timer);
  ol.timerAt = kTimeNever;
}

void Plane::onRto(ProcessId from, ProcessId to) {
  OutLink& ol = out(from, to);
  ol.timerAt = kTimeNever;
  // Resend only what is overdue; SACKed packets reached the receiver.
  const SimTime now = rt_.now();
  const SimTime rto = timeout(from, to, ol);
  bool resent = false;
  SimTime oldest = kTimeNever;
  for (size_t i = 0, n = inFlight(ol); i < n; ++i) {
    const Unacked& u = ol.window[i];
    if (u.sacked) continue;
    if (u.lastTx + rto <= now) {
      resend(from, to, ol, i);
      resent = true;
    }
    oldest = std::min(oldest, u.lastTx);
  }
  if (resent && rto < maxRto_) ++ol.backoff;
  if (oldest != kTimeNever)
    armTimer(from, to, ol, oldest + timeout(from, to, ol));
}

void Plane::rekey(ProcessId from, ProcessId to, OutLink& ol) {
  // The peer reincarnated: everything it ever acked died with it. Address
  // a fresh sequence space from 0 to the new incarnation and re-offer the
  // in-flight backlog as its prefix; in-flight packets and ACKs of the old
  // space are dropped as stale on arrival.
  ol.base = 0;
  ol.backoff = 0;
  disarmTimer(ol);
  for (size_t i = 0, n = inFlight(ol); i < n; ++i) {
    ol.window[i].resent = false;
    ol.window[i].sacked = false;
    ++stats_.retransmits;
    transmit(from, to, ol, i);
  }
  if (!ol.window.empty())
    armTimer(from, to, ol, rt_.now() + timeout(from, to, ol));
}

void Plane::onWireArrive(ProcessId from, ProcessId to,
                         const PayloadPtr& payload) {
  if (const auto* d = dynamic_cast<const DataPacket*>(payload.get())) {
    handleData(from, to, *d);
  } else if (const auto* a = dynamic_cast<const AckPacket*>(payload.get())) {
    handleAck(from, to, *a);
  }
}

WANMC_HOT void Plane::handleData(ProcessId sender, ProcessId self,
                                 const DataPacket& d) {
  // Stale-incarnation copies (a dead incarnation's stragglers still in
  // flight) are dropped outright: the (sender incarnation, seq) key is what
  // makes duplicate suppression survive recovery.
  if (d.senderInc != rt_.incarnation(sender)) {
    ++stats_.staleDropped;
    return;
  }
  if (d.receiverInc != rt_.incarnation(self)) {
    // Addressed to our dead predecessor: the sender re-offers what it still
    // holds once it re-keys, so handing this up could hand it up twice. The
    // ACK names our incarnation, which makes the sender re-key.
    ++stats_.staleDropped;
    sendAck(self, sender, InLink{.peerInc = d.senderInc}, false);
    return;
  }
  InLink& il = in(self, sender);
  // The sender reincarnated: adopt its fresh space.
  if (d.senderInc != il.peerInc) il = InLink{.peerInc = d.senderInc};

  if (d.seq < il.nextExpected || il.holdback.contains(d.seq)) {
    // Already handed up (the ACK must have been lost): suppress, re-ack.
    ++stats_.duplicatesDropped;
    sendAck(self, sender, il, false);
    return;
  }
  rt_.deliverFromChannel(sender, self, d.inner, d.sendTs);
  ++stats_.delivered;
  if (d.seq == il.nextExpected) {
    ++il.nextExpected;
    for (auto it = il.holdback.begin();
         it != il.holdback.end() && *it == il.nextExpected;
         it = il.holdback.erase(it))
      ++il.nextExpected;
    if (il.nackCeiling < il.nextExpected) il.nackCeiling = il.nextExpected;
    sendAck(self, sender, il, false);
    return;
  }

  // Gap. The sender's window keeps the seq within holdbackCap of
  // nextExpected, so the set stays small.
  il.holdback.insert(d.seq);
  // An arrival that WIDENS the gap requests every current hole at once.
  const bool request = d.seq > il.nackCeiling;
  if (request) {
    il.nackCeiling = d.seq;
    ++stats_.nacksSent;
  }
  sendAck(self, sender, il, request);
}

WANMC_HOT void Plane::sendAck(ProcessId self, ProcessId sender,
                              const InLink& il, bool request) {
  auto ack = std::allocate_shared<AckPacket>(
      PoolAllocator<AckPacket>(&rt_.payloadArena()));
  ack->cumAck = il.nextExpected;
  uint64_t next = il.nextExpected;  // first seq not yet described
  if (request) {
    for (uint64_t seq : il.holdback) {
      if (seq != next) {
        if (ack->numHoles == AckPacket::kMaxHoles) break;
        ack->holes[ack->numHoles++] = Hole{next, seq};
      }
      next = seq + 1;
    }
  }
  ack->sackTo = next;
  ack->receiverInc = rt_.incarnation(self);
  ack->senderInc = il.peerInc;
  ++stats_.acksSent;
  rt_.channelSend(self, sender, std::move(ack), Layer::kChannel);
}

WANMC_HOT void Plane::handleAck(ProcessId acker, ProcessId self,
                                const AckPacket& a) {
  if (a.receiverInc != rt_.incarnation(acker) ||
      a.senderInc != rt_.incarnation(self)) {
    ++stats_.staleDropped;  // from or to a dead incarnation
    return;
  }
  OutLink& ol = out(self, acker);
  if (a.receiverInc != ol.peerInc) {
    // The receiver reincarnated since the link's space was addressed to
    // it: re-key the link. This ACK describes no packet of that space.
    ol.peerInc = a.receiverInc;
    rekey(self, acker, ol);
    return;
  }
  if (a.cumAck > ol.base) {
    // Forward progress: the link is alive again. The timer stays armed; it
    // re-arms for the oldest remaining deadline when it fires.
    const size_t wasInFlight = inFlight(ol);
    const auto acked = static_cast<size_t>(
        std::min<uint64_t>(a.cumAck - ol.base, ol.window.size()));
    ol.window.erase(ol.window.begin(),
                    ol.window.begin() + static_cast<std::ptrdiff_t>(acked));
    ol.base += acked;
    ol.backoff = 0;
    if (ol.window.empty()) {
      disarmTimer(ol);
      return;
    }
    // The send window slid: transmit the packets it now admits.
    for (size_t i = wasInFlight - acked, n = inFlight(ol); i < n; ++i)
      sendFirst(self, acker, ol, i);
  }
  if (a.numHoles > 0) handleRequest(acker, self, ol, a);
}

void Plane::handleRequest(ProcessId acker, ProcessId self, OutLink& ol,
                          const AckPacket& a) {
  const SimTime now = rt_.now();
  const SimTime window =
      rt_.topology().sameGroup(self, acker) ? intraWindow_ : interWindow_;
  const uint64_t sackEnd = std::min(a.sackTo, ol.base + inFlight(ol));
  uint64_t s = std::max(a.cumAck, ol.base);
  for (uint32_t h = 0; h < a.numHoles; ++h) {
    const uint64_t holeFrom = std::min(a.holes[h].from, sackEnd);
    const uint64_t holeTo = std::min(a.holes[h].to, sackEnd);
    for (; s < holeFrom; ++s) ol.window[s - ol.base].sacked = true;
    for (; s < holeTo; ++s) {
      const Unacked& u = ol.window[s - ol.base];
      // A stale request may name a packet a later ACK reported in; a
      // resent packet is asked for again only after one request window.
      if (u.sacked || (u.resent && now - u.lastTx < window)) continue;
      resend(self, acker, ol, s - ol.base);
    }
  }
  for (; s < sackEnd; ++s) ol.window[s - ol.base].sacked = true;
}

void Plane::onReset(ProcessId pid) {
  // `pid` recovered as a fresh incarnation: both endpoints of every link it
  // touches forget the dead incarnation's state (its timers died with it).
  // Its fresh sends open new sequence spaces (peers adopt them on the
  // incarnation change); peers' links TO it re-key lazily, when it drops a
  // copy addressed to its predecessor and its ACK reveals the incarnation.
  for (ProcessId peer = 0; peer < n_; ++peer) {
    out(pid, peer) = OutLink{};
    in(pid, peer) = InLink{};
  }
}

}  // namespace wanmc::channel
