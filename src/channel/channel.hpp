// Reliable retransmitting channel substrate (the ROADMAP's
// "liveness through partitions and loss" item).
//
// The paper's algorithms are proved over quasi-reliable FIFO channels, but
// the fault plane (PR 5) makes partitions and drop filters lose protocol
// messages for good — which is why partition-heal and lossy matrix cells
// were checked for safety only. This plane restores the channel contract
// BELOW the stacks, the way a deployment would (Dolev et al.'s stabilizing
// data-link over unreliable non-FIFO channels is the theory anchor). It is
// a selective-repeat ARQ: only the copies the receiver is missing are sent
// again.
//
//   * per directed link, DATA packets carry a sequence number, the sender's
//     incarnation, a link epoch, and the ORIGINAL modified-Lamport stamp;
//   * send window: a packet is transmitted only while its seq is below the
//     link's cumulative-ACK base + Config::holdbackCap; later packets wait
//     and go out as ACKs slide the base. The receiver delivers strictly in
//     order and so never holds more than holdbackCap - 1 out-of-order
//     copies;
//   * every DATA arrival is answered with a cumulative ACK. An arrival that
//     WIDENS the gap (a seq above every seq requested so far) makes it a
//     request: the ACK names up to AckPacket::kMaxHoles missing ranges,
//     lowest first, and a SACK bound below which every seq outside those
//     holes is held;
//   * the sender marks SACKed packets and never resends them. The first
//     request for a hole resends it at once; further requests for it are
//     ignored for one request window after its last resend (the larger of
//     the link class's one-way latency spread and the intra-group
//     timeout), so reordering and repeated requests cost one copy each;
//   * each unacked packet keeps its own deadline, its last transmit time
//     plus the link's timeout: 2 worst-case one-way delays + 1 ms on an
//     intra-group link, a worst-case DATA + ACK round trip over the slowest
//     link class + 1 ms between groups. One timer per link fires at the
//     oldest deadline and resends only the packets whose deadline passed
//     (never go-back-N). A fire that resends doubles the link's timeout up
//     to an absolute ceiling of 16 inter-group timeouts, and forward
//     progress resets it, so a dead peer costs a bounded trickle. Timers go
//     through Runtime::timer, so a dead sender's timers die with it;
//   * duplicates are suppressed by (sender incarnation, seq); packets from
//     a process's DEAD incarnation are stale and dropped outright;
//   * recovery re-keys the link: a fresh sender incarnation opens a new
//     sequence space, and a sender that learns its peer reincarnated bumps
//     the link epoch and re-offers the first holdbackCap unacked packets
//     as the new epoch's prefix (the amnesiac receiver lost everything it
//     had acked or held).
//
// Cost-model fidelity: the plane never touches the Lamport clocks. The
// original multicast ticks the sender's clock once per fan-out; every
// (re)transmission carries that stamp, and the receive-side jump happens at
// the final in-order handoff (Runtime::deliverFromChannel). DATA is
// accounted under its inner layer (so retransmissions honestly inflate the
// algorithm's message counts); ACK control traffic is accounted under
// Layer::kChannel, which — like the FD substrate — is excluded from the
// genuineness/quiescence bookkeeping. DATA and ACK envelopes are drawn from
// the runtime's payload arena.
//
// Everything is deterministic: no RNG, timers through the scheduler, dense
// link tables iterated in pid order.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "common/ids.hpp"
#include "common/message.hpp"
#include "common/time.hpp"
#include "common/trace.hpp"
#include "exec/context.hpp"

namespace wanmc::channel {

struct Config {
  // Send window per link, and so the most out-of-order copies a receiver
  // ever holds (holdbackCap - 1). Must be at least 1.
  size_t holdbackCap = 1024;
};

// DATA: one protocol packet riding the channel. Reports the INNER layer so
// traffic accounting and drop filters see the algorithm's packet, not the
// envelope.
struct DataPacket final : Payload {
  PayloadPtr inner;
  Layer innerLayer = Layer::kProtocol;
  uint64_t seq = 0;
  uint64_t sendTs = 0;  // original multicast stamp (modified Lamport)
  uint32_t senderInc = 0;
  uint32_t epoch = 0;

  [[nodiscard]] Layer layer() const override { return innerLayer; }
  [[nodiscard]] std::string debugString() const override;
};

// A run of missing seqs [from, to).
struct Hole {
  uint64_t from = 0;
  uint64_t to = 0;
};

// ACK control packet: a cumulative ack, plus — on a request — the missing
// ranges the receiver wants resent and the SACK bound of what it holds.
struct AckPacket final : Payload {
  static constexpr size_t kMaxHoles = 4;

  uint64_t cumAck = 0;  // every seq < cumAck was delivered in order
  // Every seq in [cumAck, sackTo) outside holes[0, numHoles) is held. With
  // more holes than fit, sackTo is the first seq the ACK does not describe.
  uint64_t sackTo = 0;
  std::array<Hole, kMaxHoles> holes{};  // lowest first
  uint32_t numHoles = 0;                // 0 = plain ACK, no request
  uint32_t receiverInc = 0;
  uint32_t epoch = 0;

  [[nodiscard]] Layer layer() const override { return Layer::kChannel; }
  [[nodiscard]] std::string debugString() const override;
};

class Plane final : public exec::ChannelHook {
 public:
  // Does NOT install itself: the owner calls rt.setChannelHook(&plane).
  // Throws std::invalid_argument when cfg.holdbackCap is 0.
  Plane(exec::Context& rt, Config cfg);
  // Armed retransmit timers hold `this`.
  Plane(const Plane&) = delete;
  Plane& operator=(const Plane&) = delete;

  void onSend(ProcessId from, const std::vector<ProcessId>& tos,
              const PayloadPtr& payload, uint64_t sendTs) override;
  void onWireArrive(ProcessId from, ProcessId to,
                    const PayloadPtr& payload) override;
  void onReset(ProcessId pid) override;

  [[nodiscard]] const ChannelStats& stats() const { return stats_; }

 private:
  struct Unacked {
    PayloadPtr inner;
    Layer innerLayer = Layer::kProtocol;
    uint64_t sendTs = 0;
    SimTime lastTx = 0;   // last (re)transmission; deadline = lastTx + rto
    bool resent = false;  // a resend opened the request window
    bool sacked = false;  // the receiver holds it: never resent
  };
  // Sender endpoint of the directed link local -> peer.
  struct OutLink {
    // Unacked seqs [base, base + window.size()): the first holdbackCap are
    // in flight, the rest wait for the base to slide.
    std::deque<Unacked> window;
    uint64_t base = 0;
    EventId timer = kNoEvent;
    SimTime timerAt = kTimeNever;  // kTimeNever = disarmed
    uint32_t epoch = 0;
    uint32_t peerInc = 0;   // receiver incarnation last seen in an ACK
    bool peerKnown = false;
    int backoff = 0;  // the timeout is the link class's, doubled this often
  };
  struct Held {
    PayloadPtr inner;
    uint64_t sendTs = 0;
  };
  // Receiver endpoint of the directed link peer -> local.
  struct InLink {
    std::map<uint64_t, Held> holdback;
    uint64_t nextExpected = 0;
    uint64_t nackCeiling = 0;  // highest seq a request was already issued for
    uint32_t peerInc = 0;      // sender incarnation this space belongs to
    uint32_t epoch = 0;
    bool known = false;  // adopted a (peerInc, epoch) space yet?
  };

  OutLink& out(ProcessId local, ProcessId peer) {
    return out_[static_cast<size_t>(local) * static_cast<size_t>(n_) +
                static_cast<size_t>(peer)];
  }
  InLink& in(ProcessId local, ProcessId peer) {
    return in_[static_cast<size_t>(local) * static_cast<size_t>(n_) +
               static_cast<size_t>(peer)];
  }
  [[nodiscard]] size_t inFlight(const OutLink& ol) const {
    return std::min(ol.window.size(), cfg_.holdbackCap);
  }
  [[nodiscard]] SimTime timeout(ProcessId from, ProcessId to,
                                const OutLink& ol) const;

  void transmit(ProcessId from, ProcessId to, OutLink& ol, size_t i);
  void sendFirst(ProcessId from, ProcessId to, OutLink& ol, size_t i);
  void resend(ProcessId from, ProcessId to, OutLink& ol, size_t i);
  void armTimer(ProcessId from, ProcessId to, OutLink& ol, SimTime at);
  void disarmTimer(OutLink& ol);
  void onRto(ProcessId from, ProcessId to);
  void rekey(ProcessId from, ProcessId to, OutLink& ol);
  void handleData(ProcessId sender, ProcessId self, const DataPacket& d);
  void handleAck(ProcessId acker, ProcessId self, const AckPacket& a);
  void handleRequest(ProcessId acker, ProcessId self, OutLink& ol,
                     const AckPacket& a);
  void sendAck(ProcessId self, ProcessId sender, const InLink& il,
               bool request);

  exec::Context& rt_;
  Config cfg_;
  int n_ = 0;
  // Per link class (intra-group, inter-group): the base retransmit timeout
  // and the request window; one absolute ceiling for backed-off timeouts.
  SimTime intraRto_ = 0;
  SimTime interRto_ = 0;
  SimTime intraWindow_ = 0;
  SimTime interWindow_ = 0;
  SimTime maxRto_ = 0;
  std::vector<OutLink> out_;  // n*n, indexed local*n + peer
  std::vector<InLink> in_;
  ChannelStats stats_;
};

}  // namespace wanmc::channel
