// Application-level messages and protocol payload plumbing.
//
// AppMessage is the unit the agreement protocols order: it corresponds to the
// paper's message m with fields m.id and m.dest. Protocol-internal packets
// (consensus rounds, timestamp exchanges, bundles, heartbeats...) derive from
// Payload and are routed to the owning component by Layer tag.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/ids.hpp"

namespace wanmc {

// Which component of a process stack a packet belongs to. The network layer
// records per-layer traffic statistics; the genuineness and quiescence
// verifiers use the tags to reason about protocol-level traffic exactly as
// the paper does (its accounting treats consensus/reliable multicast as
// oracle-based substrates).
enum class Layer : uint8_t {
  kFailureDetector,
  kConsensus,
  kReliableMulticast,
  kProtocol,   // the atomic multicast / broadcast algorithm itself
  kApp,
  kChannel,    // reliable-channel substrate control traffic (ACK/NACK);
               // retransmitted DATA is accounted under its inner layer
  kBootstrap,  // recovery state-transfer plane (src/bootstrap/): announce/
               // request/offer traffic for rejoining incarnations. Substrate
               // like kChannel: excluded from genuineness/quiescence, and
               // fingerprint-visible only when armed
};

inline constexpr int kNumLayers = 7;

[[nodiscard]] constexpr const char* layerName(Layer l) {
  switch (l) {
    case Layer::kFailureDetector: return "fd";
    case Layer::kConsensus: return "consensus";
    case Layer::kReliableMulticast: return "rmcast";
    case Layer::kProtocol: return "protocol";
    case Layer::kApp: return "app";
    case Layer::kChannel: return "channel";
    case Layer::kBootstrap: return "bootstrap";
  }
  return "?";
}

// Whether traffic of layer `l` is algorithmic activity: everything except
// the failure-detector substrate, which the paper's accounting treats as
// an oracle, the reliable-channel control traffic (ACK/NACK), which the
// paper assumes away entirely, and the bootstrap state-transfer plane,
// which exists outside the paper's model (its crash-stop processes never
// rejoin). Genuineness, quiescence and the inter-group message counts
// read only algorithmic traffic.
[[nodiscard]] constexpr bool isAlgorithmic(Layer l) {
  return l != Layer::kFailureDetector && l != Layer::kChannel &&
         l != Layer::kBootstrap;
}

// An application message to be atomically multicast / broadcast.
// Immutable once created; protocols share it by shared_ptr and keep their
// mutable per-message state (stage, timestamp) in their own tables, exactly
// like an implementation over a real network would keep a parsed copy.
struct AppMessage {
  MsgId id = 0;             // globally unique, totally ordered tie-breaker
  ProcessId sender = kNoProcess;
  GroupSet dest;            // m.dest: the addressed groups
  std::string body;         // opaque application data
  bool batch = false;       // true: this is a BatchMessage carrier
                            // (common/batch.hpp) — an ordering-layer
                            // artifact, never surfaced in the trace

  AppMessage(MsgId i, ProcessId s, GroupSet d, std::string b)
      : id(i), sender(s), dest(d), body(std::move(b)) {}
};

using AppMsgPtr = std::shared_ptr<const AppMessage>;

inline AppMsgPtr makeAppMessage(MsgId id, ProcessId sender, GroupSet dest,
                                std::string body = {}) {
  return std::make_shared<const AppMessage>(id, sender, dest,
                                            std::move(body));
}

// Base class of every packet that crosses the simulated network.
struct Payload {
  virtual ~Payload() = default;
  [[nodiscard]] virtual Layer layer() const = 0;
  [[nodiscard]] virtual std::string debugString() const = 0;
};

using PayloadPtr = std::shared_ptr<const Payload>;

}  // namespace wanmc
