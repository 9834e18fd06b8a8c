// The non-genuine multicast of the paper's introduction: reduce atomic
// multicast to atomic broadcast by A-BCasting every message to ALL groups
// and delivering it only at the addressees.
//
// This inherits A2's latency degree of 1 — beating the genuine lower bound
// of 2 (Prop. 3.1/3.2) precisely because it is not genuine: every process in
// the system works on every message, so its message complexity is O(n^2) per
// message no matter how few groups are addressed. The Tradeoff.* tests in
// tests/test_integration.cpp check this latency/bandwidth tradeoff against
// A1.
#pragma once

#include "abcast/a2_node.hpp"

namespace wanmc::amcast {

class ViaBcastNode final : public abcast::A2Node {
 public:
  using abcast::A2Node::A2Node;

 protected:
  [[nodiscard]] bool shouldDeliver(const AppMessage& m) const override {
    return m.dest.contains(gid());
  }
};

}  // namespace wanmc::amcast
