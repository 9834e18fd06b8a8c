// scope: src/core/stack_node.hpp
// XcastNode's header is the one place that records an A-Deliver event:
// adeliver adds the id to the ordered set and delivers at addressees only.
// A stack calls adeliver(m); prose naming recordDelivery( is fine too --
// D8 scans code only.
#include "exec/context.hpp"

namespace wanmc::core {

void XcastNode::deliverOne(const AppMsgPtr& m) {
  runtime().recordDelivery(pid(), m->id);
}

}  // namespace wanmc::core
