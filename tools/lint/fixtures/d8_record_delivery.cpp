// scope: src/amcast/fixture_node.cpp
// A stack that records its own A-Deliver event: it skips XcastNode's
// ordered set and addressee rule, so a second delivery or one at a
// non-addressee goes unchecked.
#include "core/stack_node.hpp"

namespace wanmc::amcast {

void FixtureNode::deliverNow(const AppMsgPtr& m) {
  runtime().recordDelivery(pid(), m->id);  // expect: D8
}

}  // namespace wanmc::amcast
