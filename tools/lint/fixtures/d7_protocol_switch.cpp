// scope: src/testing/fixture_names.cpp
// A private per-protocol switch outside the roster: a second place that
// decides a stack's name, which drifts from core::kProtocols.
#include "core/experiment.hpp"

namespace wanmc::testing {

const char* fixtureName(core::ProtocolKind kind) {
  using core::ProtocolKind;
  switch (kind) {
    case ProtocolKind::kA1: return "A1";  // expect: D7
    case core::ProtocolKind::kA2: return "A2";  // expect: D7
    default: return "other";
  }
}

}  // namespace wanmc::testing
