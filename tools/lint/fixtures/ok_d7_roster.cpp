// scope: src/core/experiment.cpp
// The roster's own files may switch over ProtocolKind: makeNode is the one
// switch that names concrete node classes. Everywhere else a stack's facts
// come from its roster row (core::protocolInfo), which is clean anywhere;
// prose naming `case ProtocolKind::` is fine too -- D7 scans code only.
#include "core/experiment.hpp"

namespace wanmc::core {

const char* fixtureNodeClass(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kA1: return "A1Node";
    case ProtocolKind::kA2: return "A2Node";
    default: return "other";
  }
}

bool fixtureIsBroadcast(ProtocolKind kind) {
  return protocolInfo(kind).broadcast;
}

}  // namespace wanmc::core
