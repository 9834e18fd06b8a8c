#include "common/consensus_value.hpp"

namespace wanmc {

std::string valueDebugString(const ConsensusValue& v) {
  if (v.empty()) return "<none>";
  if (const auto* es = v.getIf<A1EntrySet>()) {
    std::string out = "a1[";
    for (const auto& e : *es) {
      out += "m" + std::to_string(e.msg->id) + ":" + stageName(e.stage) +
             "@" + std::to_string(e.ts) + " ";
    }
    return out + "]";
  }
  if (const auto* mb = v.getIf<MsgBundle>()) {
    std::string out = "bundle[";
    for (const auto& m : *mb) out += "m" + std::to_string(m->id) + " ";
    return out + "]";
  }
  return "ts:" + std::to_string(v.get<uint64_t>());
}

}  // namespace wanmc
