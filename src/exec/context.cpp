#include "exec/context.hpp"

#include <sstream>
#include <stdexcept>
#include <string>

namespace wanmc::exec {

void LatencyModel::validate() const {
  auto bad = [](const char* what, SimTime lo, SimTime hi) {
    std::ostringstream os;
    os << "LatencyModel: " << what << " range [" << lo << ", " << hi
       << "]us is invalid (bounds must be non-negative and min <= max)";
    throw std::invalid_argument(os.str());
  };
  if (intraMin < 0 || intraMax < 0 || intraMin > intraMax)
    bad("intra-group", intraMin, intraMax);
  if (interMin < 0 || interMax < 0 || interMin > interMax)
    bad("inter-group", interMin, interMax);
}

Context::Context(Topology topo, LatencyModel latency, bool threadSafeArena)
    : topo_(std::move(topo)),
      latency_(latency),
      draw_(latency_),
      arena_(threadSafeArena),
      procs_(static_cast<size_t>(topo_.numProcesses())) {
  latency_.validate();
}

Context::~Context() = default;

void Context::attach(ProcessId pid, std::unique_ptr<Process> node) {
  assert(pid >= 0 && pid < topo_.numProcesses());
  at(pid).node = std::move(node);
}

void Context::requireNodes(const char* who) const {
  for (ProcessId p = 0; p < topo_.numProcesses(); ++p)
    if (at(p).node == nullptr)
      throw std::logic_error(std::string(who) + ": process " +
                             std::to_string(p) + " has no attached node");
}

TrafficStats Context::traffic() const {
  TrafficStats sum;
  for (const ProcState& s : procs_) sum += s.traffic;
  return sum;
}

SimTime Context::lastAlgorithmicSend() const {
  SimTime last = -1;
  for (const ProcState& s : procs_) last = std::max(last, s.lastAlgoSend);
  return last;
}

void Context::purgeListeners(ProcessId pid) {
  const uint32_t live = incarnation(pid);
  const auto dead = [pid, live](const OwnedListener& l) {
    return l.owner == pid && l.inc != live;
  };
  std::erase_if(crashListeners_, dead);
  std::erase_if(recoveryListeners_, dead);
}

void Context::dispatch(const std::vector<OwnedListener>& listeners,
                       ProcessId subject) {
  // Indexed loop + per-entry copy: a callback may register further
  // listeners while we iterate, reallocating the vector under us.
  for (size_t i = 0; i < listeners.size(); ++i) {
    OwnedListener l = listeners[i];
    if (incarnation(l.owner) == l.inc) l.fn(subject);
  }
}

}  // namespace wanmc::exec
