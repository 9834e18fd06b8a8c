#include "fd/failure_detector.hpp"

namespace wanmc::fd {

std::unique_ptr<FailureDetector> makeFd(FdKind kind, exec::Context& rt,
                                        ProcessId self,
                                        std::vector<ProcessId> scope,
                                        SimTime oracleDelay,
                                        HeartbeatFd::Params hb) {
  switch (kind) {
    case FdKind::kOracle:
      return std::make_unique<OracleFd>(rt, self, oracleDelay);
    case FdKind::kHeartbeat:
      return std::make_unique<HeartbeatFd>(rt, self, std::move(scope), hb);
  }
  return nullptr;
}

}  // namespace wanmc::fd
