// scope: src/exec/threaded/ok_d4_backend_scope.cpp
// The same registrations inside a backend's own directory: both backends
// arm every process timer through exec::Context's TimerGuard (the
// Context::timer template wraps the callable before the backend queues
// it), and their harness queues are unguarded by contract. D4 exempts
// src/sim/ and src/exec/ by scope, so it stays quiet here.
#include <vector>

namespace wanmc::sim {
class Scheduler {
 public:
  template <class F>
  unsigned long at(long when, F&& fn);
};
}  // namespace wanmc::sim

namespace fixture {

struct TimerGuard {
  void operator()() {}
};

struct PerThread {
  wanmc::sim::Scheduler sched;
};

struct Host {
  std::vector<PerThread> per_;
  wanmc::sim::Scheduler driverSched_;

  unsigned long scheduleTimer(int pid, long when, TimerGuard guard) {
    return per_[pid].sched.at(when, guard);
  }
  unsigned long harnessAt(long when) { return driverSched_.at(when, [] {}); }
};

}  // namespace fixture
