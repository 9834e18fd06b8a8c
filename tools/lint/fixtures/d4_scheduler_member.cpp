// scope: src/testing/d4_scheduler_member.cpp
// A raw registration on a Scheduler member that is neither spelled
// `sched_` nor reached through scheduler(): a per-thread timer queue and a
// driver queue, as a backend keeps them, here in harness code (which may
// name the sim Scheduler, D6). Outside the backends' own directories such
// a callback fires even if its process crashed or reincarnated, whatever
// the member is called. `.at(` on other types (a vector) is not a
// registration.
// expect: D4
#include <vector>

namespace wanmc::sim {
class Scheduler {
 public:
  template <class F>
  unsigned long at(long when, F&& fn);
};
}  // namespace wanmc::sim

namespace fixture {

struct PerThread {
  wanmc::sim::Scheduler timers;
  std::vector<int> slots;
};

struct Host {
  std::vector<PerThread> per_;
  wanmc::sim::Scheduler driverQueue_;

  void arm(int pid, long when) {
    per_[pid].slots.at(0) = 1;                 // not a registration
    per_[pid].timers.at(when, [this, pid] {    // D4: unguarded
      arm(pid, 0);
    });
    driverQueue_.at(when, [] {});              // D4: unguarded
  }
};

}  // namespace fixture
