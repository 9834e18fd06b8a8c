// Partial replication over genuine atomic multicast (Algorithm A1) — the
// application scenario motivating the paper's introduction.
//
// Three data centers (groups), each replicating a subset of a key-value
// store's key ranges:
//     group 0: keys a*      group 1: keys b*      group 2: keys c*
// A write touching one range is A-MCast to one group; a multi-key
// transaction touching two ranges is A-MCast to both groups. Because A1
// orders every pair of messages consistently at their common destinations
// (uniform prefix order), every replica of a range applies the same
// command sequence — without any group that is not concerned ever doing
// work (genuineness).
//
//   $ ./examples/partial_replication
#include <cstdio>
#include <map>
#include <string>

#include "core/experiment.hpp"

using namespace wanmc;

namespace {

// A trivially partial-replicated KV store: applies "put k v" commands.
class KvReplica {
 public:
  explicit KvReplica(ProcessId pid) : pid_(pid) {}

  void apply(const AppMessage& m) {
    // body format: "put <key> <value>"
    const auto s1 = m.body.find(' ');
    const auto s2 = m.body.find(' ', s1 + 1);
    const std::string key = m.body.substr(s1 + 1, s2 - s1 - 1);
    const std::string value = m.body.substr(s2 + 1);
    kv_[key] = value;
    log_ += key + "=" + value + ";";
  }

  [[nodiscard]] const std::string& log() const { return log_; }
  [[nodiscard]] std::string get(const std::string& key) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? "<none>" : it->second;
  }

 private:
  ProcessId pid_;
  std::map<std::string, std::string> kv_;
  std::string log_;
};

GroupId rangeOf(const std::string& key) {
  return static_cast<GroupId>(key[0] - 'a');
}

}  // namespace

int main() {
  core::RunConfig cfg;
  cfg.groups = 3;
  cfg.procsPerGroup = 2;
  cfg.protocol = core::ProtocolKind::kA1;
  cfg.latency = sim::LatencyModel{kMs, 2 * kMs, 95 * kMs, 110 * kMs};
  cfg.seed = 7;
  core::Experiment ex(cfg);

  std::vector<KvReplica> replicas;
  for (ProcessId p = 0; p < 6; ++p) replicas.emplace_back(p);
  for (ProcessId p = 0; p < 6; ++p) {
    ex.node(p).onADeliver([p, &replicas](const AppMsgPtr& m) {
      replicas[static_cast<size_t>(p)].apply(*m);
    });
  }

  // Issue writes: some single-range, some cross-range transactions.
  auto put = [&](SimTime at, ProcessId client, const std::string& key,
                 const std::string& value) {
    ex.castAt(at, client, GroupSet::single(rangeOf(key)),
              "put " + key + " " + value);
  };
  auto multiPut = [&](SimTime at, ProcessId client, const std::string& k1,
                      const std::string& v1) {
    // A cross-range transaction: one command applied at two ranges (e.g. a
    // denormalized secondary index).
    GroupSet dest;
    dest.add(rangeOf(k1));
    dest.add((rangeOf(k1) + 1) % 3);
    ex.castAt(at, client, dest, "put " + k1 + " " + v1);
  };

  std::printf("partial replication: 3 ranges x 2 replicas, A1 genuine "
              "multicast\n\n");
  put(10 * kMs, 0, "alpha", "1");
  put(12 * kMs, 2, "bravo", "2");
  put(14 * kMs, 4, "charlie", "3");
  multiPut(20 * kMs, 1, "apple", "10");    // ranges a+b
  multiPut(22 * kMs, 3, "banana", "20");   // ranges b+c
  put(30 * kMs, 5, "cherry", "30");
  multiPut(40 * kMs, 0, "avocado", "40");  // ranges a+b

  auto r = ex.run();

  std::printf("replica command logs (per range, must match within a "
              "range):\n");
  for (ProcessId p = 0; p < 6; ++p)
    std::printf("  p%d (range %c): %s\n", p,
                static_cast<char>('a' + ex.runtime().topology().group(p)),
                replicas[static_cast<size_t>(p)].log().c_str());

  bool consistent = true;
  for (GroupId g = 0; g < 3; ++g) {
    const auto& members = ex.runtime().topology().members(g);
    for (size_t i = 1; i < members.size(); ++i)
      consistent &= replicas[static_cast<size_t>(members[i])].log() ==
                    replicas[static_cast<size_t>(members[0])].log();
  }
  std::printf("\nintra-range consistency: %s\n",
              consistent ? "OK" : "BROKEN");

  auto violations = r.checkAtomicSuite();
  auto genuine = verify::checkGenuineness(r.checkContext(), r.genuineness);
  std::printf("atomic multicast properties: %s\n",
              violations.empty() ? "OK" : violations[0].c_str());
  std::printf("genuineness (no uninvolved range worked): %s\n",
              genuine.empty() ? "OK" : genuine[0].c_str());
  std::printf("inter-group messages: %llu\n",
              static_cast<unsigned long long>(r.traffic.interAlgorithmic()));
  return (consistent && violations.empty() && genuine.empty()) ? 0 : 1;
}
