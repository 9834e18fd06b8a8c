// WAN topology: processes partitioned into disjoint groups.
//
// The paper's model (§2.1): Pi = {p1..pn}, Gamma = {g1..gm}, groups disjoint
// and covering Pi. Intra-group links are cheap/fast, inter-group links slow.
// We use a regular topology (every group the same size) by default, which is
// what the paper's Figure 1 accounting assumes (d processes per group), but
// ragged group sizes are supported.
#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/ids.hpp"

namespace wanmc {

class Topology {
 public:
  Topology() = default;

  // Regular topology: `groups` groups of `procsPerGroup` processes each.
  Topology(int groups, int procsPerGroup)
      : Topology(std::vector<int>(static_cast<size_t>(groups),
                                  procsPerGroup)) {}

  // Ragged topology: sizes[g] processes in group g.
  // Throws std::invalid_argument beyond the GroupSet scale ceiling (a
  // 64-bit group bitmask) or on a non-positive group size: a silent
  // wraparound of the mask would corrupt every destination set.
  explicit Topology(const std::vector<int>& sizes) {
    if (sizes.size() > 64) {
      throw std::invalid_argument(
          "Topology: " + std::to_string(sizes.size()) +
          " groups exceeds the GroupSet ceiling of 64 (destination sets "
          "are 64-bit group bitmasks; see ROADMAP scale ceilings)");
    }
    for (size_t g = 0; g < sizes.size(); ++g) {
      if (sizes[g] <= 0) {
        throw std::invalid_argument(
            "Topology: group " + std::to_string(g) + " has size " +
            std::to_string(sizes[g]) + "; every group needs >= 1 process");
      }
    }
    members_.resize(sizes.size());
    for (GroupId g = 0; g < static_cast<GroupId>(sizes.size()); ++g) {
      for (int i = 0; i < sizes[static_cast<size_t>(g)]; ++i) {
        members_[static_cast<size_t>(g)].push_back(
            static_cast<ProcessId>(groupOf_.size()));
        groupOf_.push_back(g);
      }
    }
  }

  [[nodiscard]] int numProcesses() const {
    return static_cast<int>(groupOf_.size());
  }
  [[nodiscard]] int numGroups() const {
    return static_cast<int>(members_.size());
  }
  [[nodiscard]] int groupSize(GroupId g) const {
    return static_cast<int>(members(g).size());
  }
  [[nodiscard]] GroupId group(ProcessId p) const {
    assert(p >= 0 && p < numProcesses());
    return groupOf_[static_cast<size_t>(p)];
  }
  [[nodiscard]] bool sameGroup(ProcessId a, ProcessId b) const {
    return group(a) == group(b);
  }

  // Built once at construction; the reference lives as long as the
  // topology.
  [[nodiscard]] const std::vector<ProcessId>& members(GroupId g) const {
    return members_[static_cast<size_t>(g)];
  }

  // The members of every group in `gs`, by ascending group id. Every
  // multicast's per-copy event order follows this order, so the golden
  // fingerprints pin it.
  [[nodiscard]] std::vector<ProcessId> membersOf(const GroupSet& gs) const {
    size_t n = 0;
    for (GroupId g : gs) n += members(g).size();
    std::vector<ProcessId> out;
    out.reserve(n);
    for (GroupId g : gs) {
      const auto& ms = members(g);
      out.insert(out.end(), ms.begin(), ms.end());
    }
    return out;
  }

  [[nodiscard]] std::vector<ProcessId> allProcesses() const {
    std::vector<ProcessId> out(static_cast<size_t>(numProcesses()));
    std::iota(out.begin(), out.end(), 0);
    return out;
  }

  [[nodiscard]] GroupSet allGroups() const {
    return GroupSet::all(numGroups());
  }

 private:
  std::vector<GroupId> groupOf_;
  std::vector<std::vector<ProcessId>> members_;  // members_[g], ascending
};

// Topology::membersOf, built once per destination set and then kept:
// of(gs) is membersOf(gs) without `except` (a sender passes its own pid).
// Each node or checker owns its own, so the threaded backend needs no
// lock; the topology must outlive it. A run names few destination sets,
// so an ordered map is the cheap lookup.
class MemberLists {
 public:
  explicit MemberLists(const Topology& topo, ProcessId except = kNoProcess)
      : topo_(&topo), except_(except) {}

  // Valid as long as this object.
  [[nodiscard]] const std::vector<ProcessId>& of(GroupSet gs) {
    auto [it, fresh] = lists_.try_emplace(gs.bits());
    if (fresh) {
      it->second = topo_->membersOf(gs);
      std::erase(it->second, except_);
    }
    return it->second;
  }

 private:
  const Topology* topo_;
  ProcessId except_;
  std::map<uint64_t, std::vector<ProcessId>> lists_;  // by GroupSet::bits()
};

}  // namespace wanmc
