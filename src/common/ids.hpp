// Basic identifier types shared by every layer of the stack.
//
// The system model follows Schiper & Pedone (PODC'07): a set of processes
// Pi = {p1..pn} partitioned into disjoint groups Gamma = {g1..gm}.
// Processes are identified by a dense integer ProcessId in [0, n); groups by
// a dense GroupId in [0, m). A GroupSet is a bitmask over groups, which keeps
// destination sets of multicast messages cheap to copy and canonical to
// compare.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace wanmc {

using ProcessId = int32_t;
using GroupId = int32_t;
using MsgId = uint64_t;

inline constexpr ProcessId kNoProcess = -1;
inline constexpr GroupId kNoGroup = -1;

// Handle of a timer or harness event on either backend: the Scheduler's
// generation-tagged slot id (src/sim/scheduler.hpp). Zero is never issued
// and serves as "no event".
using EventId = uint64_t;
inline constexpr EventId kNoEvent = 0;

// Destination set of a multicast message: a bitmask over group ids.
// Supports up to 64 groups, far beyond the paper's WAN scenarios.
class GroupSet {
 public:
  constexpr GroupSet() = default;
  explicit constexpr GroupSet(uint64_t bits) : bits_(bits) {}

  static GroupSet single(GroupId g) { return GroupSet(uint64_t{1} << g); }
  static GroupSet of(std::initializer_list<GroupId> gs) {
    GroupSet s;
    for (GroupId g : gs) s.add(g);
    return s;
  }
  static GroupSet all(int num_groups) {
    return num_groups >= 64 ? GroupSet(~uint64_t{0})
                            : GroupSet((uint64_t{1} << num_groups) - 1);
  }

  void add(GroupId g) { bits_ |= uint64_t{1} << g; }
  void remove(GroupId g) { bits_ &= ~(uint64_t{1} << g); }
  [[nodiscard]] bool contains(GroupId g) const {
    return (bits_ >> g) & uint64_t{1};
  }
  [[nodiscard]] int size() const { return __builtin_popcountll(bits_); }
  [[nodiscard]] bool empty() const { return bits_ == 0; }
  [[nodiscard]] uint64_t bits() const { return bits_; }

  // Walks the member groups in ascending order straight off the bitmask:
  // `for (GroupId g : set)` allocates nothing, unlike groups().
  class Iterator {
   public:
    explicit constexpr Iterator(uint64_t bits) : bits_(bits) {}
    constexpr GroupId operator*() const {
      return static_cast<GroupId>(__builtin_ctzll(bits_));
    }
    constexpr Iterator& operator++() {
      bits_ &= bits_ - 1;
      return *this;
    }
    friend bool operator==(const Iterator&, const Iterator&) = default;

   private:
    uint64_t bits_;
  };
  [[nodiscard]] constexpr Iterator begin() const { return Iterator(bits_); }
  [[nodiscard]] constexpr Iterator end() const { return Iterator(0); }

  [[nodiscard]] std::vector<GroupId> groups() const {
    std::vector<GroupId> out;
    for (GroupId g : *this) out.push_back(g);
    return out;
  }

  [[nodiscard]] GroupSet without(GroupId g) const {
    GroupSet s = *this;
    s.remove(g);
    return s;
  }

  friend bool operator==(const GroupSet&, const GroupSet&) = default;

  [[nodiscard]] std::string str() const {
    std::string out = "{";
    bool first = true;
    for (GroupId g : *this) {
      if (!first) out += ",";
      out += "g";  // built by append: avoids a GCC 12 -Wrestrict
      out += std::to_string(g);  // false positive on operator+
      first = false;
    }
    return out + "}";
  }

 private:
  uint64_t bits_ = 0;
};

}  // namespace wanmc
