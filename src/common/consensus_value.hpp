// Values decided by the per-group uniform consensus abstraction.
//
// Algorithm A1 proposes sets of (message, stage, timestamp) entries; A2
// proposes message bundles; the Rodrigues-et-al. baseline proposes a single
// timestamp. ConsensusValue keeps the abstraction strongly typed while the
// consensus implementations stay value-agnostic.
//
// A ConsensusValue is immutable and shared. An entry set or a bundle is
// allocated once, when it is proposed; every payload, estimate, acked value,
// decision and snapshot that carries it afterwards holds the same object,
// so a copy costs a reference count, not a deep copy. Nothing can change a
// value under its holders, which is also what lets a payload's value cross
// threads on the threaded backend. Scalar timestamps are stored inline and
// never allocate.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/message.hpp"

namespace wanmc {

// Stage of a message in Algorithm A1 (paper §4.1). Messages move
// s0 -> s1 -> s2 -> s3, possibly skipping s1/s2 (single-group messages) or
// s2 (groups whose proposal equals the final timestamp).
enum class Stage : uint8_t { s0 = 0, s1 = 1, s2 = 2, s3 = 3 };

[[nodiscard]] constexpr const char* stageName(Stage s) {
  switch (s) {
    case Stage::s0: return "s0";
    case Stage::s1: return "s1";
    case Stage::s2: return "s2";
    case Stage::s3: return "s3";
  }
  return "?";
}

// One entry of an A1 consensus proposal: a message together with the stage
// it was proposed in and its current timestamp. The AppMessage pointer
// travels with the entry so that a process that never R-Delivered m still
// learns m from the decision (paper line 30: "add message or update its
// fields").
struct A1Entry {
  AppMsgPtr msg;
  Stage stage = Stage::s0;
  uint64_t ts = 0;

  friend bool operator==(const A1Entry& a, const A1Entry& b) {
    return a.msg->id == b.msg->id && a.stage == b.stage && a.ts == b.ts;
  }
};

using A1EntrySet = std::vector<A1Entry>;       // canonical: sorted by msg id
using MsgBundle = std::vector<AppMsgPtr>;      // canonical: sorted by msg id

inline void canonicalize(A1EntrySet& s) {
  std::sort(s.begin(), s.end(), [](const A1Entry& a, const A1Entry& b) {
    return a.msg->id < b.msg->id;
  });
}
inline void canonicalize(MsgBundle& s) {
  std::sort(s.begin(), s.end(),
            [](const AppMsgPtr& a, const AppMsgPtr& b) { return a->id < b->id; });
}

inline bool sameBundle(const MsgBundle& a, const MsgBundle& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i]->id != b[i]->id) return false;
  return true;
}

// The value type carried through consensus. A default-constructed value is
// the "no proposal yet" placeholder inside consensus implementations; it is
// never decided.
class ConsensusValue {
 public:
  ConsensusValue() = default;
  ConsensusValue(uint64_t ts)  // NOLINT(google-explicit-constructor)
      : rep_(ts) {}
  ConsensusValue(A1EntrySet entries)  // NOLINT(google-explicit-constructor)
      : rep_(std::make_shared<const A1EntrySet>(std::move(entries))) {}
  ConsensusValue(MsgBundle bundle)  // NOLINT(google-explicit-constructor)
      : rep_(std::make_shared<const MsgBundle>(std::move(bundle))) {}

  // The held A1EntrySet, MsgBundle or uint64_t; null when the value holds
  // another type or none.
  template <class T>
  [[nodiscard]] const T* getIf() const {
    if constexpr (std::is_same_v<T, uint64_t>) {
      return std::get_if<uint64_t>(&rep_);
    } else {
      const auto* p = std::get_if<std::shared_ptr<const T>>(&rep_);
      return p != nullptr ? p->get() : nullptr;
    }
  }
  // Same, but throws std::bad_variant_access when the value holds no T.
  template <class T>
  [[nodiscard]] const T& get() const {
    const T* v = getIf<T>();
    if (v == nullptr) throw std::bad_variant_access();
    return *v;
  }
  [[nodiscard]] bool empty() const {
    return std::holds_alternative<std::monostate>(rep_);
  }

 private:
  std::variant<std::monostate, uint64_t, std::shared_ptr<const A1EntrySet>,
               std::shared_ptr<const MsgBundle>>
      rep_;
};

inline bool valueEquals(const ConsensusValue& a, const ConsensusValue& b) {
  if (const auto* x = a.getIf<A1EntrySet>()) {
    const auto* y = b.getIf<A1EntrySet>();
    return y != nullptr && (x == y || *x == *y);
  }
  if (const auto* x = a.getIf<MsgBundle>()) {
    const auto* y = b.getIf<MsgBundle>();
    return y != nullptr && (x == y || sameBundle(*x, *y));
  }
  if (const auto* x = a.getIf<uint64_t>()) {
    const auto* y = b.getIf<uint64_t>();
    return y != nullptr && *x == *y;
  }
  return b.empty();  // both empty
}

[[nodiscard]] std::string valueDebugString(const ConsensusValue& v);

}  // namespace wanmc
