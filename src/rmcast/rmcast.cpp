#include "rmcast/rmcast.hpp"

#include <algorithm>

namespace wanmc::rmcast {

namespace {

std::vector<ProcessId> allBut(const std::vector<ProcessId>& v,
                              ProcessId self) {
  std::vector<ProcessId> out;
  out.reserve(v.size());
  for (ProcessId q : v)
    if (q != self) out.push_back(q);
  return out;
}

}  // namespace

void ReliableMulticast::rmcast(const AppMsgPtr& m) {
  auto dests = rt_.topology().membersOf(m->dest);
  auto payload = std::make_shared<const RmPayload>(m, /*relay=*/false);
  rt_.multicast(self_, allBut(dests, self_), payload);
  // The sender itself sees the message immediately (and R-Delivers it at
  // once if it is an addressee).
  sight(m, self_, /*explicitScope=*/false, [&] { return std::move(dests); });
}

void ReliableMulticast::rmcastTo(const AppMsgPtr& m,
                                 const std::vector<ProcessId>& dests) {
  auto payload = std::make_shared<const RmPayload>(m, /*relay=*/false, dests);
  rt_.multicast(self_, allBut(dests, self_), payload);
  sight(m, self_, /*explicitScope=*/true, [&] { return dests; });
}

void ReliableMulticast::onMessage(ProcessId from, const RmPayload& p) {
  if (p.explicitDests.empty()) {
    sight(p.msg, from, /*explicitScope=*/false,
          [&] { return rt_.topology().membersOf(p.msg->dest); });
  } else {
    sight(p.msg, from, /*explicitScope=*/true,
          [&] { return p.explicitDests; });
  }
}

template <class ResolveDests>
void ReliableMulticast::sight(const AppMsgPtr& m, ProcessId copyFrom,
                              bool explicitScope,
                              ResolveDests&& resolveDests) {
  auto [it, fresh] = seen_.try_emplace(m->id);
  Seen& s = it->second;
  if (fresh) {
    s.msg = m;
    relay(s, resolveDests(), explicitScope);
  }
  if (uniformity_ == Uniformity::kUniform &&
      rt_.topology().sameGroup(copyFrom, self_))
    s.copiesFrom.insert(copyFrom);
  maybeDeliver(s);
}

void ReliableMulticast::relay(Seen& s, std::vector<ProcessId> dests,
                              bool explicitScope) {
  const Topology& topo = rt_.topology();
  const GroupId myGroup = topo.group(self_);
  // Uniform integrity: only addressees R-Deliver. (Non-addressees can still
  // see the message, e.g. a sender that multicasts outside its own group.)
  s.addressee = explicitScope
                    ? std::find(dests.begin(), dests.end(), self_) !=
                          dests.end()
                    : s.msg->dest.contains(myGroup);
  auto payload = std::make_shared<const RmPayload>(
      s.msg, /*relay=*/true,
      explicitScope ? dests : std::vector<ProcessId>{});
  // Relay to the rest of our own group only (see the header).
  std::erase_if(dests, [&](ProcessId q) {
    return q == self_ || topo.group(q) != myGroup;
  });
  rt_.multicast(self_, dests, payload);
}

void ReliableMulticast::maybeDeliver(Seen& s) {
  if (s.delivered || !s.addressee) return;
  if (uniformity_ == Uniformity::kUniform) {
    const auto groupSize = static_cast<size_t>(
        rt_.topology().groupSize(rt_.topology().group(self_)));
    // Our own sighting counts as one copy.
    const size_t copies =
        s.copiesFrom.size() + (s.copiesFrom.count(self_) == 0 ? 1 : 0);
    if (copies < groupSize / 2 + 1) return;
  }
  s.delivered = true;
  for (const auto& cb : deliverCbs_) cb(s.msg);
}

}  // namespace wanmc::rmcast
