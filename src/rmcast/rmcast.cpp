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

ReliableMulticast::ReliableMulticast(exec::Context& rt, ProcessId self,
                                     Uniformity uniformity)
    : rt_(rt),
      self_(self),
      uniformity_(uniformity),
      castDests_(rt.topology(), self),
      peers_(allBut(rt.topology().members(rt.topology().group(self)), self)) {}

void ReliableMulticast::rmcast(const AppMsgPtr& m) {
  auto payload = std::make_shared<const RmPayload>(m, /*relay=*/false);
  rt_.multicast(self_, castDests_.of(m->dest), payload);
  // The sender itself sees the message immediately (and R-Delivers it at
  // once if it is an addressee).
  sight(m, self_, nullptr);
}

void ReliableMulticast::rmcastTo(const AppMsgPtr& m,
                                 const std::vector<ProcessId>& dests) {
  auto payload = std::make_shared<const RmPayload>(m, /*relay=*/false, dests);
  rt_.multicast(self_, allBut(dests, self_), payload);
  sight(m, self_, &dests);
}

void ReliableMulticast::onMessage(ProcessId from, const RmPayload& p) {
  sight(p.msg, from, p.explicitDests.empty() ? nullptr : &p.explicitDests);
}

void ReliableMulticast::sight(const AppMsgPtr& m, ProcessId copyFrom,
                              const std::vector<ProcessId>* explicitDests) {
  auto [it, fresh] = seen_.try_emplace(m->id);
  Seen& s = it->second;
  if (fresh) {
    s.msg = m;
    relay(s, explicitDests);
  }
  if (uniformity_ == Uniformity::kUniform &&
      rt_.topology().sameGroup(copyFrom, self_))
    s.copiesFrom.insert(copyFrom);
  maybeDeliver(s);
}

void ReliableMulticast::relay(Seen& s,
                              const std::vector<ProcessId>* explicitDests) {
  // Relay to the rest of our own group only (see the header). Uniform
  // integrity: only addressees R-Deliver. (Non-addressees can still see
  // the message, e.g. a sender that multicasts outside its own group.)
  if (explicitDests == nullptr) {
    // Our group is a destination exactly when we are an addressee, and
    // then all of it is.
    s.addressee = s.msg->dest.contains(rt_.topology().group(self_));
    if (s.addressee)
      rt_.multicast(self_, peers_,
                    std::make_shared<const RmPayload>(s.msg, /*relay=*/true));
    return;
  }
  const std::vector<ProcessId>& dests = *explicitDests;
  s.addressee = std::find(dests.begin(), dests.end(), self_) != dests.end();
  const Topology& topo = rt_.topology();
  std::vector<ProcessId> peers;
  peers.reserve(dests.size());
  for (ProcessId q : dests)
    if (q != self_ && topo.sameGroup(q, self_)) peers.push_back(q);
  rt_.multicast(self_, peers,
                std::make_shared<const RmPayload>(s.msg, /*relay=*/true,
                                                  dests));
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
