#include "rmcast/rmcast.hpp"

#include <algorithm>

namespace wanmc::rmcast {

ReliableMulticast::ReliableMulticast(exec::Context& rt, ProcessId self,
                                     Uniformity uniformity)
    : rt_(rt),
      self_(self),
      uniformity_(uniformity),
      castDests_(rt.topology(), self),
      peers_(castDests_.of(GroupSet::of({rt.topology().group(self)}))) {}

void ReliableMulticast::rmcast(const AppMsgPtr& m) {
  auto payload = std::make_shared<const RmPayload>(m, /*relay=*/false);
  rt_.multicast(self_, castDests_.of(m->dest), payload);
  // The sender itself sees the message immediately (and R-Delivers it at
  // once if it is an addressee).
  sight(m, self_, false);
}

void ReliableMulticast::rmcastOwnGroup(const AppMsgPtr& m) {
  auto payload = std::make_shared<const RmPayload>(m, /*relay=*/false,
                                                   /*own=*/true);
  rt_.multicast(self_, peers_, payload);
  sight(m, self_, true);
}

void ReliableMulticast::onMessage(ProcessId from, const RmPayload& p) {
  sight(p.msg, from, p.ownGroup);
}

std::pair<ReliableMulticast::Seen&, bool> ReliableMulticast::seenOf(
    MsgId id) {
  auto [index, added] = seen_.tryEmplace(id);
  if (added) {
    if (recordCount_ % kChunk == 0)
      records_.push_back(std::make_unique<Seen[]>(kChunk));
    index = recordCount_++;
  }
  return {records_[index / kChunk][index % kChunk], added};
}

void ReliableMulticast::sight(const AppMsgPtr& m, ProcessId copyFrom,
                              bool ownGroup) {
  auto [s, fresh] = seenOf(m->id);
  if (fresh) {
    s.msg = m;
    relay(s, ownGroup);
  }
  if (uniformity_ == Uniformity::kUniform && s.addressee && !s.delivered &&
      copyFrom != self_ && rt_.topology().sameGroup(copyFrom, self_) &&
      std::find(s.copiesFrom.begin(), s.copiesFrom.end(), copyFrom) ==
          s.copiesFrom.end())
    s.copiesFrom.push_back(copyFrom);
  maybeDeliver(s);
}

void ReliableMulticast::relay(Seen& s, bool ownGroup) {
  // Relay to the rest of our own group only (see the header). Uniform
  // integrity: only addressees R-Deliver. (Non-addressees can still see
  // the message, e.g. a sender that multicasts outside its own group.)
  // Our group is a destination exactly when we are an addressee, and then
  // all of it is; an own-group copy reaches only addressees.
  s.addressee =
      ownGroup || s.msg->dest.contains(rt_.topology().group(self_));
  if (s.addressee)
    rt_.multicast(self_, peers_,
                  std::make_shared<const RmPayload>(s.msg, /*relay=*/true,
                                                    ownGroup));
}

void ReliableMulticast::maybeDeliver(Seen& s) {
  if (s.delivered || !s.addressee) return;
  if (uniformity_ == Uniformity::kUniform) {
    const auto groupSize = static_cast<size_t>(
        rt_.topology().groupSize(rt_.topology().group(self_)));
    // Our own sighting counts as one copy.
    if (s.copiesFrom.size() + 1 < groupSize / 2 + 1) return;
    s.copiesFrom = std::vector<ProcessId>();  // nothing reads it any more
  }
  s.delivered = true;
  for (const auto& cb : deliverCbs_) cb(s.msg);
}

}  // namespace wanmc::rmcast
