// Baseline: Aguilera & Strom, "Efficient atomic broadcast using
// deterministic merge" (PODC 2000) — the paper's reference [1].
//
// Strong model (the paper's footnotes 5/6): links are reliable, publishers
// do not crash and cast infinitely many messages. Every process is both a
// publisher and a subscriber. A publisher stamps each message from a local
// monotone clock (here: a heartbeat tick) and sends it directly to the
// subscribers; when idle it emits timestamped heartbeats. A subscriber
// buffers per-publisher streams (re-sequenced by a per-publisher event
// counter, so non-FIFO links are fine) and delivers messages in global
// (timestamp, publisher, seq) order once every publisher's stream frontier
// has passed the timestamp — the same deterministic merge at every process,
// hence total order with NO agreement protocol at all.
//
// Latency degree 1 (one inter-group delay, matching Figure 1's row for [1])
// provided the heartbeat period is at least the inter-group delay; the
// wall-clock merge delay grows with the heartbeat period — exactly the
// rate-vs-delay tradeoff [1] studies. The algorithm is never quiescent and,
// used as a multicast (a cast to some of the groups: every event is still
// sent to and merged at every process, and XcastNode::adeliver delivers
// data at addressees only), it is not genuine — which is why it evades the
// paper's lower bounds (different model, see §6).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/stack_node.hpp"

namespace wanmc::abcast {

struct MergePayload final : Payload {
  bool isHeartbeat = true;
  AppMsgPtr msg;       // null for heartbeats
  uint64_t eventTs = 0;
  uint64_t seq = 0;    // per-publisher event counter (re-sequencing)

  MergePayload(bool hb, AppMsgPtr m, uint64_t ts, uint64_t s)
      : isHeartbeat(hb), msg(std::move(m)), eventTs(ts), seq(s) {}
  [[nodiscard]] Layer layer() const override { return Layer::kProtocol; }
};

struct MergeOptions {
  SimTime heartbeatPeriod = 200 * kMs;  // >= max inter-group delay => deg. 1
};

class MergeNode final : public core::XcastNode {
 public:
  MergeNode(exec::Context& rt, ProcessId pid, const core::StackConfig& cfg,
            MergeOptions opts = {});

  void xcast(const AppMsgPtr& m) override;
  void startProtocol() override;

 protected:
  void onProtocolMessage(ProcessId from, const PayloadPtr& p) override;

  // Bootstrap snapshot surface. The critical carry-over is the publisher
  // counter: the rejoiner resumes publishing at the seq its dead
  // incarnation reached (as observed by the donor), so subscribers'
  // re-sequencers accept the new stream as the continuation of the old.
  [[nodiscard]] std::shared_ptr<bootstrap::ProtocolState>
  snapshotProtocolState() const override;
  void installProtocolState(const bootstrap::Snapshot& s) override;
  void resumeAfterInstall() override;

 private:
  struct Stream {
    uint64_t nextSeq = 0;      // next contiguous event expected
    uint64_t frontierTs = 0;   // eventTs of the last contiguous event
    // Out-of-order holding area. The hot path (in-order arrival, which is
    // every arrival when the publish period exceeds the link jitter) never
    // touches it.
    std::map<uint64_t, std::shared_ptr<const MergePayload>> buffered;
  };

  struct BootState final : bootstrap::ProtocolState {
    std::vector<Stream> streams;
    std::map<std::tuple<uint64_t, ProcessId, uint64_t>, AppMsgPtr> mergeBuf;
    [[nodiscard]] uint64_t approxBytes() const override;
  };

  void tick();
  // Publish one event (data or heartbeat) from this process's stream.
  void publish(bool heartbeat, const AppMsgPtr& msg);
  // `p` must hold a MergePayload. The in-order fast path reads it by
  // reference without copying the shared_ptr (no refcount traffic); only
  // the out-of-order slow path retains a reference.
  void advanceStream(ProcessId pub, const PayloadPtr& p);
  void applyEvent(ProcessId pub, Stream& s, const MergePayload& ev);
  void tryDeliver();
  [[nodiscard]] std::shared_ptr<const MergePayload> makeEvent(
      bool heartbeat, AppMsgPtr msg, uint64_t ts);
  [[nodiscard]] uint64_t nowTick() const {
    return static_cast<uint64_t>(now() / opts_.heartbeatPeriod) + 1;
  }

  MergeOptions opts_;
  SimTime lastSentAt_ = -1;   // last publish instant (idle-only heartbeats)
  uint64_t pubSeq_ = 0;       // my event counter
  std::vector<ProcessId> others_;  // every process but self, cached
  std::vector<Stream> streams_;    // dense, indexed by publisher pid
  // Merge buffer: (eventTs, publisher, seq) -> message.
  std::map<std::tuple<uint64_t, ProcessId, uint64_t>, AppMsgPtr> mergeBuf_;
  // Casts issued while joining: publishing them with a pre-handoff seq
  // would collide with the dead incarnation's stream at every subscriber,
  // so they wait for the install and publish with continued seqs.
  std::vector<AppMsgPtr> deferredCasts_;
};

}  // namespace wanmc::abcast
