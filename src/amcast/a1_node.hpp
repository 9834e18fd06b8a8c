// Algorithm A1 — genuine atomic multicast for WANs (paper §4, Algorithm A1).
//
// Every message m moves through four stages:
//   s0  each destination group runs consensus to fix its timestamp proposal
//       (the proposal is the consensus instance number k = the group clock);
//   s1  groups exchange proposals via (TS, m) messages; the final timestamp
//       is the maximum proposal;
//   s2  groups whose proposal was below the maximum run a second consensus
//       to push their clock past the final timestamp;
//   s3  m is A-Delivered once its (ts, id) is minimal among all pending
//       messages (ADeliveryTest, paper lines 3-7).
//
// A1's contribution over Fritzke et al. [5] is stage skipping:
//   * a message addressed to a single group jumps s0 -> s3 (one consensus);
//   * a group whose proposal equals the final timestamp skips s2 (its clock
//     is already past the final timestamp after line 31).
// [5] is the same code without the skips (A1Variant::kFritzke98), which
// makes A1 vs [5] an apples-to-apples comparison of consensus instances and
// intra-group traffic, the exact savings §4.1/§6 claim.
//
// Latency degree: 2 for messages multicast to >= 2 groups (Theorem 4.1,
// optimal by Prop. 3.1/3.2); 0/1 for single-group messages depending on
// whether the sender belongs to the destination group.
//
// ADeliveryTest bounds each pending entry's final (ts, id) from below:
// s0/s2/s3 entries by their key, as in the paper, and an s1 entry still
// lacking group g's proposal by (max(own proposal, F_g), id). F_g is the
// largest proposal that ends a gap-free prefix of some member q's (TS, ·)
// copies to this group, which q numbers per destination group. It holds
// because q applies g's decisions in instance order and sends (TS, m) as
// it applies the first one holding m (line 24): an m with no copy from q
// yet gets a g-proposal >= F_g, equal only for a later entry of the same
// decision. A hole raises no floor (the paper's rule). A stream holds the
// proposals of the copies past its hole until the hole fills, and is
// abandoned once the hole outlives kReorderWindow later copies. That bound
// is the reliable channel's send window: the channel hands copies up as
// they arrive, but sends nothing holdbackCap or more packets past an
// unacked one, and q's copies to this process are a subsequence of one
// link's packets, so a hole the channel refills is never abandoned.
// Without channels a hole is a copy lost for good, and the bound only caps
// what the stream holds. Only first incarnations take part: a rejoined
// sender installs decisions without sending their (TS, m), so it numbers
// nothing, and a rejoined receiver cannot know which copies its dead
// incarnation got, so it keeps no stream.
//
// The pending table holds one record per message not yet A-Delivered,
// indexed by message id (common/id_table.hpp): its stage and timestamp,
// and, of the proposals exchanged at lines 21-24, which groups' are in and
// the largest, all that lines 33-34 read. A record leaves at A-Delivery or
// when an install finds the message ordered, and a page with it once its
// last id goes. A record may hold proposals before its message: an install
// from a donor in another group brings them without the stage. The table
// carries indexes kept in step by setPending and erasePending: the ids of
// the s0/s2 entries, in id order (the canonical proposal of a new
// instance), and every entry by (ts, id), each s1 entry under the first
// group it lacks (Missing), so ADeliveryTest reads one minimum per group
// instead of scanning. An s1 entry with every proposal in waits in the
// main index from handleDecided's setPending to its checkStage1.
// Decisions are read, shared (common/consensus_value.hpp), from the group
// consensus service's decided table. Every R-Deliver, decided entry and
// (TS, m) copy checks XcastNode's ordered set, the one record of what this
// process has A-Delivered. The (TS, m) fan-out reuses one member list per
// destination set (MemberLists).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "channel/channel.hpp"
#include "common/consensus_value.hpp"
#include "common/id_table.hpp"
#include "core/stack_node.hpp"

namespace wanmc::amcast {

// (TS, m) message of line 24: the sending group's timestamp proposal. It
// also propagates m itself (paper footnote 4): a process that never
// R-Delivered m learns it from the first (TS, m) it receives. seq[i]
// numbers the copy, from 1, among the sender's copies to the i-th group
// of msg->dest.without(fromGroup); 0 is unnumbered. A sender that cannot
// number a copy to a group numbers none to it afterwards.
struct TsPayload final : Payload {
  using Seq = std::array<uint32_t, 4>;
  AppMsgPtr msg;
  uint64_t ts = 0;
  GroupId fromGroup = kNoGroup;
  Seq seq{};

  TsPayload(AppMsgPtr m, uint64_t t, GroupId g, Seq n)
      : msg(std::move(m)), ts(t), fromGroup(g), seq(n) {}
  [[nodiscard]] Layer layer() const override { return Layer::kProtocol; }
  [[nodiscard]] std::string debugString() const override {
    return "TS(m" + std::to_string(msg->id) + "," + std::to_string(ts) +
           ",g" + std::to_string(fromGroup) + ")";
  }
};

// The two stacks this class runs. They differ in two ways that only ever
// change together:
//   kA1        stage skipping (single-group messages jump s0 -> s3, and a
//              group whose own proposal is the maximum skips s2, line 35)
//              over non-uniform reliable multicast;
//   kFritzke98 [5]: no stage skipping, over uniform reliable multicast.
//              Uniformity comes from majority-of-own-group copies via
//              INTRA-group relays ([6]'s domain-based scheme), which keeps
//              the primitive at latency degree 1 and hence [5] at degree 2,
//              exactly as Figure 1a accounts it.
enum class A1Variant { kA1, kFritzke98 };

class A1Node final : public core::XcastNode {
 public:
  A1Node(exec::Context& rt, ProcessId pid, const core::StackConfig& cfg,
         A1Variant variant);

  // A-MCast m to the groups in m->dest (Task 1, lines 8-9).
  void xcast(const AppMsgPtr& m) override;

  // Introspection for tests / benches.
  [[nodiscard]] uint64_t clock() const { return K_; }
  [[nodiscard]] uint64_t consensusInstancesDecided() const {
    return instancesDecided_;
  }
  [[nodiscard]] size_t pendingCount() const {
    size_t n = 0;
    pending_.forEach([&](MsgId, const Pend& p) { n += p.msg ? 1 : 0; });
    return n;
  }
  // Messages with timestamp proposals on record; none once every pending
  // message is A-Delivered.
  [[nodiscard]] size_t stampTableSize() const {
    size_t n = 0;
    pending_.forEach(
        [&](MsgId, const Pend& p) { n += p.stamped.empty() ? 0 : 1; });
    return n;
  }
  // Pages the pending table holds; none once it is empty.
  [[nodiscard]] size_t pendingPages() const { return pending_.pages(); }
  [[nodiscard]] const consensus::ConsensusService& groupConsensus() const {
    return *groupConsensus_;
  }
  // F_g; 0 until a stream from g has a gap-free prefix.
  [[nodiscard]] uint64_t floorOf(GroupId g) const {
    return missing_.at(static_cast<size_t>(g)).floor;
  }
  // Copies held behind a hole, over every stream.
  [[nodiscard]] size_t heldCopies() const {
    size_t n = 0;
    for (const Stream& s : streams_) {
      for (uint64_t k : s.held) n += k != 0 ? 1 : 0;
      for (uint64_t k : s.spill) n += k != 0 ? 1 : 0;
    }
    return n;
  }

  static constexpr size_t kReorderWindow = channel::Config{}.holdbackCap;

 protected:
  void onProtocolMessage(ProcessId from, const PayloadPtr& p) override;

  // Bootstrap snapshot surface (core/stack_node.hpp): group clock and
  // pending table, proposals included (the decisions are in the consensus
  // part).
  [[nodiscard]] std::shared_ptr<bootstrap::ProtocolState>
  snapshotProtocolState() const override;
  void installProtocolState(const bootstrap::Snapshot& s) override;
  void resumeAfterInstall() override;

 private:
  struct Pend {
    AppMsgPtr msg;  // null: proposals only, stage s0, in no index
    uint64_t ts = 0;
    uint64_t maxStamp = 0;  // the largest proposal in `stamped`
    GroupSet stamped;       // groups whose proposal is in, own included
    GroupId filed = kNoGroup;  // s1: the first group it lacks, if any
    Stage stage = Stage::s0;

    void addStamp(GroupId g, uint64_t proposal) {
      stamped.add(g);
      maxStamp = std::max(maxStamp, proposal);
    }
  };

  using Key = std::pair<uint64_t, MsgId>;  // (ts, id)
  using Index = std::set<Key>;

  // The s1 entries filed under group g. One whose own proposal is at most
  // F_g counts as (F_g, id), so `under` keys it (0, id).
  struct Missing {
    uint64_t floor = 0;  // F_g
    Index above;         // (own proposal, id), own proposal > floor
    Index under;
    [[nodiscard]] bool blocks(const Key& k) const;
  };

  // One remote sender's numbered copies to this group.
  struct Stream {
    uint32_t next = 1;  // lowest number not received yet
    bool open = true;   // false once a hole outlived the window
    // Proposals of the copies past the hole, at number % ring size; 0 =
    // absent. The ring is `held` until a copy lands 32 or more past the
    // hole, then `spill`, kReorderWindow rounded up to a power of two.
    // Reordered links move only a few copies past each other, so only a
    // lost copy allocates.
    std::array<uint64_t, 32> held{};
    std::vector<uint64_t> spill{};
  };

  // Donor and rejoiner are the same class, so the blob round-trips as a
  // private nested type; nobody else can see inside it.
  struct BootState final : bootstrap::ProtocolState {
    uint64_t K = 1;
    uint64_t propK = 1;
    std::vector<std::pair<MsgId, Pend>> pending;  // ascending id
    [[nodiscard]] uint64_t approxBytes() const override;
  };

  // Adds or updates a pending entry; the only writers of pending_, so
  // the indexes never drift from it.
  void setPending(MsgId id, const AppMsgPtr& m, Stage stage, uint64_t ts);
  void erasePending(MsgId id);
  // The index an entry sits in, and its key there.
  [[nodiscard]] std::pair<Index*, Key> slotOf(const Pend& p, MsgId id);
  // The lowest remote destination group with no proposal for p.msg yet.
  [[nodiscard]] GroupId firstMissing(const Pend& p) const;

  // Line 24's payload, numbered for each remote destination group.
  [[nodiscard]] PayloadPtr stamp(const AppMsgPtr& m, uint64_t k);
  // Extends the sender's gap-free prefix and raises its group's floor.
  void noteCopy(ProcessId from, const TsPayload& ts);

  // Lines 10-13: first sight of m via R-Deliver or (TS, m).
  void noteMessage(const AppMsgPtr& m);
  // Line 14-17: propose all pending s0/s2 messages to the next instance.
  void tryPropose();
  // Lines 18-32: apply the decided instances from K_ on, in clock order.
  void drainDecisions();
  void handleDecided(consensus::Instance k, const A1EntrySet& entries);
  // Lines 33-40: all remote proposals for a stage-s1 message are in.
  void checkStage1(MsgId id);
  // Lines 3-7.
  void adeliveryTest();

  bool stageSkipping_;  // kA1
  consensus::ConsensusService* groupConsensus_ = nullptr;

  uint64_t K_ = 1;      // this group's clock == next consensus instance
  uint64_t propK_ = 1;  // lowest instance we may still propose to
  IdTable<Pend> pending_;
  Index pendingByTs_;                   // every entry not filed under a group
  std::set<MsgId> proposable_;          // s0/s2 entries
  std::vector<Missing> missing_;        // by group
  std::vector<uint32_t> nextSeq_;       // by group; 0 = numbers none
  std::vector<Stream> streams_;         // by sender; empty once rejoined
  uint64_t instancesDecided_ = 0;
  // The (TS, m) fan-out lists: the members of m.dest minus our group.
  MemberLists tsDests_{topology()};
};

}  // namespace wanmc::amcast
