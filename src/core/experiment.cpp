#include "core/experiment.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

#include "abcast/a2_node.hpp"
#include "abcast/sequencer_node.hpp"
#include "amcast/a1_node.hpp"
#include "amcast/ring_node.hpp"
#include "amcast/rodrigues_node.hpp"
#include "amcast/skeen_node.hpp"
#include "amcast/viabcast_node.hpp"
#include "common/batch.hpp"
#include "core/batcher.hpp"
#include "exec/threaded/threaded_runtime.hpp"
#include "metrics/recorder.hpp"
#include "workload/generator.hpp"

namespace wanmc::core {

const char* protocolName(ProtocolKind k) {
  switch (k) {
    case ProtocolKind::kA1: return "A1 (this paper)";
    case ProtocolKind::kFritzke98: return "Fritzke et al. 98 [5]";
    case ProtocolKind::kDelporte00: return "Delporte & Fauconnier 00 [4]";
    case ProtocolKind::kRodrigues98: return "Rodrigues et al. 98 [10]";
    case ProtocolKind::kViaBcast: return "non-genuine via A-BCast";
    case ProtocolKind::kSkeen87: return "Skeen 87 [2] (failure-free)";
    case ProtocolKind::kA2: return "A2 (this paper)";
    case ProtocolKind::kSousa02: return "Sousa et al. 02 [12]";
    case ProtocolKind::kVicente02: return "Vicente & Rodrigues 02 [13]";
    case ProtocolKind::kDetMerge00: return "Aguilera & Strom 00 [1]";
  }
  return "?";
}

bool isBroadcastProtocol(ProtocolKind k) {
  switch (k) {
    case ProtocolKind::kA2:
    case ProtocolKind::kSousa02:
    case ProtocolKind::kVicente02:
    case ProtocolKind::kDetMerge00:
      return true;
    default:
      return false;
  }
}

namespace {

std::unique_ptr<XcastNode> makeNode(ProtocolKind kind, exec::Context& rt,
                                    ProcessId pid, const RunConfig& cfg) {
  const StackConfig& stack = cfg.stack;
  switch (kind) {
    case ProtocolKind::kA1:
      return std::make_unique<amcast::A1Node>(rt, pid, stack,
                                              amcast::A1Variant::kA1);
    case ProtocolKind::kFritzke98:
      return std::make_unique<amcast::A1Node>(rt, pid, stack,
                                              amcast::A1Variant::kFritzke98);
    case ProtocolKind::kDelporte00:
      return std::make_unique<amcast::RingNode>(rt, pid, stack);
    case ProtocolKind::kRodrigues98:
      return std::make_unique<amcast::RodriguesNode>(rt, pid, stack);
    case ProtocolKind::kSkeen87:
      return std::make_unique<amcast::SkeenNode>(rt, pid, stack);
    case ProtocolKind::kViaBcast:
      return std::make_unique<amcast::ViaBcastNode>(rt, pid, stack);
    case ProtocolKind::kA2:
      return std::make_unique<abcast::A2Node>(rt, pid, stack);
    case ProtocolKind::kSousa02:
      return std::make_unique<abcast::SequencerNode>(
          rt, pid, stack, abcast::SequencerMode::kOptimisticNonUniform);
    case ProtocolKind::kVicente02:
      return std::make_unique<abcast::SequencerNode>(
          rt, pid, stack, abcast::SequencerMode::kUniformEcho);
    case ProtocolKind::kDetMerge00:
      return std::make_unique<abcast::MergeNode>(rt, pid, stack, cfg.merge);
  }
  return nullptr;
}

// Typed observer feeding capped closed-loop workloads their delivery
// signal (the PR 3 addDeliveryObserver shim used to wrap this; the
// registry is now the only path).
class WorkloadDeliveryObserver final : public sim::RunObserver {
 public:
  explicit WorkloadDeliveryObserver(workload::Generator& gen) : gen_(gen) {}
  void onDeliver(const DeliveryEvent& ev) override { gen_.onDelivered(ev.msg); }

 private:
  workload::Generator& gen_;
};

}  // namespace

void Experiment::validateBackend() const {
  if (cfg_.backend == exec::Backend::kSim) return;
  auto reject = [](const char* what) {
    std::ostringstream os;
    os << "RunConfig: " << what
       << " is a sim-backend feature; the threaded backend measures real "
          "hardware and supports none of the deterministic injection axes";
    throw std::invalid_argument(os.str());
  };
  if (cfg_.stack.reliableChannels) reject("stack.reliableChannels");
  if (cfg_.stack.bootstrap.armed) reject("stack.bootstrap.armed");
  if (cfg_.lossRate != 0) reject("lossRate");
  if (cfg_.workload && cfg_.workload->model == workload::Model::kClosedLoop &&
      cfg_.workload->inFlightCap > 0)
    reject("a capped closed-loop workload (delivery feedback)");
}

Experiment::Experiment(RunConfig cfg) : cfg_(cfg) {
  Topology topo = cfg_.groupSizes.empty()
                      ? Topology(cfg_.groups, cfg_.procsPerGroup)
                      : Topology(cfg_.groupSizes);
  cfg_.groups = topo.numGroups();
  validateBackend();
  if (cfg_.backend == exec::Backend::kSim) {
    rt_ = std::make_unique<sim::Runtime>(topo, cfg_.latency, cfg_.seed);
    ctx_ = rt_.get();
    // Registered before any node or workload so the measurement plane sees
    // every event; the recorder is passive, so run behavior is unchanged.
    // (Threaded runs have no observer registry: RunResult::metrics is
    // replayed from the merged wall-clock trace at harvest.)
    if (cfg_.metrics) {
      recorder_ = std::make_unique<metrics::Recorder>(rt_->topology());
      rt_->addObserver(recorder_.get(),
                       sim::kObserveCasts | sim::kObserveDeliveries);
    }
  } else {
    threaded_ = std::make_unique<exec::ThreadedRuntime>(topo, cfg_.latency,
                                                        cfg_.seed);
    ctx_ = threaded_.get();
  }
  // The bootstrap plane outlives every node incarnation and must exist
  // before the first XcastNode constructor runs (nodes bind to it there).
  if (cfg_.stack.bootstrap.armed) {
    bootstrap_ = std::make_unique<bootstrap::Plane>(*ctx_);
    cfg_.stack.bootstrapPlane = bootstrap_.get();
  }
  for (ProcessId p = 0; p < topo.numProcesses(); ++p) {
    auto node = makeNode(cfg_.protocol, *ctx_, p, cfg_);
    nodes_.push_back(node.get());
    ctx_->attach(p, std::move(node));
  }
  // Recovery rebuilds a crashed process's stack from the same config; the
  // factory also refreshes the experiment's node table so node(pid) always
  // resolves to the live incarnation, and hands the fresh incarnation to
  // the bootstrap plane (which marks it joining and arms the rejoin
  // handshake — the incarnation counter is already bumped here). Recovery
  // is a sim-only axis, so the factory binds to the sim backend.
  if (rt_ != nullptr) {
    rt_->setNodeFactory([this](ProcessId p) -> std::unique_ptr<sim::Node> {
      auto node = makeNode(cfg_.protocol, *ctx_, p, cfg_);
      nodes_[static_cast<size_t>(p)] = node.get();
      if (bootstrap_) bootstrap_->onRecovered(p);
      return node;
    });
  }
  if (cfg_.stack.reliableChannels) {
    channel_ = std::make_unique<channel::Plane>(*ctx_, channel::Config{});
    ctx_->setChannelHook(channel_.get());
  }
  if (cfg_.lossRate != 0) rt_->setLossRate(cfg_.lossRate);  // validates
  if (batchingEnabled()) {
    batcher_ = std::make_unique<BatchPlane>(
        *ctx_, cfg_.stack.batchWindow, cfg_.stack.batchMaxSize,
        [this](ProcessId sender, GroupSet dest,
               std::vector<AppMsgPtr> casts) {
          // Carrier ids come from the same allocator as cast ids so the
          // two can never collide.
          const MsgId cid = nextMsgId_++;
          AppMsgPtr carrier = makeCarrier(cid, sender, dest, std::move(casts));
          // The window expires on the harness side (the sim scheduler / the
          // threaded driver's); the xcast itself must run where the sender's
          // protocol state lives. post() is an immediate call on the sim
          // backend and a ring crossing on the threaded one.
          XcastNode* n = &node(sender);
          ctx_->post(sender, [n, carrier]() { n->xcast(carrier); });
        });
  }
  if (cfg_.workload) addWorkload(*cfg_.workload);
}

Experiment::~Experiment() = default;

XcastNode& Experiment::node(ProcessId pid) {
  return *nodes_.at(static_cast<size_t>(pid));
}

void Experiment::validateCast(ProcessId sender, const GroupSet& dest) const {
  const Topology& topo = ctx_->topology();
  if (sender < 0 || sender >= topo.numProcesses()) {
    std::ostringstream os;
    os << "castAt: sender pid " << sender << " out of range [0, "
       << topo.numProcesses() << ")";
    throw std::invalid_argument(os.str());
  }
  if (dest.empty())
    throw std::invalid_argument("castAt: empty destination group set");
  if (topo.numGroups() < 64 &&
      (dest.bits() >> topo.numGroups()) != 0) {
    std::ostringstream os;
    os << "castAt: destination set " << dest.str() << " addresses groups "
       << "beyond the topology's " << topo.numGroups();
    throw std::invalid_argument(os.str());
  }
  // DetMerge00's multicast mode legitimately delivers at addressees only;
  // every other broadcast protocol requires the full group set.
  const bool multicastCapable =
      !isBroadcastProtocol(cfg_.protocol) ||
      (cfg_.protocol == ProtocolKind::kDetMerge00 && cfg_.merge.multicastMode);
  if (!multicastCapable && dest != topo.allGroups()) {
    std::ostringstream os;
    os << "castAt: " << protocolName(cfg_.protocol)
       << " is a broadcast protocol and delivers to every group — pass the "
       << "full group set (or use castAllAt)";
    throw std::invalid_argument(os.str());
  }
}

MsgId Experiment::castAt(SimTime when, ProcessId sender, GroupSet dest,
                         std::string body) {
  validateCast(sender, dest);
  const MsgId id = nextMsgId_++;
  auto msg = makeAppMessage(id, sender, dest, std::move(body));
  // A harness event (Context::harnessAt), not an incarnation-bound
  // Context::timer: a cast is harness input, not protocol state of the
  // incarnation that scheduled it. It fires iff the sender is alive AT
  // CAST TIME — a crashed sender casts nothing (as before), a
  // crash-recovered one casts again (same rule as issueWorkloadCast).
  ctx_->harnessAt(when, [this, sender, msg]() {
    if (!ctx_->crashed(sender)) dispatchCast(sender, msg);
  });
  return id;
}

MsgId Experiment::issueWorkloadCast(ProcessId sender, GroupSet dest,
                                    std::string body) {
  const MsgId id = nextMsgId_++;
  if (!ctx_->crashed(sender))
    dispatchCast(sender, makeAppMessage(id, sender, dest, std::move(body)));
  return id;
}

void Experiment::dispatchCast(ProcessId sender, const AppMsgPtr& m) {
  // Every addressee of the cast owes exactly one A-Deliver: the threaded
  // backend's run loop terminates on this ledger (the sim backend
  // terminates on scheduler quiescence and ignores it).
  for (uint64_t b = m->dest.bits(); b != 0; b &= b - 1)
    expectedDeliveries_ += static_cast<uint64_t>(ctx_->topology().groupSize(
        static_cast<GroupId>(__builtin_ctzll(b))));
  if (batcher_ == nullptr) {
    // The stack records the cast itself. Posted to the sender's execution
    // context: an immediate inline call on the sim backend (byte-identical
    // to the historical direct call), an enqueued command on the sender's
    // own thread on the threaded backend.
    XcastNode* n = &node(sender);
    ctx_->post(sender, [n, m]() { n->xcast(m); });
    return;
  }
  // Batched: the cast becomes observable NOW — the window wait is real
  // latency and must show in the measured numbers — while the stack only
  // sees the carrier at flush time (which skips recording, see
  // XcastNode::recordXcast).
  ctx_->recordCast(sender, m);
  batcher_->enqueue(sender, m);
}

workload::Generator& Experiment::addWorkload(workload::Spec spec) {
  // Generated senders/destinations are valid by construction; replayed
  // trace entries are user input and validated up front.
  if (spec.model == workload::Model::kTraceReplay) {
    // Validate the effective destination the generator will issue: empty
    // means "all groups", and broadcast protocols always get the full set.
    const bool broadcast = isBroadcastProtocol(cfg_.protocol);
    for (const workload::TraceCast& c : spec.trace)
      validateCast(c.sender, (c.dest.empty() || broadcast)
                                 ? ctx_->topology().allGroups()
                                 : c.dest);
  }
  auto gen = std::make_unique<workload::Generator>(*this, std::move(spec));
  workload::Generator* raw = gen.get();
  workloads_.push_back(std::move(gen));
  if (raw->spec().model == workload::Model::kClosedLoop &&
      raw->spec().inFlightCap > 0) {
    // Capped closed loops need delivery feedback: a typed observer on the
    // sim registry (sim/observer.hpp), owned by the experiment. Rejected
    // on the threaded backend by validateBackend.
    assert(rt_ != nullptr);
    workloadObservers_.push_back(
        std::make_unique<WorkloadDeliveryObserver>(*raw));
    rt_->addObserver(workloadObservers_.back().get(),
                     sim::kObserveDeliveries);
  }
  raw->install();
  return *raw;
}

std::vector<MsgId> Experiment::workloadIds() const {
  std::vector<MsgId> ids;
  for (const auto& g : workloads_)
    ids.insert(ids.end(), g->issued().begin(), g->issued().end());
  return ids;
}

MsgId Experiment::castAllAt(SimTime when, ProcessId sender,
                            std::string body) {
  return castAt(when, sender, ctx_->topology().allGroups(), std::move(body));
}

void Experiment::checkPid(ProcessId pid, const char* what) const {
  const Topology& topo = ctx_->topology();
  if (pid < 0 || pid >= topo.numProcesses()) {
    std::ostringstream os;
    os << what << ": pid " << pid << " out of range [0, "
       << topo.numProcesses() << ")";
    throw std::invalid_argument(os.str());
  }
}

void Experiment::crashAt(ProcessId pid, SimTime when) {
  checkPid(pid, "crashAt");
  runtime().scheduleCrash(pid, when);
}

void Experiment::recoverAt(ProcessId pid, SimTime when) {
  checkPid(pid, "recoverAt");
  runtime().scheduleRecover(pid, when);
}

sim::Runtime::PartitionId Experiment::partitionAt(GroupSet side,
                                                  SimTime from,
                                                  SimTime until) {
  return runtime().partition(side, from, until);
}

RunResult Experiment::run(SimTime until) {
  if (rt_ != nullptr) {
    if (!started_) {
      started_ = true;
      rt_->start();
    }
    rt_->run(until);
    return harvest();
  }
  // Threaded: `until` is a REAL-time budget (µs of wall clock), a safety
  // net rather than a duration — the run ends as soon as the delivery
  // ledger closes: every harness event fired and every addressee of every
  // dispatched cast has recorded its A-Deliver. One-shot: the threads are
  // joined and the traces merged at stop; a second run() just re-harvests.
  if (!started_) {
    started_ = true;
    threaded_->start();
    threaded_->run(until, [this]() {
      return threaded_->pendingHarnessEvents() == 0 &&
             threaded_->deliveredCount() >= expectedDeliveries_;
    });
    threaded_->stop();
  }
  return harvest();
}

RunResult Experiment::harvest() const {
  const exec::Context& ctx = *ctx_;
  RunResult r;
  r.topo = ctx.topology();
  r.trace = ctx.trace();
  r.traffic = ctx.traffic();
  r.lastAlgoSend = ctx.lastAlgorithmicSend();
  r.endTime = ctx.now();  // read once: the threaded clock keeps running
  if (recorder_) {
    // The recorder sees casts and deliveries only: inject what the trace
    // does not hold, exactly as summarizeTrace does.
    r.metrics = recorder_->summary(r.endTime);
    r.metrics.traffic = r.traffic;
    r.metrics.lastAlgoSendAt = r.lastAlgoSend;
    r.metrics.faults = faultStatsOf(r.trace);
  } else {
    r.metrics = metrics::summarizeTrace(r.trace, r.topo, r.traffic,
                                        r.lastAlgoSend, r.endTime);
  }
  // The channel and bootstrap planes' counters are not reconstructible
  // from the trace either.
  if (channel_) r.metrics.channels = channel_->stats();
  if (bootstrap_) {
    r.metrics.bootstrap = bootstrap_->stats();
    for (const auto& rj : bootstrap_->rejoins()) {
      RunResult::RejoinResult rr;
      rr.pid = rj.pid;
      rr.installedAt = rj.installedAt;
      rr.suffixReplayed = rj.suffixReplayed;
      for (const auto& rec : ctx.trace().recoveries)
        if (rec.process == rj.pid && rec.when <= rj.installedAt)
          rr.recoveredAt = rec.when;
      for (const auto& d : ctx.trace().deliveries) {
        if (d.process != rj.pid || d.when <= rj.installedAt) continue;
        rr.firstDeliveryAfter = d.when;
        break;
      }
      r.rejoins.push_back(rr);
    }
  }
  for (const auto& rec : ctx.trace().recoveries)
    r.recovered.insert(rec.process);
  for (ProcessId p : ctx.topology().allProcesses()) {
    if (!ctx.everCrashed(p)) r.correct.insert(p);
    if (ctx.everSentAlgorithmic(p)) r.genuineness.sentAlgorithmic.insert(p);
    if (ctx.everReceivedAlgorithmic(p))
      r.genuineness.receivedAlgorithmic.insert(p);
  }
  return r;
}

}  // namespace wanmc::core
