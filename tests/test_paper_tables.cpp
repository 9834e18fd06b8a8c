// Paper reproduction: the two tables of the paper's Figure 1.
//
// Figure 1a compares atomic multicast algorithms, Figure 1b atomic
// broadcast algorithms, on latency degree Delta and on inter-group message
// count, in the best case (no failures, no suspicion). This test measures
// every cell on the jitter-free WAN preset (0.1 ms intra-group, 100 ms
// inter-group links), prints both tables, asserts the paper's claims about
// them in code, and pins every cell in tests/golden/paper_tables.txt (one
// "key value" line per cell; as in every golden file the value is written
// in hex). Regenerate the file only when a behaviour change is intended and
// reviewed:
//   WANMC_REGEN_GOLDEN=1 ./test_paper_tables
//
// One cell is one fixed-latency run per sender placement:
//   * a multicast Delta is the minimum over a sender in the last destination
//     group and a sender in an extra group outside the destination set (the
//     paper defines an algorithm's Delta as the minimum over its runs);
//   * a broadcast row has a warm-stream Delta (Theorem 5.1's run) and a cold
//     single-cast Delta (Theorem 5.2's run); the row's Delta is the smaller;
//   * a message count is what the casts add to the same run without them.
//     The quiescent stacks send nothing without casts, so for them it is the
//     run's total; [1]'s heartbeats flow either way.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "golden_util.hpp"
#include "testing/scenario.hpp"

namespace wanmc {
namespace {

using core::Experiment;
using core::ProtocolKind;
using core::RunConfig;

// [1] never quiesces, so its runs stop here; every other run drains first.
constexpr SimTime kHorizon = 5 * kSec;
// [1]'s Delta = 1 run needs its heartbeats already flowing when m is cast.
// Fixed latencies make the quiescent stacks time-invariant, so the offset
// moves none of their cells.
constexpr SimTime kCastAt = 300 * kMs;
// Figure 1b's warm stream. [1]'s Delta depends on where casts fall between
// its heartbeat ticks: started at kCastAt, no cast of this stream reaches
// Delta = 1.
constexpr SimTime kStreamStart = 10 * kMs;
constexpr int kStreamCasts = 30;
constexpr SimTime kStreamPeriod = 40 * kMs;

constexpr int kKs[] = {2, 3, 4, 5};  // Figure 1a's Delta sweep, at d = 2
constexpr int kDs[] = {1, 2, 3, 4};  // message sweeps, at k = 3 or m = 2
constexpr int kTableK = 3, kTableM = 2, kTableD = 2;

// Exact best-case inter-group counts at k groups of d. A1, Fritzke98 and
// Skeen87 send m to the (k-1)d addressees outside the sender's group, then
// every addressee sends its group's timestamp (Skeen87: its own vote) to the
// (k-1)d addressees outside its group. The ring sends m to its first group
// (d), hands it on k-1 times (d^2 each), and the last group acknowledges to
// the (k-1)d other addressees (d each).
int timestampExchange(int k, int d) {
  return d * (k - 1) + k * (k - 1) * d * d;
}

struct MulticastStack {
  ProtocolKind kind;
  const char* paperDelta;
  const char* paperMsgs;
  const char* note;
  int (*delta)(int k);        // the paper's Delta at k groups
  int (*msgs)(int k, int d);  // exact best-case count; null: order only
};

const MulticastStack kMulticastStacks[] = {
    {ProtocolKind::kDelporte00, "k+1", "O(kd^2)", "ring",
     [](int k) { return k + 1; },
     [](int k, int d) { return d + 2 * (k - 1) * d * d; }},
    {ProtocolKind::kRodrigues98, "4", "O(k^2 d^2)", "cross-group consensus",
     [](int) { return 4; }, nullptr},
    {ProtocolKind::kFritzke98, "2", "O(k^2 d^2)", "no stage skipping",
     [](int) { return 2; }, timestampExchange},
    {ProtocolKind::kA1, "2", "O(k^2 d^2)", "optimal (Thm 4.1)",
     [](int) { return 2; }, timestampExchange},
    {ProtocolKind::kDetMerge00, "1", "O(kd)",
     "strong model, not genuine; msgs over heartbeats",
     [](int) { return 1; }, nullptr},
    {ProtocolKind::kSkeen87, "2", "O(k^2 d^2)",
     "§1 corollary: failure-free, no consensus", [](int) { return 2; },
     timestampExchange},
};

struct BroadcastStack {
  ProtocolKind kind;
  const char* paperDelta;
  const char* paperMsgs;
  const char* note;
  int delta;  // the paper's Delta
};

const BroadcastStack kBroadcastStacks[] = {
    {ProtocolKind::kSousa02, "2", "O(n)", "non-uniform, final delivery", 2},
    {ProtocolKind::kVicente02, "2", "O(n^2)", "uniform", 2},
    {ProtocolKind::kA2, "1", "O(n^2)", "optimal (Thm 5.1)", 1},
    {ProtocolKind::kDetMerge00, "1", "O(n)",
     "strong model, never quiescent; msgs over heartbeats", 1},
};

// ---------------------------------------------------------------------------
// Runs.
// ---------------------------------------------------------------------------

struct Cast {
  SimTime at;
  ProcessId sender;
  GroupSet dest;
};

RunConfig wanFixed(ProtocolKind kind, int groups, int procs) {
  RunConfig c;
  c.groups = groups;
  c.procsPerGroup = procs;
  c.protocol = kind;
  c.latency = testing::latencyModelFor(testing::LatencyPreset::kWanFixed);
  return c;
}

struct Run {
  int64_t minDelta = -1;  // over the run's casts; -1 without casts
  uint64_t inter = 0;     // TrafficStats::interAlgorithmic()
};

Run run(const RunConfig& cfg, const std::vector<Cast>& casts) {
  Experiment ex(cfg);
  for (const Cast& c : casts) ex.castAt(c.at, c.sender, c.dest, "fig1");
  const core::RunResult r = ex.run(kHorizon);
  const auto violations = r.checkAtomicSuite();
  EXPECT_TRUE(violations.empty())
      << core::protocolName(cfg.protocol) << ": " << violations.front();
  Run out;
  EXPECT_EQ(r.metrics.latencyDegrees.empty(), casts.empty());
  if (!r.metrics.latencyDegrees.empty())
    out.minDelta = r.metrics.latencyDegrees.begin()->first;
  out.inter = r.traffic.interAlgorithmic();
  return out;
}

// Inter-group messages `casts` add to the same run without them.
uint64_t castMessages(const RunConfig& cfg, const std::vector<Cast>& casts) {
  const uint64_t with = run(cfg, casts).inter;
  const uint64_t without = run(cfg, {}).inter;
  EXPECT_GE(with, without) << core::protocolName(cfg.protocol);
  return with - without;
}

GroupSet firstGroups(int k) {
  GroupSet dest;
  for (GroupId g = 0; g < k; ++g) dest.add(g);
  return dest;
}

// ---------------------------------------------------------------------------
// Figure 1a: one multicast to groups 0..k-1 of d processes each.
// ---------------------------------------------------------------------------

struct MulticastRow {
  std::map<int, int64_t> deltaByK;  // at d = kTableD
  std::map<int, uint64_t> msgsByD;  // at k = kTableK
};

// The multicast, sent by the first process of `senderGroup`: k - 1 is the
// last destination group, k an extra group outside the destination set.
std::vector<Cast> multicastFrom(int senderGroup, int k, int d) {
  return {{kCastAt, static_cast<ProcessId>(senderGroup * d), firstGroups(k)}};
}

MulticastRow measureMulticast(ProtocolKind kind) {
  MulticastRow row;
  for (int k : kKs) {
    const int d = kTableD;
    row.deltaByK[k] = std::min(
        run(wanFixed(kind, k, d), multicastFrom(k - 1, k, d)).minDelta,
        run(wanFixed(kind, k + 1, d), multicastFrom(k, k, d)).minDelta);
  }
  for (int d : kDs)
    row.msgsByD[d] = castMessages(wanFixed(kind, kTableK, d),
                                  multicastFrom(kTableK - 1, kTableK, d));
  return row;
}

std::vector<MulticastRow> figure1a() {
  std::vector<MulticastRow> rows;
  for (const MulticastStack& s : kMulticastStacks)
    rows.push_back(measureMulticast(s.kind));
  return rows;
}

// ---------------------------------------------------------------------------
// Figure 1b: broadcasts to m groups of d processes each.
// ---------------------------------------------------------------------------

struct BroadcastRow {
  int64_t warmDelta = -1;           // at m = kTableM, d = kTableD
  int64_t coldDelta = -1;           // likewise
  std::map<int, uint64_t> msgsByD;  // at m = kTableM, over the warm stream
};

std::vector<Cast> warmStream(int m, int d) {
  std::vector<Cast> casts;
  for (int i = 0; i < kStreamCasts; ++i)
    casts.push_back({kStreamStart + i * kStreamPeriod,
                     static_cast<ProcessId>(i % (m * d)), firstGroups(m)});
  return casts;
}

BroadcastRow measureBroadcast(ProtocolKind kind) {
  BroadcastRow row;
  const RunConfig table = wanFixed(kind, kTableM, kTableD);
  const auto last = static_cast<ProcessId>(kTableM * kTableD - 1);
  row.warmDelta = run(table, warmStream(kTableM, kTableD)).minDelta;
  row.coldDelta = run(table, {{kCastAt, last, firstGroups(kTableM)}}).minDelta;
  for (int d : kDs)
    row.msgsByD[d] =
        castMessages(wanFixed(kind, kTableM, d), warmStream(kTableM, d));
  return row;
}

std::vector<BroadcastRow> figure1b() {
  std::vector<BroadcastRow> rows;
  for (const BroadcastStack& s : kBroadcastStacks)
    rows.push_back(measureBroadcast(s.kind));
  return rows;
}

// ---------------------------------------------------------------------------
// Printing and pinning.
// ---------------------------------------------------------------------------

void printFigure1a(const std::vector<MulticastRow>& rows) {
  std::printf("\n=== Figure 1a: atomic multicast to k=%d groups of d=%d ===\n",
              kTableK, kTableD);
  std::printf("%-34s %11s %6s %11s %6s  %s\n", "algorithm", "Delta paper",
              "Delta", "msgs paper", "msgs", "note");
  for (size_t i = 0; i < rows.size(); ++i) {
    const MulticastStack& s = kMulticastStacks[i];
    std::printf("%-34s %11s %6lld %11s %6llu  %s\n",
                core::protocolName(s.kind), s.paperDelta,
                static_cast<long long>(rows[i].deltaByK.at(kTableK)),
                s.paperMsgs,
                static_cast<unsigned long long>(rows[i].msgsByD.at(kTableD)),
                s.note);
  }
  std::printf("\nDelta vs k (d=%d):\n%-34s", kTableD, "algorithm");
  for (int k : kKs) std::printf("  k=%d", k);
  std::printf("\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf("%-34s", core::protocolName(kMulticastStacks[i].kind));
    for (int k : kKs)
      std::printf("  %3lld", static_cast<long long>(rows[i].deltaByK.at(k)));
    std::printf("\n");
  }
  std::printf("\ninter-group msgs vs d (k=%d):\n%-34s", kTableK, "algorithm");
  for (int d : kDs) std::printf("   d=%d", d);
  std::printf("\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf("%-34s", core::protocolName(kMulticastStacks[i].kind));
    for (int d : kDs)
      std::printf("  %4llu",
                  static_cast<unsigned long long>(rows[i].msgsByD.at(d)));
    std::printf("\n");
  }
}

void printFigure1b(const std::vector<BroadcastRow>& rows) {
  std::printf("\n=== Figure 1b: atomic broadcast, m=%d groups of d=%d, "
              "%d-cast warm stream every %lld ms ===\n",
              kTableM, kTableD, kStreamCasts,
              static_cast<long long>(kStreamPeriod / kMs));
  std::printf("%-34s %11s %5s %5s %6s %11s %9s  %s\n", "algorithm",
              "Delta paper", "warm", "cold", "Delta", "msgs paper",
              "msgs/cast", "note");
  for (size_t i = 0; i < rows.size(); ++i) {
    const BroadcastStack& s = kBroadcastStacks[i];
    const BroadcastRow& r = rows[i];
    std::printf("%-34s %11s %5lld %5lld %6lld %11s %9.1f  %s\n",
                core::protocolName(s.kind), s.paperDelta,
                static_cast<long long>(r.warmDelta),
                static_cast<long long>(r.coldDelta),
                static_cast<long long>(std::min(r.warmDelta, r.coldDelta)),
                s.paperMsgs,
                static_cast<double>(r.msgsByD.at(kTableD)) / kStreamCasts,
                s.note);
  }
  std::printf("\ninter-group msgs per cast vs n (m=%d):\n%-34s", kTableM,
              "algorithm");
  for (int d : kDs) std::printf("    n=%d", kTableM * d);
  std::printf("\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf("%-34s", core::protocolName(kBroadcastStacks[i].kind));
    for (int d : kDs)
      std::printf("  %5.1f",
                  static_cast<double>(rows[i].msgsByD.at(d)) / kStreamCasts);
    std::printf("\n");
  }
  std::printf("\n");
}

// Cell key -> value, as pinned in tests/golden/paper_tables.txt. Broadcast
// message cells are totals over the warm stream, not rounded per-cast means.
std::map<std::string, uint64_t> goldenCells(
    const std::vector<MulticastRow>& fig1a,
    const std::vector<BroadcastRow>& fig1b) {
  std::map<std::string, uint64_t> cells;
  for (size_t i = 0; i < fig1a.size(); ++i) {
    const std::string row = std::string("fig1a/") +
        testing::protocolTestName(kMulticastStacks[i].kind);
    for (const auto& [k, delta] : fig1a[i].deltaByK)
      cells[row + "/delta/k=" + std::to_string(k)] =
          static_cast<uint64_t>(delta);
    for (const auto& [d, msgs] : fig1a[i].msgsByD)
      cells[row + "/msgs/d=" + std::to_string(d)] = msgs;
  }
  for (size_t i = 0; i < fig1b.size(); ++i) {
    const std::string row = std::string("fig1b/") +
        testing::protocolTestName(kBroadcastStacks[i].kind);
    cells[row + "/delta-warm"] = static_cast<uint64_t>(fig1b[i].warmDelta);
    cells[row + "/delta-cold"] = static_cast<uint64_t>(fig1b[i].coldDelta);
    for (const auto& [d, msgs] : fig1b[i].msgsByD)
      cells[row + "/msgs/n=" + std::to_string(kTableM * d)] = msgs;
  }
  return cells;
}

// ---------------------------------------------------------------------------
// The paper's claims, and the pinned cells.
// ---------------------------------------------------------------------------

TEST(PaperTables, Figure1aMulticast) {
  const auto rows = figure1a();
  printFigure1a(rows);
  for (size_t i = 0; i < rows.size(); ++i) {
    const MulticastStack& s = kMulticastStacks[i];
    for (int k : kKs)
      EXPECT_EQ(rows[i].deltaByK.at(k), s.delta(k))
          << core::protocolName(s.kind) << " k=" << k;
    if (s.msgs == nullptr) continue;
    for (int d : kDs)
      EXPECT_EQ(rows[i].msgsByD.at(d),
                static_cast<uint64_t>(s.msgs(kTableK, d)))
          << core::protocolName(s.kind) << " d=" << d;
  }
}

TEST(PaperTables, Figure1bBroadcast) {
  const auto rows = figure1b();
  printFigure1b(rows);
  for (size_t i = 0; i < rows.size(); ++i) {
    const BroadcastStack& s = kBroadcastStacks[i];
    EXPECT_EQ(std::min(rows[i].warmDelta, rows[i].coldDelta), s.delta)
        << core::protocolName(s.kind);
    if (s.kind == ProtocolKind::kA2) {
      EXPECT_EQ(rows[i].warmDelta, 1) << "Theorem 5.1";
      EXPECT_EQ(rows[i].coldDelta, 2) << "Theorem 5.2";
    }
  }
}

TEST(PaperTables, EveryCellMatchesGolden) {
  testing::checkOrRegenGolden(
      std::string(WANMC_SOURCE_DIR) + "/tests/golden/paper_tables.txt",
      goldenCells(figure1a(), figure1b()));
}

}  // namespace
}  // namespace wanmc
