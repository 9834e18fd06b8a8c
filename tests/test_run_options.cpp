// core::RunOptions, the knob set that both wanmc_cli modes and
// bench_calibration parse and validate their flags through: validate()
// rejects each out-of-range knob, consumeFlag() consumes every shared flag
// and leaves the rest to its caller, and serialize() writes the line
// bench_calibration records with its artifact.
#include <gtest/gtest.h>

#include <deque>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>

#include "core/run_options.hpp"

namespace wanmc {
namespace {

using core::ProtocolKind;
using core::RunOptions;

void expectRejected(const std::function<void(RunOptions&)>& edit,
                    const char* what) {
  RunOptions o;
  edit(o);
  EXPECT_THROW(o.validate(), std::invalid_argument) << what;
}

TEST(RunOptions, ValidateRejectsEachOutOfRangeKnob) {
  EXPECT_NO_THROW(RunOptions{}.validate());

  expectRejected([](RunOptions& o) { o.groups = 0; }, "zero groups");
  expectRejected([](RunOptions& o) { o.procsPerGroup = -1; },
                 "negative procs");
  expectRejected([](RunOptions& o) { o.destGroups = 0; }, "dest-groups 0");
  expectRejected(
      [](RunOptions& o) {
        o.groups = 3;
        o.destGroups = 4;
      },
      "dest-groups above groups");
  expectRejected([](RunOptions& o) { o.lossRate = -0.1; }, "negative loss");
  expectRejected([](RunOptions& o) { o.lossRate = 1.0; }, "loss of 1");
  expectRejected([](RunOptions& o) { o.batchWindow = -1; },
                 "negative batch window");
  expectRejected([](RunOptions& o) { o.batchMaxSize = -1; },
                 "negative batch max");
  expectRejected(
      [](RunOptions& o) {
        o.latency.interMin = 100 * kMs;
        o.latency.interMax = 50 * kMs;
      },
      "inverted inter-group latency range");
}

// Feeds `argv` to consumeFlag the way wanmc_cli does: each flag pulls its
// value through `next`. Returns false at the first flag it does not take.
bool consumeAll(RunOptions& o, std::deque<std::string> argv) {
  while (!argv.empty()) {
    const std::string arg = argv.front();
    argv.pop_front();
    auto next = [&argv]() {
      EXPECT_FALSE(argv.empty()) << "flag asked for a missing value";
      if (argv.empty()) return std::string();
      std::string v = argv.front();
      argv.pop_front();
      return v;
    };
    if (!o.consumeFlag(arg, next)) return false;
  }
  return true;
}

TEST(RunOptions, ConsumeFlagSetsEachSharedKnob) {
  RunOptions o;
  ASSERT_TRUE(consumeAll(
      o, {"--backend", "threaded", "--protocol", "a2", "--groups", "3",
          "--procs", "4", "--seed", "7", "--dest-groups", "1",
          "--reliable-channels", "--inter-ms", "50", "--intra-us", "300",
          "--batch-window", "10", "--batch-max", "8", "--loss", "0.25"}));
  EXPECT_EQ(o.backend, exec::Backend::kThreaded);
  EXPECT_EQ(o.protocol, ProtocolKind::kA2);
  EXPECT_EQ(o.groups, 3);
  EXPECT_EQ(o.procsPerGroup, 4);
  EXPECT_EQ(o.seed, 7u);
  EXPECT_EQ(o.destGroups, 1);
  // --reliable-channels takes no value: the --inter-ms after it was still
  // read as a flag.
  EXPECT_TRUE(o.reliableChannels);
  EXPECT_EQ(o.latency.interMin, 50 * kMs);  // --inter-ms sets both bounds
  EXPECT_EQ(o.latency.interMax, 50 * kMs);
  EXPECT_EQ(o.latency.intraMin, 300);
  EXPECT_EQ(o.latency.intraMax, 300);
  EXPECT_EQ(o.batchWindow, 10 * kMs);
  EXPECT_EQ(o.batchMaxSize, 8);
  EXPECT_DOUBLE_EQ(o.lossRate, 0.25);
}

TEST(RunOptions, ConsumeFlagLeavesAnUnknownFlagToTheCaller) {
  RunOptions o;
  bool asked = false;
  EXPECT_FALSE(o.consumeFlag("--casts", [&asked]() {
    asked = true;
    return std::string("5");
  }));
  EXPECT_FALSE(asked);  // the value token stays with the caller
  EXPECT_EQ(o.serialize(), RunOptions{}.serialize());
}

TEST(RunOptions, SerializeMatchesTheCalibrationHeader) {
  // bench_calibration's configuration: A1 on 2x2, every other knob at its
  // default. Its checked-in CSV starts with "# " and this line.
  RunOptions o;
  o.protocol = ProtocolKind::kA1;
  o.groups = 2;
  o.procsPerGroup = 2;
  std::ifstream csv(std::string(WANMC_SOURCE_DIR) + "/CALIBRATION_PR10.csv");
  ASSERT_TRUE(csv.good());
  std::string header;
  std::getline(csv, header);
  EXPECT_EQ("# " + o.serialize(), header);
}

}  // namespace
}  // namespace wanmc
