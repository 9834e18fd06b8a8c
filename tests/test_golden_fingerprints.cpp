// Golden-fingerprint determinism guard for the simulator hot path.
//
// Every (scenario, seed) cell of the standard fault matrix — all 10
// protocols, both matrix seeds — is run and its canonical trace fingerprint
// hashed. The hashes are pinned in tests/golden/fingerprints.txt, which was
// recorded BEFORE the PR 2 scheduler/runtime rewrite: any change to event
// ordering, latency draws, Lamport stamping, or traffic accounting shows up
// here as a byte-level divergence tied to a single reproducible seed.
//
// Regenerate (only when a behavior change is intended and reviewed):
//   WANMC_REGEN_GOLDEN=1 ./test_golden_fingerprints
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "golden_util.hpp"
#include "testing/scenario.hpp"

namespace wanmc {
namespace {

using wanmc::testing::MatrixOptions;
using wanmc::testing::ScenarioResult;

// name+seed -> fingerprint hash, over the full standard matrix.
std::map<std::string, uint64_t> computeAll() {
  std::map<std::string, uint64_t> out;
  for (const core::ProtocolInfo& p : core::kProtocols) {
    MatrixOptions opt;
    for (const ScenarioResult& r : runStandardMatrix(p.kind, opt)) {
      std::ostringstream key;
      key << p.testName << "|" << r.name;
      out[key.str()] = wanmc::testing::fnv1a64(r.fingerprint);
    }
  }
  return out;
}

TEST(GoldenFingerprints, MatrixCellsMatchPreRefactorTraces) {
  wanmc::testing::checkOrRegenGolden(
      std::string(WANMC_SOURCE_DIR) + "/tests/golden/fingerprints.txt",
      computeAll());
}

}  // namespace
}  // namespace wanmc
