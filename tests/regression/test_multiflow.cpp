// Tier-2 multiflow digest-stability smoke.
//
// Extends the replay-guard determinism contract to the arbitrary-topology
// scenario subsystem: multiflow trials (TopologySpec-built fabrics, the
// admission-aware controller, concurrent circuits) must replay
// bit-identically for a fixed seed and aggregate bit-identically across
// worker counts, and their aggregate digests are pinned against
// tests/regression/golden/multiflow.txt. Runs on the grid and on the
// per-trial-seeded Waxman family so both deterministic construction
// paths are covered.
//
// Environment knobs (see digest_golden.hpp): QNETP_REGEN_GOLDEN=1 and
// QNETP_REGRESSION_QUICK=1, which halves the jobs-sweep trial count. The
// digest-pinned configs run identically in both modes.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "exp/runner.hpp"
#include "exp/scenarios.hpp"
#include "exp/summary.hpp"
#include "tests/regression/digest_golden.hpp"

namespace qnetp::exp {
namespace {

DigestGolden* const kGolden =
    static_cast<DigestGolden*>(::testing::AddGlobalTestEnvironment(
        new DigestGolden("multiflow.txt", "multiflow regression",
                         "qnetp_regression_test_multiflow")));

MultiflowConfig grid_config() {
  MultiflowConfig cfg;
  cfg.family = TopologyFamily::grid;
  cfg.size = 3;
  cfg.n_circuits = 2;
  cfg.pairs_per_request = 3;
  cfg.horizon = Duration::seconds(120);
  return cfg;
}

MultiflowConfig waxman_config() {
  MultiflowConfig cfg;
  cfg.family = TopologyFamily::waxman;
  cfg.size = 10;
  cfg.n_circuits = 3;
  cfg.pairs_per_request = 3;
  cfg.horizon = Duration::seconds(120);
  return cfg;
}

std::uint64_t result_digest(const TrialResult& r) {
  SummaryAccumulator acc;
  acc.add(r);
  return acc.digest();
}

TEST(MultiflowRegression, DigestMatchesGolden) {
  // Fixed trial count in BOTH modes: the digest covers every trial.
  const std::map<std::string, MultiflowConfig> configs = {
      {"multiflow.grid3.digest", grid_config()},
      {"multiflow.waxman10.digest", waxman_config()},
  };
  for (const auto& [name, cfg] : configs) {
    const auto acc = SummaryAccumulator::aggregate(
        TrialRunner({1, 0x3F10D}).run(
            3, [&](const Trial& t) { return multiflow_trial(cfg, t.seed); }));
    kGolden->check(name, digest_hex(acc));
  }
}

TEST(MultiflowRegression, SameSeedSameExecution) {
  for (const auto& cfg : {grid_config(), waxman_config()}) {
    const TrialResult first = multiflow_trial(cfg, 0xAB5EED);
    const TrialResult second = multiflow_trial(cfg, 0xAB5EED);
    ASSERT_TRUE(first.has("events"));
    EXPECT_DOUBLE_EQ(first.scalars.at("events"),
                     second.scalars.at("events"));
    EXPECT_EQ(result_digest(first), result_digest(second))
        << to_string(cfg.family);
    EXPECT_GT(first.scalars.at("admitted"), 0.0);
    EXPECT_GT(first.scalars.at("delivered"), 0.0);
    EXPECT_DOUBLE_EQ(first.scalars.at("mismatches"), 0.0);
  }
}

TEST(MultiflowRegression, AggregatesBitIdenticalAcrossJobCounts) {
  const std::size_t trials = quick_mode() ? 3 : 6;
  for (const auto& cfg : {grid_config(), waxman_config()}) {
    auto fn = [&](const Trial& t) { return multiflow_trial(cfg, t.seed); };
    const auto serial = SummaryAccumulator::aggregate(
        TrialRunner({1, 0xF10D}).run(trials, fn));
    const auto threaded = SummaryAccumulator::aggregate(
        TrialRunner({3, 0xF10D}).run(trials, fn));
    EXPECT_EQ(serial.trials(), trials);
    EXPECT_EQ(serial.digest(), threaded.digest())
        << to_string(cfg.family)
        << ": a trial pulled randomness from outside its seed";
  }
}

TEST(MultiflowRegression, AdmissionOutcomesReplay) {
  // Guaranteed oversubscription on a ring: the admit/reject split is part
  // of the digest and must replay exactly.
  MultiflowConfig cfg;
  cfg.family = TopologyFamily::ring;
  cfg.size = 8;
  cfg.n_circuits = 4;
  cfg.pairs_per_request = 2;
  cfg.requested_eer = 30.0;  // high enough to reject some circuits
  cfg.horizon = Duration::seconds(90);
  const TrialResult a = multiflow_trial(cfg, 0x5EED01);
  const TrialResult b = multiflow_trial(cfg, 0x5EED01);
  EXPECT_EQ(result_digest(a), result_digest(b));
  EXPECT_DOUBLE_EQ(a.scalars.at("admitted") + a.scalars.at("rejected"),
                   4.0);
}

}  // namespace
}  // namespace qnetp::exp
