// Tier-2 open-loop traffic regression.
//
// Pins traffic_trial's aggregate digest (scalars + pooled latency
// reservoir) for fixed seeds against baselines committed in
// tests/regression/golden/traffic.txt, and asserts the soak invariants
// every healthy build must satisfy: flat flow-table occupancy, clean
// engine consistency checks, exact accept/shape/reject accounting, and
// bit-identical aggregation across worker counts.
//
// Environment knobs (see digest_golden.hpp): QNETP_REGEN_GOLDEN=1 and
// QNETP_REGRESSION_QUICK=1, which trims the jobs-sweep trial count. The
// digest-pinned configs run identically in both modes (a digest over
// fewer trials would never match), so quick mode does not weaken the
// golden comparison.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "exp/runner.hpp"
#include "exp/summary.hpp"
#include "exp/traffic.hpp"
#include "tests/regression/digest_golden.hpp"

namespace qnetp::exp {
namespace {

DigestGolden* const kGolden =
    static_cast<DigestGolden*>(::testing::AddGlobalTestEnvironment(
        new DigestGolden("traffic.txt", "traffic regression",
                         "qnetp_regression_test_traffic_soak")));

/// The reservoir registration must match the soak bench exactly: the
/// digest hashes the pooled reservoir channel.
SummaryAccumulator traffic_accumulator() {
  SummaryAccumulator acc;
  acc.pool_as_reservoir("latency_res_s");
  return acc;
}

TrafficConfig poisson_config() {
  TrafficConfig cfg;
  cfg.family = TopologyFamily::grid;
  cfg.size = 3;
  cfg.n_circuits = 2;
  cfg.arrivals.kind = ArrivalKind::poisson;
  cfg.arrivals.rate = 2.0;
  cfg.horizon = Duration::seconds(60);
  cfg.warmup = Duration::seconds(10);
  return cfg;
}

TrafficConfig mmpp_config() {
  TrafficConfig cfg;
  cfg.family = TopologyFamily::ring;
  cfg.size = 8;
  cfg.n_circuits = 2;
  cfg.arrivals.kind = ArrivalKind::mmpp;
  cfg.horizon = Duration::seconds(60);
  cfg.warmup = Duration::seconds(10);
  return cfg;
}

TEST(TrafficRegression, DigestMatchesGolden) {
  // Fixed trial count in BOTH modes: the digest covers every trial.
  const std::map<std::string, TrafficConfig> configs = {
      {"traffic.poisson_grid3.digest", poisson_config()},
      {"traffic.mmpp_ring8.digest", mmpp_config()},
  };
  for (const auto& [name, cfg] : configs) {
    auto acc = traffic_accumulator();
    for (const TrialResult& r : TrialRunner({1, 0x7EA5EED}).run(
             2, [&](const Trial& t) { return traffic_trial(cfg, t.seed); })) {
      acc.add(r);
    }
    kGolden->check(name, digest_hex(acc));
  }
}

TEST(TrafficRegression, SameSeedSameExecution) {
  const TrafficConfig cfg = poisson_config();
  const TrialResult a = traffic_trial(cfg, 0xAB5EED);
  const TrialResult b = traffic_trial(cfg, 0xAB5EED);
  auto da = traffic_accumulator();
  da.add(a);
  auto db = traffic_accumulator();
  db.add(b);
  EXPECT_EQ(da.digest(), db.digest());
  EXPECT_GT(a.scalars.at("offered"), 0.0);
  EXPECT_GT(a.scalars.at("completed"), 0.0);
}

TEST(TrafficRegression, AggregatesBitIdenticalAcrossJobCounts) {
  const std::size_t trials = quick_mode() ? 2 : 4;
  for (const TrafficConfig& cfg : {poisson_config(), mmpp_config()}) {
    auto fn = [&](const Trial& t) { return traffic_trial(cfg, t.seed); };
    auto serial = traffic_accumulator();
    for (const auto& r : TrialRunner({1, 0xF10D}).run(trials, fn)) {
      serial.add(r);
    }
    auto threaded = traffic_accumulator();
    for (const auto& r : TrialRunner({3, 0xF10D}).run(trials, fn)) {
      threaded.add(r);
    }
    EXPECT_EQ(serial.digest(), threaded.digest())
        << "a traffic trial pulled randomness from outside its seed";
  }
}

TEST(TrafficRegression, OccupancyFlatAndAccountingExact) {
  for (const TrafficConfig& cfg : {poisson_config(), mmpp_config()}) {
    const TrialResult r = traffic_trial(cfg, 0x50AC);
    // Soak invariants: the flow-table GC keeps occupancy trend-flat and
    // every engine's internal accounting balances.
    EXPECT_DOUBLE_EQ(r.scalars.at("occ_flat"), 1.0);
    EXPECT_DOUBLE_EQ(r.scalars.at("consistency_ok"), 1.0);
    // Offered arrivals split exactly into the three admission outcomes.
    EXPECT_DOUBLE_EQ(r.scalars.at("offered"),
                     r.scalars.at("accepted") + r.scalars.at("shaped") +
                         r.scalars.at("rejected"));
    // SLO attainment is a fraction of eligible completions.
    EXPECT_GE(r.scalars.at("slo_attainment"), 0.0);
    EXPECT_LE(r.scalars.at("slo_attainment"), 1.0);
  }
}

}  // namespace
}  // namespace qnetp::exp
