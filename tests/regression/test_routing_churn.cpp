// Tier-2 routing-churn regression.
//
// Pins churn_trial and chaos_trial aggregate digests for fixed seeds
// against baselines committed in tests/regression/golden/routing.txt,
// and asserts the determinism invariants behind bench/routing_churn's
// gates: identical digests across TrialRunner worker counts (--jobs) and
// across the execution-shard fold of the multi-region fabric (--shards),
// plus the per-trial cleanliness contract (ok, engine-consistent,
// leak-free).
//
// Environment knobs (see digest_golden.hpp): QNETP_REGEN_GOLDEN=1 and
// QNETP_REGRESSION_QUICK=1, which trims the invariance sweeps. The
// digest-pinned configs run identically in both modes (a digest over
// different trials would never match), so quick mode does not weaken
// the golden comparison.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "exp/churn.hpp"
#include "exp/runner.hpp"
#include "exp/summary.hpp"
#include "tests/regression/digest_golden.hpp"

namespace qnetp::exp {
namespace {

using namespace qnetp::literals;

DigestGolden* const kGolden =
    static_cast<DigestGolden*>(::testing::AddGlobalTestEnvironment(
        new DigestGolden("routing.txt", "routing-churn regression",
                         "qnetp_regression_test_routing_churn")));

/// Single-region grid with the full scripted fault timeline, trimmed to
/// a horizon that still covers sever + degrade + heal.
ChurnConfig grid_config() {
  ChurnConfig cfg;
  cfg.family = TopologyFamily::grid;
  cfg.size = 3;
  cfg.n_circuits = 3;
  cfg.n_guaranteed = 1;
  cfg.requested_eer = 0.5;
  cfg.horizon = 16_s;
  cfg.events = default_churn_timeline(cfg.family, cfg.size);
  return cfg;
}

/// Four composed 2x3 grid regions (the sharded fabric): sever, degrade
/// and a flash crowd inside a short horizon.
ChurnConfig regions_config() {
  ChurnConfig cfg;
  cfg.regions = 4;
  cfg.region_rows = 2;
  cfg.region_cols = 3;
  cfg.n_circuits = 2;
  cfg.n_guaranteed = 1;
  cfg.requested_eer = 0.5;
  cfg.horizon = 10_s;
  using K = ChurnEventKind;
  cfg.events = {
      {.kind = K::sever, .at = 2_s, .a = NodeId{1}, .b = NodeId{2}},
      {.kind = K::degrade, .at = 4_s, .a = NodeId{7}, .b = NodeId{8},
       .cost_factor = 5.0},
      {.kind = K::flash_crowd, .at = 6_s}};
  return cfg;
}

TEST(RoutingChurnRegression, DigestMatchesGolden) {
  // Fixed trial count in BOTH modes: the digest covers every trial.
  const std::map<std::string, ChurnConfig> configs = {
      {"routing.churn_grid3.digest", grid_config()},
      {"routing.churn_regions4.digest", regions_config()},
  };
  for (const auto& [name, cfg] : configs) {
    const auto results = TrialRunner({1, 0x9C0DE}).run(
        2, [&](const Trial& t) { return churn_trial(cfg, t.seed); });
    for (const auto& r : results) {
      EXPECT_DOUBLE_EQ(r.scalar_or("ok", 0.0), 1.0) << name;
      EXPECT_DOUBLE_EQ(r.scalar_or("consistency_ok", 0.0), 1.0) << name;
      EXPECT_DOUBLE_EQ(r.scalar_or("leak_free", 0.0), 1.0) << name;
      EXPECT_DOUBLE_EQ(r.scalar_or("quiescent", 0.0), 1.0) << name;
    }
    kGolden->check(name,
                   digest_hex(SummaryAccumulator::aggregate(results)));
  }
}

/// test_chaos's tiny grid under the chaos fault profile.
ChurnConfig chaos_grid_config() {
  ChurnConfig cfg = chaos_config();
  cfg.family = TopologyFamily::grid;
  cfg.size = 3;
  cfg.n_circuits = 2;
  cfg.pairs_per_request = 2;
  cfg.warmup = 2_s;
  cfg.horizon = 4_s;
  cfg.drain = 1_s;
  return cfg;
}

TEST(RoutingChurnRegression, ChaosDigestMatchesGolden) {
  // test_chaos's 4-region fabric of 2x2 grids, one circuit per region.
  ChurnConfig regions = chaos_grid_config();
  regions.regions = 4;
  regions.region_rows = 2;
  regions.region_cols = 2;
  regions.n_circuits = 1;
  // The tiny grid with link 1-2 silently partitioned at 2 s.
  ChurnConfig partition = chaos_grid_config();
  partition.horizon = 6_s;
  partition.events = {{.kind = ChurnEventKind::partition, .at = 2_s,
                       .a = NodeId{1}, .b = NodeId{2}}};
  const std::map<std::string, ChurnConfig> configs = {
      {"routing.chaos_grid3.digest", chaos_grid_config()},
      {"routing.chaos_regions4.digest", regions},
      {"routing.chaos_partition.digest", partition},
  };
  for (const auto& [name, cfg] : configs) {
    const auto results = TrialRunner({1, 0x9C0DE}).run(
        2, [&](const Trial& t) { return chaos_trial(cfg, t.seed); });
    for (const auto& r : results) {
      EXPECT_DOUBLE_EQ(r.scalar_or("ok", 0.0), 1.0) << name;
      EXPECT_DOUBLE_EQ(r.scalar_or("consistency_ok", 0.0), 1.0) << name;
      EXPECT_DOUBLE_EQ(r.scalar_or("leak_free", 0.0), 1.0) << name;
      EXPECT_DOUBLE_EQ(r.scalar_or("quiescent", 0.0), 1.0) << name;
      EXPECT_DOUBLE_EQ(r.scalar_or("conservation_ok", 0.0), 1.0) << name;
    }
    kGolden->check(name,
                   digest_hex(SummaryAccumulator::aggregate(results)));
  }
}

TEST(RoutingChurnRegression, SameSeedSameExecution) {
  const ChurnConfig cfg = grid_config();
  const TrialResult a = churn_trial(cfg, 0xC0DE5EED);
  const TrialResult b = churn_trial(cfg, 0xC0DE5EED);
  auto da = SummaryAccumulator();
  da.add(a);
  auto db = SummaryAccumulator();
  db.add(b);
  EXPECT_EQ(da.digest(), db.digest());
  EXPECT_GT(a.scalars.at("delivered"), 0.0);
  EXPECT_GT(a.scalars.at("torn_down"), 0.0) << "the timeline must bite";
}

TEST(RoutingChurnRegression, AggregatesBitIdenticalAcrossJobCounts) {
  const std::size_t trials = quick_mode() ? 2 : 4;
  const ChurnConfig cfg = grid_config();
  auto fn = [&](const Trial& t) { return churn_trial(cfg, t.seed); };
  const auto serial =
      SummaryAccumulator::aggregate(TrialRunner({1, 0xF10D}).run(trials, fn));
  const auto threaded =
      SummaryAccumulator::aggregate(TrialRunner({3, 0xF10D}).run(trials, fn));
  EXPECT_EQ(serial.digest(), threaded.digest())
      << "a churn trial pulled randomness from outside its seed";
}

TEST(RoutingChurnRegression, AggregatesBitIdenticalAcrossShardCounts) {
  const std::size_t trials = quick_mode() ? 1 : 2;
  ChurnConfig cfg = regions_config();
  std::uint64_t reference = 0;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    cfg.shards = shards;
    const auto acc = SummaryAccumulator::aggregate(
        TrialRunner({1, 0x5AAD}).run(trials, [&](const Trial& t) {
          return churn_trial(cfg, t.seed);
        }));
    if (shards == 1) {
      reference = acc.digest();
    } else {
      EXPECT_EQ(acc.digest(), reference)
          << "the shard fold leaked into trial results at shards="
          << shards;
    }
  }
}

}  // namespace
}  // namespace qnetp::exp
