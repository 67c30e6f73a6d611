// traffic_trial on the multi-region fabric (what bench/shard_scaling
// runs): digest invariance across shard counts on a small fabric, plus
// structural checks on its region_grid_spec fabric and
// region_flow_endpoints layout.
#include <gtest/gtest.h>

#include "exp/summary.hpp"
#include "exp/traffic.hpp"

namespace qnetp::exp {
namespace {

using namespace qnetp::literals;

/// Four composed 2x2 grid regions, one circuit each.
TrafficConfig tiny_config() {
  TrafficConfig cfg;
  cfg.fabric.regions = 4;
  cfg.fabric.region_rows = 2;
  cfg.fabric.region_cols = 2;
  cfg.n_circuits = 1;
  cfg.pairs_per_request = 1;
  cfg.arrivals.rate = 3.0;
  cfg.latency_budget = 1_s;
  cfg.horizon = 1_s;
  cfg.warmup = 0_s;
  return cfg;
}

TEST(ShardScaling, SpecShape) {
  const auto spec = region_grid_spec(4, 2, 2);
  spec.validate();
  EXPECT_EQ(spec.node_count(), 16u);
  EXPECT_EQ(spec.region_count(), 4u);
  // 4 links per 2x2 grid, 3 bridges.
  EXPECT_EQ(spec.link_count(), 4u * 4u + 3u);
  EXPECT_TRUE(spec.connected());
}

TEST(ShardScaling, RegionFlowEndpointsStayInTheirRegion) {
  // 2 regions of 2x4: each circuit spans 3 hops along one row.
  const auto flows = region_flow_endpoints(2, 2, 4, 3);
  ASSERT_EQ(flows.size(), 6u);
  EXPECT_EQ(flows[0], std::pair(NodeId{1}, NodeId{4}));
  EXPECT_EQ(flows[1], std::pair(NodeId{5}, NodeId{8}));
  EXPECT_EQ(flows[3], std::pair(NodeId{9}, NodeId{12}));
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const std::uint64_t first = (i / 3) * 8 + 1;
    EXPECT_GE(flows[i].first.value(), first);
    EXPECT_LT(flows[i].second.value(), first + 8);
  }
}

TEST(ShardScaling, TrialRunsAndAccounts) {
  const auto r = traffic_trial(tiny_config(), 41);
  EXPECT_EQ(r.scalars.at("ok"), 1.0);
  EXPECT_EQ(r.scalars.at("admitted"), 4.0);
  EXPECT_EQ(r.scalars.at("consistency_ok"), 1.0);
  EXPECT_GT(r.scalars.at("offered"), 0.0);
  EXPECT_GT(r.scalars.at("completed"), 0.0);
  // With warmup 0 every one of the 16 occupancy strides is sampled.
  EXPECT_EQ(r.samples.at("occ_live").size(), 16u);
  // offered arrivals all classified exactly once
  EXPECT_EQ(r.scalars.at("offered"), r.scalars.at("accepted") +
                                         r.scalars.at("shaped") +
                                         r.scalars.at("rejected"));
}

TEST(ShardScaling, DigestInvariantAcrossShardCounts) {
  const auto cfg = tiny_config();
  std::uint64_t baseline = 0;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    TrafficConfig run_cfg = cfg;
    run_cfg.fabric.shards = shards;
    SummaryAccumulator acc;
    acc.add(traffic_trial(run_cfg, 41));
    acc.add(traffic_trial(run_cfg, 42));
    if (shards == 1) {
      baseline = acc.digest();
    } else {
      EXPECT_EQ(acc.digest(), baseline) << "shards=" << shards;
    }
  }
  EXPECT_NE(baseline, 0u);
}

}  // namespace
}  // namespace qnetp::exp
