// chaos_trial: smoke accounting under the chaos fault profile, the
// fault-free degenerate case, determinism for a fixed seed, digest
// invariance across shard counts, and the partition-vs-sever view
// equivalence that bench/chaos_soak gates on.
#include "exp/churn.hpp"

#include <gtest/gtest.h>

#include "exp/summary.hpp"

namespace qnetp::exp {
namespace {

using namespace qnetp::literals;

ChurnConfig tiny_config() {
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

TEST(ChaosTrial, RunsCleanUnderDefaultFaults) {
  const auto r = chaos_trial(tiny_config(), 4242);
  EXPECT_EQ(r.scalars.at("ok"), 1.0);
  EXPECT_GT(r.scalars.at("admitted"), 0.0);
  EXPECT_EQ(r.scalars.at("slo"), 1.0);
  // The chaos actually happened and the transport repaired it.
  EXPECT_GT(r.scalars.at("fault_dropped"), 0.0);
  EXPECT_GT(r.scalars.at("retransmits"), 0.0);
  EXPECT_GT(r.scalars.at("duplicates_filtered"), 0.0);
  // Robustness gates: every trial must end accounted and empty.
  EXPECT_EQ(r.scalars.at("conservation_ok"), 1.0);
  EXPECT_EQ(r.scalars.at("consistency_ok"), 1.0);
  EXPECT_EQ(r.scalars.at("leak_free"), 1.0);
  EXPECT_EQ(r.scalars.at("quiescent"), 1.0);
  EXPECT_EQ(r.scalars.at("dead_verdicts"), 0.0);  // no cut in this config
}

TEST(ChaosTrial, FaultFreeProfileInjectsNothing) {
  ChurnConfig cfg = tiny_config();
  cfg.faults = netmsg::FaultProfile{};
  const auto r = chaos_trial(cfg, 4242);
  EXPECT_EQ(r.scalars.at("ok"), 1.0);
  EXPECT_EQ(r.scalars.at("fault_dropped"), 0.0);
  EXPECT_EQ(r.scalars.at("corrupted"), 0.0);
  EXPECT_EQ(r.scalars.at("net_duplicated"), 0.0);
  EXPECT_EQ(r.scalars.at("retransmits"), 0.0);
  EXPECT_EQ(r.scalars.at("slo"), 1.0);
  EXPECT_EQ(r.scalars.at("quiescent"), 1.0);
}

TEST(ChaosTrial, DeterministicForAFixedSeed) {
  const auto a = chaos_trial(tiny_config(), 99);
  const auto b = chaos_trial(tiny_config(), 99);
  SummaryAccumulator acc_a, acc_b;
  acc_a.add(a);
  acc_b.add(b);
  EXPECT_EQ(acc_a.digest(), acc_b.digest());
  // Different seeds draw different fault patterns.
  const auto c = chaos_trial(tiny_config(), 100);
  EXPECT_NE(a.scalars.at("net_sent"), c.scalars.at("net_sent"));
}

TEST(ChaosTrial, DigestInvariantAcrossShardCounts) {
  ChurnConfig cfg = tiny_config();
  cfg.regions = 4;
  cfg.region_rows = 2;
  cfg.region_cols = 2;
  cfg.n_circuits = 1;
  std::uint64_t baseline = 0;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    ChurnConfig run_cfg = cfg;
    run_cfg.shards = shards;
    SummaryAccumulator acc;
    acc.add(chaos_trial(run_cfg, 7));
    if (shards == 1) {
      baseline = acc.digest();
    } else {
      EXPECT_EQ(acc.digest(), baseline) << "shards=" << shards;
    }
  }
  EXPECT_NE(baseline, 0u);
}

TEST(ChaosTrial, SilentPartitionMatchesExplicitSever) {
  ChurnConfig cfg = tiny_config();
  cfg.horizon = 6_s;
  cfg.events = {{.kind = ChurnEventKind::partition, .at = 2_s,
                 .a = NodeId{1}, .b = NodeId{2}}};
  const auto partitioned = chaos_trial(cfg, 5);
  cfg.events[0].kind = ChurnEventKind::sever;
  const auto severed = chaos_trial(cfg, 5);
  // The partition is only observable through the transport's verdicts
  // (the sever twin reaches its verdicts too — flooding keeps probing
  // the dead adjacency — but it never NEEDED them to withdraw)...
  EXPECT_GT(partitioned.scalars.at("dead_verdicts"), 0.0);
  // ...and both end in the same routed view.
  EXPECT_EQ(partitioned.scalars.at("view_digest_lo"),
            severed.scalars.at("view_digest_lo"));
  EXPECT_EQ(partitioned.scalars.at("view_digest_hi"),
            severed.scalars.at("view_digest_hi"));
  EXPECT_EQ(partitioned.scalars.at("quiescent"), 1.0);
  EXPECT_EQ(severed.scalars.at("quiescent"), 1.0);
}

}  // namespace
}  // namespace qnetp::exp
