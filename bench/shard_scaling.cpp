// Sharded-DES scaling bench: one 100+ node multi-region fabric with 50+
// concurrent circuits (exp::shard_scaling_trial), executed at several
// shard counts with two hard gates:
//   1. the aggregate digest (every scalar + sample) is bit-identical at
//      every shard count — conservative windows, canonical mailbox
//      merge order and region-local quantum state leave no scheduling
//      freedom in the results;
//   2. every engine passes its internal consistency_check() in every
//      trial.
// Wall-clock and speedup over shards=1 per shard count land in
// BENCH_shard.json (the bench/gate.hpp schema) together with the host
// core count (speedups are only meaningful with cores >= shards). Exit
// status is non-zero when any gate fails.
//
// Flags: --runs=N (trials per shard count, default 2; quick 1),
//        --shards=N (extra sweep value, must be <= regions),
//        --quick (small fabric, short horizon), --csv,
//        --out=PATH (default BENCH_shard.json).
#include "bench/gate.hpp"
#include "exp/shard_scaling.hpp"

using namespace qnetp;
using namespace qnetp::literals;
using namespace qnetp::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv, "BENCH_shard.json");
  exp::ShardScalingConfig cfg;  // 4 x (3x9) = 108 nodes, 52 circuits
  if (args.quick) {
    cfg.region_rows = 2;
    cfg.region_cols = 3;
    cfg.circuits_per_region = 2;
    cfg.horizon = 1_s;
    cfg.occupancy_samples = 4;
  }
  const auto shards_sweep = sweep_values({1, 2, 4}, args.shards, cfg.regions);
  GateBench bench("shard_scaling", args, args.quick ? 1 : 2, 7300,
                  "4 x (2x3) = 24 nodes, 8 circuits, 1 s horizon "
                  "(full: 4 x (3x9) = 108 nodes, 52 circuits, 5 s)",
                  {"ok", "consistency_ok"});
  for (const std::size_t shards : shards_sweep) {
    exp::ShardScalingConfig run_cfg = cfg;
    run_cfg.shards = shards;
    bench.run("regions4", 1, shards, [run_cfg](const exp::Trial& t) {
      return exp::shard_scaling_trial(run_cfg, t.seed);
    });
  }
  // The trial never echoes cfg.shards into its result, so the plain
  // digest covers every metric and must match across the sweep.
  bench.gate("digests_bit_identical", bench.digests_agree("regions4"),
             "aggregates bit-identical across shard counts");
  bench.gate("engines_consistent", bench.all_clean(),
             "every trial ok with consistent engines");
  const SweepPoint& serial = bench.points().front();
  bench.info("nodes", serial.mean("nodes"));
  bench.info("regions", static_cast<double>(cfg.regions));
  bench.info("circuits", serial.mean("admitted"));
  bench.info("horizon_s", cfg.horizon.as_seconds());
  return bench.finish(
      "Sharded conservative-parallel DES — one fabric, many worker loops, "
      "bit-identical digests",
      {mean_column("events_mean", "events", 0),
       mean_column("completed_mean", "completed", 2),
       speedup_column(serial)});
}
