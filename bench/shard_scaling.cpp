// Sharded-DES scaling bench: exp::traffic_trial on one 100+ node
// multi-region fabric with 50+ concurrent circuits, executed at several
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
#include "exp/traffic.hpp"

using namespace qnetp;
using namespace qnetp::literals;
using namespace qnetp::bench;

int main(int argc, char** argv) {
  constexpr std::size_t kRegions = 4;
  const BenchArgs args =
      BenchArgs::parse(argc, argv, "BENCH_shard.json", kRegions);
  // 4 x (3x9) = 108 nodes, 13 circuits per region: Poisson 4/s each,
  // 2 s budget, 5 s horizon.
  exp::TrafficConfig cfg;
  cfg.fabric.regions = kRegions;
  cfg.fabric.region_rows = args.quick ? 2 : 3;
  cfg.fabric.region_cols = args.quick ? 3 : 9;
  cfg.n_circuits = args.quick ? 2 : 13;
  cfg.arrivals.rate = 4.0;
  cfg.latency_budget = 2_s;
  cfg.horizon = args.quick ? 1_s : 5_s;
  cfg.warmup = 0_s;
  const auto shards_sweep = sweep_values({1, 2, 4}, args.shards);
  GateBench bench("shard_scaling", args, args.quick ? 1 : 2, 7300,
                  "4 x (2x3) = 24 nodes, 8 circuits, 1 s horizon "
                  "(full: 4 x (3x9) = 108 nodes, 52 circuits, 5 s)",
                  {"ok", "consistency_ok"});
  for (const std::size_t shards : shards_sweep) {
    exp::TrafficConfig run_cfg = cfg;
    run_cfg.fabric.shards = shards;
    bench.run("regions4", 1, shards, [run_cfg](const exp::Trial& t) {
      return exp::traffic_trial(run_cfg, t.seed);
    });
  }
  // The trial never echoes the shard count into its result, so the
  // plain digest covers every metric and must match across the sweep.
  bench.gate("digests_bit_identical", bench.digests_agree("regions4"),
             "aggregates bit-identical across shard counts");
  bench.gate("engines_consistent", bench.all_clean(),
             "every trial ok with consistent engines");
  const SweepPoint& serial = bench.points().front();
  const auto spec = exp::region_grid_spec(
      cfg.fabric.regions, cfg.fabric.region_rows, cfg.fabric.region_cols);
  bench.info("nodes", static_cast<double>(spec.node_count()));
  bench.info("regions", static_cast<double>(cfg.fabric.regions));
  bench.info("circuits", serial.mean("admitted"));
  bench.info("horizon_s", cfg.horizon.as_seconds());
  return bench.finish(
      "Sharded conservative-parallel DES — one fabric, many worker loops, "
      "bit-identical digests",
      {mean_column("events_mean", "events", 0),
       mean_column("completed_mean", "completed", 2),
       speedup_column(serial)});
}
