// Experiment-runner scaling: the Fig. 9 dumbbell sweep sharded over a
// worker pool.
//
// Runs the same --runs trials of the Fig. 9 latency/throughput scenario
// at each --jobs value in the sweep, checks that every aggregate digest
// is bit-identical to the serial one (the runner's determinism
// contract), and records wall-clock scaling in BENCH_exp.json (the
// bench/gate.hpp schema) so the runner's perf trajectory is tracked over
// time. Speedup is bounded by the machine's core count (recorded in the
// JSON as hw_concurrency); on one core every jobs value measures ~1x by
// construction.
//
// Flags: --runs=N (trials, default 32), --quick (8 trials, short
//        horizon), --csv, --jobs=N (extra jobs value to include),
//        --out=PATH (JSON output path, default BENCH_exp.json).
#include "bench/gate.hpp"

using namespace qnetp;
using namespace qnetp::literals;
using namespace qnetp::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv, "BENCH_exp.json");
  exp::LatencyThroughputConfig cfg;
  cfg.request_interval = Duration::ms(150);
  cfg.congested = false;
  if (args.quick) {
    cfg.issue_window = 5_s;
    cfg.horizon = 6_s;
    cfg.measure_from = 2_s;
    cfg.measure_until = 5_s;
  }
  GateBench bench("exp_scaling", args, args.quick ? 8 : 32, 2000,
                  "6 s horizon (full: 55 s horizon, 32 trials)");
  for (const std::size_t jobs : sweep_values({1, 2, 4, 8}, args.jobs)) {
    bench.run("fig9_latency_throughput", jobs, 1,
              [&cfg](const exp::Trial& t) {
                return exp::latency_throughput_trial(cfg, t.seed);
              });
  }
  bench.gate("digests_bit_identical",
             bench.digests_agree("fig9_latency_throughput"),
             "aggregates bit-identical across jobs values");
  bench.info("request_interval_ms", cfg.request_interval.as_ms());
  bench.info("horizon_s", cfg.horizon.as_seconds());
  const SweepPoint& serial = bench.points().front();
  return bench.finish(
      "Experiment-runner scaling — Fig. 9 dumbbell sweep, " +
          std::to_string(bench.trials()) + " trials",
      {speedup_column(serial)});
}
