// Multi-flow topology sweep: concurrent circuits over grid, ring, star,
// heterogeneous-chain and Waxman random-graph fabrics.
//
// For every (topology family, circuit count) configuration the sweep
// runs --runs seeded trials of exp::multiflow_trial through the
// experiment runner at several --jobs values, checks that the aggregate
// digests are bit-identical across jobs (the determinism contract now
// extended to arbitrary topologies and the admission-aware controller),
// and records throughput-style aggregates plus the digests in
// BENCH_topo.json (the bench/gate.hpp schema). Exit status is non-zero
// when any digest differs.
//
// Flags: --runs=N (trials per config, default 6), --quick (2 trials,
//        short horizon, fewer configs), --csv, --jobs=N (extra jobs
//        value), --out=PATH (default BENCH_topo.json).
#include <string>
#include <vector>

#include "bench/gate.hpp"

using namespace qnetp;
using namespace qnetp::literals;
using namespace qnetp::bench;

namespace {

struct Config {
  exp::MultiflowConfig cfg;
  std::string label;
};

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv, "BENCH_topo.json");
  const Duration horizon = args.quick ? 150_s : 300_s;
  auto make = [&](exp::TopologyFamily family, std::size_t size,
                  std::size_t circuits) {
    Config c;
    c.cfg.family = family;
    c.cfg.size = size;
    c.cfg.n_circuits = circuits;
    c.cfg.pairs_per_request = args.quick ? 3 : 4;
    c.cfg.horizon = horizon;
    c.label = std::string(exp::to_string(family)) + std::to_string(size) +
              "-c" + std::to_string(circuits);
    return c;
  };

  std::vector<Config> configs;
  configs.push_back(make(exp::TopologyFamily::grid, 3, 2));
  configs.push_back(make(exp::TopologyFamily::ring, 8, 2));
  configs.push_back(make(exp::TopologyFamily::waxman, 10, 2));
  if (!args.quick) {
    configs.push_back(make(exp::TopologyFamily::grid, 3, 4));
    configs.push_back(make(exp::TopologyFamily::ring, 8, 4));
    configs.push_back(make(exp::TopologyFamily::waxman, 10, 4));
    configs.push_back(make(exp::TopologyFamily::star, 6, 3));
    configs.push_back(make(exp::TopologyFamily::hetero_chain, 5, 2));
  }

  GateBench bench("multiflow_topologies", args, args.quick ? 2 : 6, 4100,
                  "3 configs (grid/ring/waxman x2 circuits), 150 s horizon "
                  "(full: 8 configs, 300 s)");
  bool jobs_match = true;
  for (const auto& config : configs) {
    const auto fn = [&config](const exp::Trial& t) {
      return exp::multiflow_trial(config.cfg, t.seed);
    };
    for (const std::size_t jobs : sweep_values({1, 2, 4}, args.jobs)) {
      bench.run(config.label, jobs, 1, fn);
    }
    jobs_match = bench.digests_agree(config.label) && jobs_match;
  }
  bench.gate("digests_bit_identical", jobs_match,
             "aggregates bit-identical across jobs values");
  return bench.finish(
      "Multi-flow topology sweep — " + std::to_string(bench.trials()) +
          " trials/config, jobs-invariance checked",
      {mean_column("admitted_mean", "admitted", 3),
       mean_column("delivered_mean", "delivered", 3),
       mean_column("completed_mean", "completed", 3),
       mean_column("fidelity_mean", "mean_fidelity", 4),
       {"mismatches_total", 0,
        [](const SweepPoint& p) {
          return p.mean("mismatches") * static_cast<double>(p.trials.size());
        }},
       mean_column("events_mean", "events", 0)});
}
