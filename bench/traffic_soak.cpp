// Open-loop traffic soak: sustained arrival streams (Poisson, MMPP
// bursts, diurnal ramp) against shared fabrics, with the flow-table GC
// and determinism contracts enforced as hard gates.
//
// Every configuration runs the same seeded exp::traffic_trial batch at
// each --jobs value and checks three invariants:
//   1. aggregate digests are bit-identical across jobs values,
//   2. engine flow-table occupancy stays flat over the horizon in every
//      trial (peak within 2x steady state: wholesale expiry keeps
//      record counts from growing monotonically), and
//   3. every engine passes its internal consistency_check().
// Results land in BENCH_traffic.json (the bench/gate.hpp schema). Exit
// status is non-zero when any gate fails.
//
// Flags: --runs=N (trials per config, default 6; quick 2), --quick
//        (short horizon, fewer configs), --csv, --jobs=N (extra jobs
//        value), --out=PATH (default BENCH_traffic.json).
#include <string>
#include <vector>

#include "bench/gate.hpp"
#include "exp/traffic.hpp"

using namespace qnetp;
using namespace qnetp::literals;
using namespace qnetp::bench;

namespace {

struct Config {
  exp::TrafficConfig cfg;
  std::string label;
};

exp::SummaryAccumulator make_accumulator() {
  exp::SummaryAccumulator acc;
  // Must be registered identically before every aggregation the digest
  // comparison touches: routing changes what the digest hashes.
  acc.pool_as_reservoir("latency_res_s");
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv, "BENCH_traffic.json");

  const Duration horizon = args.quick ? 120_s : 300_s;
  auto make = [&](exp::ArrivalKind kind, exp::TopologyFamily family,
                  std::size_t size, std::size_t circuits, double rate_scale,
                  double best_effort) {
    Config c;
    c.cfg.fabric.family = family;
    c.cfg.fabric.size = size;
    c.cfg.n_circuits = circuits;
    // The config's offered load, split evenly over its circuits.
    const double per_circuit = rate_scale / static_cast<double>(circuits);
    c.cfg.arrivals.kind = kind;
    c.cfg.arrivals.rate = per_circuit;
    c.cfg.arrivals.burst_rate = 4.0 * per_circuit;
    c.cfg.arrivals.idle_rate = 0.25 * per_circuit;
    c.cfg.arrivals.peak_rate = 2.0 * per_circuit;
    c.cfg.arrivals.trough_rate = 0.25 * per_circuit;
    c.cfg.best_effort_fraction = best_effort;
    c.cfg.horizon = horizon;
    c.cfg.warmup = args.quick ? 15_s : 30_s;
    c.label = std::string(exp::to_string(kind)) + "-" +
              exp::to_string(family) + std::to_string(size) + "-c" +
              std::to_string(circuits);
    if (best_effort > 0.0) c.label += "-be";
    return c;
  };

  std::vector<Config> configs;
  configs.push_back(
      make(exp::ArrivalKind::poisson, exp::TopologyFamily::grid, 3, 2, 1.0,
           0.0));
  configs.push_back(
      make(exp::ArrivalKind::mmpp, exp::TopologyFamily::ring, 8, 2, 1.0,
           0.0));
  configs.push_back(
      make(exp::ArrivalKind::diurnal, exp::TopologyFamily::grid, 3, 2, 1.0,
           0.0));
  if (!args.quick) {
    configs.push_back(
        make(exp::ArrivalKind::mmpp, exp::TopologyFamily::waxman, 10, 2,
             1.0, 0.0));
    // Sustained overload: demand far beyond the admitted circuit rate
    // with a tight budget. Policing must absorb the excess as rejections
    // while the flow tables stay flat.
    configs.push_back(
        make(exp::ArrivalKind::poisson, exp::TopologyFamily::grid, 3, 2,
             40.0, 0.0));
    configs.back().cfg.pairs_per_request = 4;
    configs.back().cfg.latency_budget = 5_s;
    configs.back().label = "poisson-grid3-c2-over";
    // Overload with a best-effort mix: deadline-less requests take the
    // shaping deque instead of being policed away.
    configs.push_back(
        make(exp::ArrivalKind::poisson, exp::TopologyFamily::grid, 3, 2,
             20.0, 0.3));
    configs.back().cfg.pairs_per_request = 4;
    configs.back().cfg.latency_budget = 5_s;
    configs.back().label = "poisson-grid3-c2-be";
  }

  GateBench bench("traffic_soak", args, args.quick ? 2 : 6, 6100,
                  "3 configs (poisson/mmpp/diurnal), 120 s horizon "
                  "(full: 6 configs incl. overload + shaping, 300 s)",
                  {"occ_flat", "consistency_ok"});
  bool jobs_match = true;
  for (const auto& config : configs) {
    const auto fn = [&config](const exp::Trial& t) {
      return exp::traffic_trial(config.cfg, t.seed);
    };
    for (const std::size_t jobs : sweep_values({1, 2, 4}, args.jobs)) {
      bench.run(config.label, jobs, 1, fn, make_accumulator());
    }
    jobs_match = bench.digests_agree(config.label) && jobs_match;
  }
  const auto every = [&bench](const std::string& key) {
    return std::all_of(bench.points().begin(), bench.points().end(),
                       [&key](const SweepPoint& p) {
                         return p.all_trials(key);
                       });
  };
  bench.gate("digests_bit_identical", jobs_match,
             "aggregates bit-identical across jobs values");
  bench.gate("occupancy_flat", every("occ_flat"),
             "flow-table occupancy flat (peak within 2x steady state)");
  bench.gate("engines_consistent", every("consistency_ok"),
             "engine consistency checks pass");
  return bench.finish(
      "Open-loop traffic soak — flow-table GC, SLO attainment and "
      "jobs-invariance gates",
      {mean_column("offered_mean", "offered", 2),
       mean_column("accepted_mean", "accepted", 2),
       mean_column("shaped_mean", "shaped", 2),
       mean_column("rejected_mean", "rejected", 2),
       mean_column("completed_mean", "completed", 2),
       mean_column("slo_attainment", "slo_attainment", 4),
       {"latency_p99_s", 4,
        [](const SweepPoint& p) {
          return p.acc.has_scalar("latency_p99_s") ? p.mean("latency_p99_s")
                                                   : 0.0;
        }},
       mean_column("occ_steady", "occ_steady", 2),
       {"occ_peak", 2,
        [](const SweepPoint& p) { return p.acc.scalar("occ_peak").max(); }},
       mean_column("expired_wholesale_mean", "occ_expired_wholesale", 2)});
}
