// Link-state routing under churn: scripted sever/degrade/heal/flash-crowd
// /node-failure timelines over several topology families
// (exp::churn_trial), with two determinism gates:
//   1. per family, the aggregate digest (every scalar + sample) is
//      bit-identical at --jobs 1, 2 and 4 — trials are pure functions of
//      their seed, so worker threads leave no trace;
//   2. on the multi-region fabric, the digest is bit-identical at
//      --shards 1, 2 and 4 — churn is applied from the driver thread at
//      absolute simulated times, so the conservative-parallel execution
//      leaves no trace either.
// Every trial must also come back ok, engine-consistent and leak-free
// (all admitted capacity returned after the churn teardowns). Results
// land in BENCH_routing.json (the bench/gate.hpp schema); exit status is
// non-zero when any gate fails.
//
// Flags: --runs=N (trials per point, default 3; quick 1),
//        --jobs=N / --shards=N (extra sweep values),
//        --quick (grid only, compressed timeline), --csv,
//        --out=PATH (default BENCH_routing.json).
#include <string>
#include <vector>

#include "bench/gate.hpp"
#include "exp/churn.hpp"

using namespace qnetp;
using namespace qnetp::literals;
using namespace qnetp::bench;

namespace {

exp::ChurnConfig family_config(exp::TopologyFamily family, bool quick) {
  exp::ChurnConfig cfg;
  cfg.fabric.family = family;
  cfg.n_circuits = 3;
  cfg.n_guaranteed = 1;
  cfg.requested_eer = 0.5;
  switch (family) {
    case exp::TopologyFamily::grid:
      cfg.fabric.size = 3;
      break;
    case exp::TopologyFamily::ring:
      cfg.fabric.size = 8;
      break;
    case exp::TopologyFamily::star:
      cfg.fabric.size = 6;
      cfg.max_circuits_per_link = 3;  // exercise residual-slot metrics
      break;
    default:
      cfg.fabric.size = 6;
      break;
  }
  if (quick) {
    // Compressed timeline: one sever/heal plus a crowd inside a short
    // horizon.
    cfg.horizon = 8_s;
    cfg.warmup = 2_s;
    const auto full = exp::default_churn_timeline(family, cfg.fabric.size);
    for (std::size_t i = 0; i < full.size() && i < 3; ++i) {
      exp::ChurnEvent e = full[i];
      e.at = Duration::seconds(2 * (i + 1));
      cfg.events.push_back(e);
    }
  } else {
    cfg.horizon = 30_s;
    cfg.events = exp::default_churn_timeline(family, cfg.fabric.size);
  }
  return cfg;
}

/// Regions of the multi-region fabric: the --shards bound.
constexpr std::size_t kRegions = 4;

exp::ChurnConfig regions_config(bool quick) {
  using K = exp::ChurnEventKind;
  exp::ChurnConfig cfg;
  cfg.fabric.regions = kRegions;
  cfg.fabric.region_rows = 2;
  cfg.fabric.region_cols = 3;
  cfg.n_circuits = 2;
  cfg.n_guaranteed = 1;
  cfg.requested_eer = 0.5;
  // Node ids: region r holds r*6+1 .. r*6+6, row-major 2x3.
  if (quick) {
    cfg.horizon = 6_s;
    cfg.warmup = 2_s;
    cfg.events = {{.kind = K::sever, .at = 2_s, .a = NodeId{1}, .b = NodeId{2}},
                  {.kind = K::flash_crowd, .at = 4_s}};
  } else {
    cfg.horizon = 30_s;
    cfg.events = {
        {.kind = K::sever, .at = 5_s, .a = NodeId{1}, .b = NodeId{2}},
        {.kind = K::degrade, .at = 8_s, .a = NodeId{7}, .b = NodeId{8},
         .cost_factor = 5.0},
        {.kind = K::heal, .at = 14_s, .a = NodeId{1}, .b = NodeId{2}},
        {.kind = K::flash_crowd, .at = 18_s},
        {.kind = K::fail_node, .at = 22_s, .node = NodeId{14}}};
  }
  return cfg;
}

exp::TrialRunner::TrialFn churn(exp::ChurnConfig cfg,
                                std::size_t shards = 1) {
  cfg.fabric.shards = shards;
  return [cfg](const exp::Trial& t) { return exp::churn_trial(cfg, t.seed); };
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args =
      BenchArgs::parse(argc, argv, "BENCH_routing.json", kRegions);
  GateBench bench("routing_churn", args, args.quick ? 1 : 3, 9100,
                  "grid family only, compressed 8 s timeline (full: "
                  "grid/ring/star + 4-region fabric, 30 s timelines)",
                  {"ok", "consistency_ok", "leak_free"});
  std::vector<exp::TopologyFamily> families{exp::TopologyFamily::grid};
  if (!args.quick) {
    families.push_back(exp::TopologyFamily::ring);
    families.push_back(exp::TopologyFamily::star);
  }
  const auto jobs_sweep = sweep_values({1, 2, 4}, args.jobs);
  const auto shards_sweep = sweep_values({1, 2, 4}, args.shards);

  // Gate 1: per family, identical digests at every --jobs value.
  bool jobs_match = true;
  for (const auto family : families) {
    const auto fn = churn(family_config(family, args.quick));
    for (const std::size_t jobs : jobs_sweep) {
      bench.run(exp::to_string(family), jobs, 1, fn);
    }
    jobs_match = bench.digests_agree(exp::to_string(family)) && jobs_match;
  }
  // Gate 2: on the multi-region fabric, identical digests at every
  // --shards value (jobs pinned to 1 so only the fold varies).
  for (const std::size_t shards : shards_sweep) {
    bench.run("regions4", 1, shards, churn(regions_config(args.quick), shards));
  }
  bench.gate("jobs_digests_bit_identical", jobs_match,
             "aggregates bit-identical across --jobs");
  bench.gate("shards_digests_bit_identical", bench.digests_agree("regions4"),
             "aggregates bit-identical across --shards");
  bench.gate("all_trials_clean", bench.all_clean(),
             "every trial ok, engine-consistent and free of capacity leaks");
  return bench.finish(
      "Link-state routing under churn — digests bit-identical across --jobs "
      "and --shards",
      {mean_column("delivered_mean", "delivered", 2),
       mean_column("torn_down_mean", "torn_down", 2),
       mean_column("updates_applied_mean", "updates_applied", 2)});
}
