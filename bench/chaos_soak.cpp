// Chaos soak: the control plane under classical-fabric fault injection
// (exp::chaos_trial under exp::chaos_config()), with four gates:
//   1. per fault profile, the aggregate digest (every scalar + sample)
//      is bit-identical at --jobs 1, 2 and 4 — the seeded per-channel
//      fault streams leave no worker-thread trace;
//   2. on the multi-region fabric, the digest is bit-identical at
//      --shards 1, 2 and 4 — fault decisions are drawn on the source
//      node's shard and dead-peer verdicts drain at stride boundaries,
//      so the conservative-parallel execution leaves no trace either;
//   3. every trial at <= 5% drop+duplication+reordering comes back clean
//      (ok, engine-consistent, leak-free, quiescent, and channel-counter
//      conservation: sent + duplicated == delivered + dropped +
//      in-flight) — admitted circuits complete or tear down cleanly;
//   4. a silent link partition (detected only by the reliable
//      transport's dead-peer verdicts) converges to the same routed
//      view as an explicit sever_link of the same link, and the
//      partition run actually exercised the verdict path.
// Results land in BENCH_chaos.json (the bench/gate.hpp schema); exit
// status is non-zero when any gate fails.
//
// Flags: --runs=N (trials per point, default 3; quick 1),
//        --jobs=N / --shards=N (extra sweep values),
//        --quick (compressed horizons, reduced sweeps), --csv,
//        --out=PATH (default BENCH_chaos.json).
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bench/gate.hpp"
#include "exp/churn.hpp"

using namespace qnetp;
using namespace qnetp::literals;
using namespace qnetp::bench;

namespace {

exp::ChurnConfig base_config(bool quick) {
  exp::ChurnConfig cfg = exp::chaos_config();
  cfg.fabric.family = exp::TopologyFamily::grid;
  cfg.fabric.size = 3;
  cfg.n_circuits = 3;
  cfg.horizon = 20_s;
  if (quick) {
    cfg.warmup = 2_s;
    cfg.horizon = 6_s;
    cfg.drain = 1_s;
  }
  return cfg;
}

exp::ChurnConfig loss_config(bool quick, double loss) {
  exp::ChurnConfig cfg = base_config(quick);
  cfg.faults.drop = loss;
  cfg.faults.duplicate = loss;
  cfg.faults.reorder = loss;
  cfg.faults.corrupt = loss / 2.0;
  return cfg;
}

/// Regions of the multi-region fabric: the --shards bound.
constexpr std::size_t kRegions = 4;

exp::ChurnConfig regions_config(bool quick) {
  exp::ChurnConfig cfg = base_config(quick);
  cfg.fabric.regions = kRegions;
  cfg.fabric.region_rows = 2;
  cfg.fabric.region_cols = 3;
  cfg.n_circuits = 2;
  return cfg;
}

/// A cut of link 1-2 at 2 s (quick) or 8 s: a silent `partition` or its
/// explicit `sever` twin.
exp::ChurnConfig cut_config(bool quick, exp::ChurnEventKind kind) {
  exp::ChurnConfig cfg = base_config(quick);
  cfg.events = {{.kind = kind, .at = quick ? 2_s : 8_s, .a = NodeId{1},
                 .b = NodeId{2}}};
  return cfg;
}

exp::TrialRunner::TrialFn chaos(exp::ChurnConfig cfg,
                                std::size_t shards = 1) {
  cfg.fabric.shards = shards;
  return [cfg](const exp::Trial& t) { return exp::chaos_trial(cfg, t.seed); };
}

/// Sorted per-trial routed-view fingerprints (equivalence gate).
std::vector<std::pair<double, double>> views(const SweepPoint& p) {
  std::vector<std::pair<double, double>> v;
  for (const auto& t : p.trials) {
    v.emplace_back(t.scalar_or("view_digest_hi", 0.0),
                   t.scalar_or("view_digest_lo", 0.0));
  }
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args =
      BenchArgs::parse(argc, argv, "BENCH_chaos.json", kRegions);
  GateBench bench("chaos_soak", args, args.quick ? 1 : 3, 9300,
                  "6 s horizon, jobs/shards {1,2}, loss sweep {0, 5%} "
                  "(full: 20 s horizon, {1,2,4} sweeps, loss "
                  "{0, 2%, 5%, 12%})",
                  {"ok", "consistency_ok", "leak_free", "quiescent",
                   "conservation_ok"});
  const std::vector<std::size_t> small{1, 2};
  const std::vector<std::size_t> full{1, 2, 4};
  const auto jobs_sweep = sweep_values(args.quick ? small : full, args.jobs);
  const auto shards_sweep =
      sweep_values(args.quick ? small : full, args.shards);
  const std::vector<double> loss_sweep =
      args.quick ? std::vector<double>{0.0, 0.05}
                 : std::vector<double>{0.0, 0.02, 0.05, 0.12};

  // Gate 1: identical digests at every --jobs value (default profile).
  for (const std::size_t jobs : jobs_sweep) {
    bench.run("grid", jobs, 1, chaos(base_config(args.quick)));
  }
  // Gate 2: identical digests at every --shards value on the 4-region
  // fabric (jobs pinned to 1 so only the fold varies).
  for (const std::size_t shards : shards_sweep) {
    bench.run("regions4", 1, shards,
              chaos(regions_config(args.quick), shards));
  }
  bool sweep_clean = bench.all_clean();

  // Gate 3: loss sweep — every point at <= 5% must come back clean
  // (higher points are informational: the transport still converges but
  // the ladder may time circuits out).
  for (const double loss : loss_sweep) {
    char label[32];
    std::snprintf(label, sizeof label, "loss%.0f%%", loss * 100.0);
    const SweepPoint& p =
        bench.run(label, 1, 1, chaos(loss_config(args.quick, loss)));
    if (loss <= 0.05) sweep_clean = sweep_clean && p.clean;
  }

  // Gate 4: a silent partition (dead-peer verdict detection) must land
  // on the same routed view as an explicit sever of the same link, and
  // must actually have exercised the verdict path.
  SweepPoint& partition = bench.run(
      "partition", 1, 1,
      chaos(cut_config(args.quick, exp::ChurnEventKind::partition)));
  SweepPoint& sever = bench.run(
      "sever", 1, 1,
      chaos(cut_config(args.quick, exp::ChurnEventKind::sever)));
  const bool same_view = views(partition) == views(sever);
  partition.digests_match = sever.digests_match = same_view;
  sweep_clean = sweep_clean && partition.clean && sever.clean;

  bench.gate("jobs_digests_bit_identical", bench.digests_agree("grid"),
             "aggregates bit-identical across --jobs");
  bench.gate("shards_digests_bit_identical", bench.digests_agree("regions4"),
             "aggregates bit-identical across --shards");
  bench.gate("low_loss_trials_clean", sweep_clean,
             "low-loss trials clean (ok + consistency + leak-free + "
             "quiescent + conservation)");
  bench.gate("partition_equals_sever",
             same_view && partition.mean("dead_verdicts") > 0.0,
             "silent partition matches the explicit sever view");
  return bench.finish(
      "Chaos soak — fault injection + reliable transport, digests "
      "bit-identical across --jobs and --shards",
      {mean_column("slo_mean", "slo", 4),
       mean_column("retransmits_mean", "retransmits", 1),
       mean_column("dead_verdicts_mean", "dead_verdicts", 2),
       mean_column("decode_errors_mean", "net_decode_errors", 1)});
}
