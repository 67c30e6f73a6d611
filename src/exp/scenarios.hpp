// Scenario library: the paper's evaluation set-ups as seeded trial
// functions.
//
// Each function builds a fresh world (netsim::Network or a raw link rig)
// from the trial seed, runs it, and returns a TrialResult — the shared
// core behind the figure/ablation bench binaries (bench/*.cpp) and the
// tier-2 statistical regression suite (tests/regression/). Every result
// carries an "events" scalar (DES events executed) so replay guards can
// digest the full execution, not just the headline metrics.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "exp/trial.hpp"
#include "netsim/topology_spec.hpp"
#include "qbase/units.hpp"
#include "qnp/request.hpp"

namespace qnetp::exp {

/// A standard KEEP request between two endpoints.
qnp::AppRequest keep_request(std::uint64_t id, std::uint64_t pairs,
                             EndpointId head, EndpointId tail);

// ---------------------------------------------------------------------------
// Fig. 5 — single-link pair generation time CDF (EGP + photonic model).
// ---------------------------------------------------------------------------
struct LinkCdfConfig {
  std::size_t target_pairs = 1250;  ///< pairs to generate in this trial
  double min_fidelity = 0.95;
  double fiber_m = 2.0;
};
/// samples: gen_ms. scalars: pairs, mean_ms, p95_ms, events.
[[nodiscard]] TrialResult link_cdf_trial(const LinkCdfConfig& cfg, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Fig. 9 — dumbbell A0-B0 latency vs offered load, optionally with a
// competing long-running A1-B1 flow. Also the dumbbell replay-guard and
// runner-scaling workload.
// ---------------------------------------------------------------------------
struct LatencyThroughputConfig {
  Duration request_interval = Duration::ms(150);
  bool congested = false;
  Duration issue_window = Duration::seconds(50);  ///< issue requests until
  Duration horizon = Duration::seconds(55);       ///< run until
  Duration measure_from = Duration::seconds(40);
  Duration measure_until = Duration::seconds(50);
};
/// scalars: ok, throughput, latency_mean, latency_p5, latency_p95,
/// events. samples: latency_s (completed window requests).
[[nodiscard]] TrialResult latency_throughput_trial(const LatencyThroughputConfig& cfg,
                                     std::uint64_t seed);

// ---------------------------------------------------------------------------
// Fig. 8 — 1-8 simultaneous multi-pair requests over 1/2/4 circuits
// sharing the dumbbell bottleneck.
// ---------------------------------------------------------------------------
struct SharingConfig {
  std::size_t n_circuits = 1;
  double fidelity = 0.85;
  bool short_cutoff = false;
  std::size_t n_requests = 1;
  std::uint64_t pairs_per_request = 100;
  Duration horizon = Duration::seconds(900);
};
/// scalars: ok, timeout, latency_s (mean over circuit-0 requests), events.
[[nodiscard]] TrialResult sharing_trial(const SharingConfig& cfg, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Fig. 10(a,b) — two competing circuits vs memory lifetime T2*, cutoff
// strategy vs oracle-discard baseline.
// ---------------------------------------------------------------------------
struct DecoherenceConfig {
  double t2_seconds = 12.8;
  bool use_cutoff = true;
  Duration horizon = Duration::seconds(20);
};
/// scalars: ok, tput_high, tput_low, fid_high, fid_low, events.
[[nodiscard]] TrialResult decoherence_trial(const DecoherenceConfig& cfg,
                              std::uint64_t seed);

// ---------------------------------------------------------------------------
// Fig. 10(c) — throughput/goodput vs artificial classical message delay.
// ---------------------------------------------------------------------------
struct MessageDelayConfig {
  Duration extra_delay = Duration::zero();
  Duration horizon = Duration::seconds(20);
};
/// scalars: ok, tput_high, good_high, tput_low, good_low, cutoff_ms,
/// events.
[[nodiscard]] TrialResult message_delay_trial(const MessageDelayConfig& cfg,
                                std::uint64_t seed);

// ---------------------------------------------------------------------------
// Fig. 11 — near-term hardware chain with a manually installed circuit.
// ---------------------------------------------------------------------------
struct NearTermConfig {
  std::uint64_t pairs = 10;
  Duration horizon = Duration::seconds(600);
  std::size_t storage_qubits = 2;
  Duration cutoff = Duration::ms(1500);  // hand-tuned (Sec. 5.3)
};
/// scalars: ok, delivered, mean_fidelity, swaps, cutoff_discards,
/// link_fidelity, max_fidelity, events. samples: arrival_s,
/// pair_fidelity.
[[nodiscard]] TrialResult near_term_trial(const NearTermConfig& cfg, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Ablation — K requests on one aggregated circuit vs K parallel circuits.
// ---------------------------------------------------------------------------
struct AggregationConfig {
  bool aggregate = true;
  std::size_t k_requests = 2;
  std::uint64_t pairs_each = 25;
  Duration horizon = Duration::seconds(600);
};
/// scalars: ok, makespan_s, circuits, events.
[[nodiscard]] TrialResult aggregation_trial(const AggregationConfig& cfg,
                              std::uint64_t seed);

// ---------------------------------------------------------------------------
// Ablation — cutoff sweep on a 3-node chain with a fixed link fidelity.
// ---------------------------------------------------------------------------
struct CutoffSweepConfig {
  Duration cutoff = Duration::ms(40);
  Duration horizon = Duration::seconds(15);
  double link_fidelity = 0.93;
  double t2_seconds = 2.0;
};
/// scalars: ok, tput, fidelity, discards_per_s, events.
[[nodiscard]] TrialResult cutoff_sweep_trial(const CutoffSweepConfig& cfg,
                               std::uint64_t seed);

// ---------------------------------------------------------------------------
// Ablation — lazy vs blocking entanglement tracking.
// ---------------------------------------------------------------------------
struct TrackingConfig {
  bool lazy = true;
  Duration extra_delay = Duration::zero();
  std::uint64_t pairs = 30;
  Duration horizon = Duration::seconds(600);
};
/// scalars: ok, latency_s, fidelity, events.
[[nodiscard]] TrialResult tracking_trial(const TrackingConfig& cfg, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Multi-flow workloads over arbitrary topologies (netsim::TopologySpec):
// concurrent circuits competing for a shared fabric, with the
// controller's admission/re-routing in the loop.
// ---------------------------------------------------------------------------
enum class TopologyFamily {
  grid,          ///< size x size grid
  ring,          ///< size-node ring
  star,          ///< size leaves around one hub
  hetero_chain,  ///< size-node chain with alternating fiber lengths
  waxman,        ///< size-node seeded random graph (topology per trial seed)
};
const char* to_string(TopologyFamily family);

/// TopologySpec for `family` at `size` with the evaluation hardware
/// preset (waxman draws its random graph from `seed`). Shared by the
/// multiflow and traffic scenarios so both stress identical fabrics.
netsim::TopologySpec family_topology_spec(TopologyFamily family,
                                          std::size_t size,
                                          std::uint64_t seed);

/// Deterministic per-family flow endpoints (head, tail): at most
/// `n_flows` pairs spread across the topology so concurrent circuits
/// share links and nodes. Degenerate pairs are dropped, so the result
/// may be shorter than `n_flows` for tiny sizes.
[[nodiscard]] std::vector<std::pair<NodeId, NodeId>> family_flow_endpoints(
    TopologyFamily family, std::size_t size, std::size_t n_flows);

/// The multi-region fabric: `regions` rows x cols grids in a row,
/// stitched by 20 km telecom bridges (TopologySpec::compose_regions,
/// whose propagation delay is the sharded kernel's lookahead). Region r
/// holds node ids r*rows*cols+1 .. (r+1)*rows*cols, row-major.
netsim::TopologySpec region_grid_spec(std::size_t regions, std::size_t rows,
                                      std::size_t cols);

/// Region-local row circuits on region_grid_spec: `per_region` (head,
/// tail) pairs per region, region-major, each min(3, cols-1) hops along
/// one grid row. Being region-local, they are decided by the region
/// partition, never by the shard count.
[[nodiscard]] std::vector<std::pair<NodeId, NodeId>> region_flow_endpoints(
    std::size_t regions, std::size_t rows, std::size_t cols,
    std::size_t per_region);

struct MultiflowConfig {
  TopologyFamily family = TopologyFamily::grid;
  std::size_t size = 3;
  std::size_t n_circuits = 2;
  std::uint64_t pairs_per_request = 4;
  double fidelity = 0.72;
  bool short_cutoff = true;
  /// Per-circuit guaranteed EER demand (0 = best effort, never rejected
  /// by rate admission).
  double requested_eer = 0.0;
  /// Per-link concurrent-circuit cap (0 = unlimited).
  std::size_t max_circuits_per_link = 0;
  Duration horizon = Duration::seconds(300);
};
/// scalars: ok, admitted, rejected, delivered, completed, mean_fidelity,
/// mismatches, events. samples: flow_latency_s (per completed flow).
[[nodiscard]] TrialResult multiflow_trial(const MultiflowConfig& cfg, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Extension — layered DEJMPS distillation over a 3-node circuit.
// ---------------------------------------------------------------------------
struct DistillationConfig {
  std::size_t rounds = 1;
  double target = 0.85;
  std::uint64_t raw_pairs = 160;
  Duration horizon = Duration::seconds(300);
};
/// scalars: ok, raw_fidelity, out_fidelity, out_pairs, raw_pairs,
/// success_ratio, events.
[[nodiscard]] TrialResult distillation_trial(const DistillationConfig& cfg,
                               std::uint64_t seed);

}  // namespace qnetp::exp
