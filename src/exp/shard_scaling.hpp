// exp::shard_scaling — the 100+ node multi-region fabric that exercises
// the sharded conservative-parallel DES kernel (des::ShardedSimulator).
//
// The fabric is region_grid_spec: a row of `regions` grid networks
// stitched by long-haul classical bridges. Quantum circuits stay
// region-local (region_flow_endpoints), keepalive chatter crosses every
// bridge every 25 ms, and the bridge propagation delay is the
// conservative lookahead. Each region
// carries `circuits_per_region` concurrent 3-hop circuits driven by
// independent seeded Poisson request pumps that run *inside* the event
// loop of the head node's shard — so at shards > 1 the regions genuinely
// execute in parallel, and the trial digest (every scalar and sample)
// must still be bit-identical at any shard count. That invariance is the
// acceptance gate of bench/shard_scaling.
#pragma once

#include <cstdint>

#include "exp/traffic.hpp"
#include "exp/trial.hpp"
#include "qbase/units.hpp"

namespace qnetp::exp {

struct ShardScalingConfig {
  /// Logical regions (grids); execution shards fold onto these.
  std::size_t regions = 4;
  std::size_t region_rows = 3;
  std::size_t region_cols = 9;  ///< 4 x (3x9) = 108 nodes by default
  /// Concurrent circuits established inside each region (3-hop, or the
  /// longest hop count the grid supports).
  std::size_t circuits_per_region = 13;
  /// Worker event loops; must be <= regions. 1 = every region on the
  /// driver thread, no workers.
  std::size_t shards = 1;

  std::uint64_t pairs_per_request = 2;
  double fidelity = 0.72;
  bool short_cutoff = true;
  /// Per-flow open-loop request arrivals (independent stream per flow).
  ArrivalConfig arrivals{ArrivalKind::poisson, 4.0};
  /// Request keep-window and deadline (policed under overload).
  Duration latency_budget = Duration::seconds(2);

  /// Circuits are established on a fixed slot grid (one per slot, the
  /// slot also bounding the install wait) so establishment instants are
  /// identical at every shard count.
  Duration establish_slot = Duration::ms(50);

  Duration horizon = Duration::seconds(5);  ///< open-loop traffic window
  /// Fabric-wide flow-table occupancy samples, taken at fixed absolute
  /// times from the driver thread (between conservative windows).
  std::size_t occupancy_samples = 8;
};

/// Runs one seeded trial at cfg.shards worker loops.
///
/// scalars: ok, nodes, regions, admitted, offered, accepted, shaped,
/// rejected, completed, latency_mean_s (when any completed),
/// classical_msgs, consistency_ok, events. samples: occ_live (fabric
/// occupancy per sample instant), latency_s (completed-request
/// latencies, flow-major order). Every scalar and sample is
/// bit-identical across shard counts (cfg.shards is deliberately not
/// echoed into the result).
[[nodiscard]] TrialResult shard_scaling_trial(const ShardScalingConfig& cfg,
                                std::uint64_t seed);

}  // namespace qnetp::exp
