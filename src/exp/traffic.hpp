// exp::traffic_trial — open-loop arrival workloads with per-request SLOs.
//
// The multiflow scenarios issue a fixed batch of requests and wait; real
// networks see request *streams*. traffic_trial drives any exp::Fabric (a
// TopologyFamily graph, or composed region grids on several shards) with
// seeded open-loop arrivals (Poisson, 2-state MMPP bursts, or a diurnal
// raised-cosine ramp), one independent stream per circuit pumped on its
// head node's event loop. Each arrival is submitted as an AppRequest
// carrying its SLO (a latency budget, expressed to the engine as
// deadline/delta_t so QNP policing rejects what cannot be served in
// time). The trial records accept/shape/reject, SLO attainment, tail
// latency (exact per-trial p50/p99/p99.9 plus a reservoir-capped sample
// export, at most 512 samples per trial) and fabric-wide flow-table
// occupancy at 16 fixed strides of the horizon, read between
// conservative windows. Everything is seeded via derive_stream_seed and
// merged in circuit order, so aggregates are bit-identical at any
// --jobs and --shards value.
#pragma once

#include <cstdint>

#include "exp/scenarios.hpp"
#include "exp/trial.hpp"
#include "qbase/rng.hpp"
#include "qbase/units.hpp"

namespace qnetp::exp {

// ---------------------------------------------------------------------------
// Arrival processes (open loop: arrivals never wait for completions).
// ---------------------------------------------------------------------------
enum class ArrivalKind {
  poisson,  ///< constant-rate memoryless stream
  mmpp,     ///< 2-state Markov-modulated Poisson: burst / idle phases
  diurnal,  ///< raised-cosine rate ramp (thinned Poisson)
};
const char* to_string(ArrivalKind kind);

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::poisson;
  /// Poisson: mean arrivals per second.
  double rate = 2.0;
  /// MMPP: per-phase rates and mean exponential dwell times.
  double burst_rate = 8.0;
  double idle_rate = 0.5;
  Duration burst_dwell = Duration::seconds(5);
  Duration idle_dwell = Duration::seconds(20);
  /// Diurnal: rate swings between trough_rate and peak_rate with the
  /// given period, rate(t) = trough + (peak-trough)/2 * (1 - cos(2πt/T)).
  double peak_rate = 4.0;
  double trough_rate = 0.25;
  Duration period = Duration::seconds(120);
};

/// MMPP phase accounting, exposed for the dwell-distribution tests.
struct MmppDebug {
  Duration burst_time = Duration::zero();
  Duration idle_time = Duration::zero();
  std::uint64_t bursts = 0;
  std::uint64_t idles = 0;
};

/// A seeded arrival-time generator. Pure (no simulator dependency):
/// next_after(t) returns the first arrival strictly after t, assuming
/// calls are made with non-decreasing t (the previous arrival).
class ArrivalProcess {
 public:
  ArrivalProcess(const ArrivalConfig& cfg, std::uint64_t seed);

  TimePoint next_after(TimePoint now);

  /// Instantaneous rate at t: the diurnal profile, the current MMPP
  /// phase rate, or the constant Poisson rate. For MMPP this reflects
  /// the phase as of the last next_after() call.
  double rate_at(TimePoint t) const;

  const MmppDebug& mmpp_debug() const { return debug_; }

 private:
  TimePoint next_poisson(TimePoint now);
  TimePoint next_mmpp(TimePoint now);
  TimePoint next_diurnal(TimePoint now);

  ArrivalConfig cfg_;
  Rng rng_;
  bool phase_init_ = false;
  bool phase_burst_ = false;
  TimePoint phase_end_ = TimePoint::origin();
  MmppDebug debug_;
};

// ---------------------------------------------------------------------------
// Traffic workload over any fabric.
// ---------------------------------------------------------------------------
struct TrafficConfig {
  /// A `family` graph, or composed grids when fabric.regions > 1.
  Fabric fabric;
  /// Concurrent circuits (per region when regions > 1).
  std::size_t n_circuits = 2;
  /// Each circuit's arrival stream; rates are per circuit.
  ArrivalConfig arrivals;
  /// The SLO: end-to-end completion budget. Submitted to the engine as
  /// the request deadline AND keep-window, so min_eer() > 0 and policing
  /// (not shaping) applies: overload rejects instead of queueing.
  Duration latency_budget = Duration::seconds(30);
  /// Fraction of arrivals submitted best-effort: same keep-window but no
  /// deadline, so under overload they queue in the shaping deque instead
  /// of being policed away, and they carry no SLO.
  double best_effort_fraction = 0.0;
  std::uint64_t pairs_per_request = 2;
  Duration horizon = Duration::seconds(300);
  /// Occupancy samples taken before this offset are excluded from the
  /// steady-state/peak statistics (circuit setup transient).
  Duration warmup = Duration::seconds(30);
};

/// Runs one seeded open-loop traffic trial: arrivals over the horizon,
/// then a drain of latency_budget + 1 s. An arrival at a circuit that
/// went down counts as rejected, so offered = accepted + shaped +
/// rejected.
///
/// scalars: ok, admitted, offered, accepted, shaped, rejected,
/// completed, slo_met, slo_eligible, slo_attainment, latency_p50_s,
/// latency_p99_s, latency_p999_s (when any request completed),
/// occ_steady, occ_peak, occ_early, occ_late, occ_expired_wholesale,
/// occ_flat, consistency_ok, events. samples: occ_live (post-warmup
/// fabric occupancy per stride), latency_res_s (reservoir-capped
/// completed-request latencies). Nothing echoes fabric.shards, so every
/// metric is part of the cross-shard-count digest.
[[nodiscard]] TrialResult traffic_trial(const TrafficConfig& cfg,
                                        std::uint64_t seed);

}  // namespace qnetp::exp
