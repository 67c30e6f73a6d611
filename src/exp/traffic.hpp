// exp::traffic_trial — open-loop arrival workloads with per-request SLOs.
//
// The multiflow scenarios issue a fixed batch of requests and wait; real
// networks see request *streams*. traffic_trial drives any TopologyFamily
// fabric with seeded open-loop arrivals (Poisson, 2-state MMPP bursts, or
// a diurnal raised-cosine ramp), submits each arrival as an AppRequest
// carrying its SLO (fidelity floor + latency budget, expressed to the
// engine as deadline/delta_t so QNP policing rejects what cannot be
// served in time), and records accept/shape/reject, SLO attainment, tail
// latency (exact per-trial p50/p99/p99.9 plus a reservoir-capped sample
// export, at most 512 samples per trial) and engine flow-table occupancy
// over the horizon, in 16 fixed windows. Everything is
// seeded via derive_stream_seed, so aggregates are bit-identical at any
// --jobs value.
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

  bool in_burst() const { return phase_burst_; }
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
// Traffic workload over a TopologyFamily fabric.
// ---------------------------------------------------------------------------
struct TrafficSlo {
  /// Minimum acceptable mean (oracle) fidelity per request; 0 = no floor.
  double fidelity_floor = 0.0;
  /// End-to-end completion budget. Submitted to the engine as the
  /// request deadline AND keep-window, so min_eer() > 0 and policing
  /// (not shaping) applies: overload rejects instead of queueing.
  Duration latency_budget = Duration::seconds(30);
};

struct TrafficConfig {
  TopologyFamily family = TopologyFamily::grid;
  std::size_t size = 3;
  std::size_t n_circuits = 2;
  ArrivalConfig arrivals;
  TrafficSlo slo;
  /// Fraction of arrivals submitted best-effort: same keep-window but no
  /// deadline, so under overload they queue in the shaping deque instead
  /// of being policed away, and they carry no SLO.
  double best_effort_fraction = 0.0;
  std::uint64_t pairs_per_request = 2;
  double fidelity = 0.72;  ///< end-to-end circuit fidelity target
  bool short_cutoff = true;
  Duration horizon = Duration::seconds(300);
  /// Occupancy windows starting before this offset are excluded from the
  /// steady-state/peak statistics (circuit setup transient).
  Duration warmup = Duration::seconds(30);
};

/// Runs one seeded open-loop traffic trial.
///
/// scalars: ok, admitted, offered, accepted, shaped, rejected,
/// completed, slo_met, slo_eligible, slo_attainment, latency_p50_s,
/// latency_p99_s, latency_p999_s (when any request completed),
/// occ_steady, occ_peak, occ_early, occ_late, occ_expired_wholesale,
/// occ_flat, consistency_ok, events. samples: occ_win_mean (post-warmup
/// per-window mean occupancy, in window order), latency_res_s
/// (reservoir-capped completed-request latencies).
[[nodiscard]] TrialResult traffic_trial(const TrafficConfig& cfg, std::uint64_t seed);

}  // namespace qnetp::exp
