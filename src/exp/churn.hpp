// Runtime-churn and chaos trials: circuits established over a
// link-state-routed fabric while a scripted timeline severs, degrades,
// heals and silently partitions links, kills nodes and injects flash
// crowds of admissions — optionally over classical channels that drop,
// duplicate, reorder and corrupt messages (netmsg::FaultProfile) behind
// the reliable signalling transport (netmsg::ReliableEndpoint).
//
// One driver runs both trials; they differ only in the metrics they
// export. It drives the fabric through netsim::Network's churn API from
// the driver thread on a fixed stride grid, so every event lands at an
// absolute simulated time: results are a pure function of (config, seed)
// and therefore bit-identical across --jobs (trial parallelism) and
// --shards (intra-fabric execution sharding) — the digest gates
// bench/routing_churn and bench/chaos_soak enforce.
#pragma once

#include <cstdint>
#include <vector>

#include "ctrl/linkstate.hpp"
#include "exp/scenarios.hpp"
#include "exp/trial.hpp"
#include "netmsg/fault.hpp"
#include "netmsg/transport.hpp"
#include "qbase/units.hpp"

namespace qnetp::exp {

enum class ChurnEventKind {
  sever,        ///< cut the link a-b (circuits crossing it tear down)
  partition,    ///< cut a-b silently: only the transport's dead-peer
                ///< verdicts can detect it (needs the transport)
  degrade,      ///< scale the advertised cost of a-b by cost_factor
  heal,         ///< undo a sever of a-b
  fail_node,    ///< silently kill `node`
  flash_crowd,  ///< burst of `crowd` extra best-effort admissions
};

/// One scripted fault/load event, applied at `at` past traffic start.
struct ChurnEvent {
  ChurnEventKind kind = ChurnEventKind::sever;
  Duration at = Duration::zero();
  NodeId a{}, b{};           ///< link endpoints (sever/partition/degrade/heal)
  NodeId node{};             ///< fail_node target
  double cost_factor = 4.0;  ///< degrade
  std::size_t crowd = 2;     ///< flash_crowd admissions
};

struct ChurnConfig {
  TopologyFamily family = TopologyFamily::grid;
  std::size_t size = 3;
  /// Flows established before traffic (per region when regions > 1).
  std::size_t n_circuits = 2;
  /// The LAST n_guaranteed of those flows demand `requested_eer`
  /// guaranteed — establishing them squeezes the earlier best-effort
  /// flows and exercises the UPDATE re-signalling path.
  std::size_t n_guaranteed = 0;
  double requested_eer = 1.0;
  std::uint64_t pairs_per_request = 4;
  double fidelity = 0.72;
  bool short_cutoff = true;
  std::size_t max_circuits_per_link = 0;

  /// Channel fault injection (inert by default). The profile's seed is
  /// re-derived from the trial seed, so every trial sees its own fault
  /// pattern.
  netmsg::FaultProfile faults;
  /// Reliable signalling transport (off by default; faults without it
  /// lose INSTALL/TEARDOWN messages outright).
  netmsg::ReliableConfig transport;

  ctrl::LinkStateConfig linkstate;
  /// Router convergence time before the first admission.
  Duration warmup = Duration::seconds(3);
  /// Driver stride: control-plane servicing cadence during traffic.
  Duration stride = Duration::ms(250);
  /// Establishment slot (one circuit per slot, also the install wait).
  Duration establish_slot = Duration::ms(100);
  Duration horizon = Duration::seconds(60);
  /// Settle time after the horizon before the leak/quiescence audit.
  Duration drain = Duration::seconds(2);

  std::vector<ChurnEvent> events;  ///< applied in `at` order

  /// Multi-region mode (regions > 1): `regions` composed grids of
  /// region_rows x region_cols replace the single `family` fabric, and
  /// `shards` worker loops execute them.
  std::size_t regions = 1;
  std::size_t region_rows = 2;
  std::size_t region_cols = 3;
  std::size_t shards = 1;
};

/// A small default fault timeline for a single-region family: sever a
/// first-flow link, degrade another, heal the severed one, then a flash
/// crowd — all on nodes every family of `size` has.
[[nodiscard]] std::vector<ChurnEvent> default_churn_timeline(TopologyFamily family,
                                               std::size_t size);

/// A ChurnConfig under the chaos fault profile: 2% drop, 2% duplication,
/// 5% reordering, 1% corruption and 1 ms jitter on every classical
/// channel, behind the reliable transport.
[[nodiscard]] ChurnConfig chaos_config();

/// scalars: ok, admitted, rejected, crowd_admitted, crowd_rejected,
/// torn_down, delivered, completed, updates_applied, lsas_received,
/// lsas_aged_out, spf_runs, consistency_ok, leak_free, quiescent,
/// events. samples: flow_delivered (established-flow order).
[[nodiscard]] TrialResult churn_trial(const ChurnConfig& cfg, std::uint64_t seed);

/// The same run as churn_trial, exporting the transport and channel
/// accounting instead of the churn counters.
///
/// scalars: ok, admitted, rejected, torn_down, delivered, completed,
/// slo (completed/admitted), updates_applied, retransmits,
/// dead_verdicts, duplicates_filtered, transport_delivered,
/// payload_decode_errors, net_sent, net_duplicated, net_delivered,
/// fault_dropped, corrupted, reordered, net_decode_errors,
/// conservation_ok (per-channel sent + duplicated == delivered +
/// dropped + in flight), consistency_ok, leak_free, quiescent,
/// view_digest_lo, view_digest_hi (the routed view's fingerprint, which
/// bench/chaos_soak compares between a partition and its sever twin),
/// events. samples: flow_delivered.
[[nodiscard]] TrialResult chaos_trial(const ChurnConfig& cfg,
                                      std::uint64_t seed);

}  // namespace qnetp::exp
