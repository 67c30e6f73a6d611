// Central controller: routing + circuit computation (Sec. 5), extended
// with concurrent-circuit admission control.
//
// Produces, for a requested (head, tail, end-to-end fidelity), the full
// source-routed InstallMsg: path, per-link labels, per-link minimum
// fidelities, maximum LPRs, circuit max-EER and the cutoff timeout. The
// signalling role (actually installing the state hop by hop) is performed
// by the QNP engines relaying the InstallMsg; see QnpEngine::begin_install.
//
// Beyond the paper (whose controller plans each circuit in isolation),
// this controller tracks the link-pair-rate capacity every installed
// circuit has claimed on every link it crosses. A plan with a guaranteed
// rate demand (options.requested_eer) hard-reserves capacity; a
// best-effort plan is granted the residual capacity left by the
// guarantees. When the shortest path cannot admit the circuit the
// controller falls back to the k-shortest alternatives (Yen) before
// rejecting, and `release_circuit` returns the capacity on teardown. The
// per-link admitted share is what the data plane uses as the WFQ
// scheduler weight (HopState::downstream_max_lpr).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ctrl/fidelity_model.hpp"
#include "ctrl/topology.hpp"
#include "netmsg/message.hpp"

namespace qnetp::ctrl {

struct CircuitPlanOptions {
  /// Alternative "shorter cutoff": the time by which a link-pair is
  /// generated with this probability (0 disables; Sec. 5.1 uses 0.85).
  double cutoff_generation_quantile = 0.0;
  /// Override the cutoff entirely (manual tuning, Sec. 5.3).
  Duration cutoff_override = Duration::zero();
  /// Guaranteed end-to-end rate demand (pairs/s). The controller
  /// hard-reserves the link capacity needed to sustain it and rejects the
  /// circuit when no candidate path has that much left. 0 = best-effort:
  /// the circuit is granted whatever capacity the guarantees leave free.
  double requested_eer = 0.0;
  /// Candidate paths to try before rejecting (k of the k-shortest-path
  /// fallback; 1 = shortest path only, the paper's behaviour).
  std::size_t max_paths = 4;
};

struct CircuitPlan {
  netmsg::InstallMsg install;
  double link_fidelity = 0.0;  ///< required per-link fidelity
  double max_lpr = 0.0;        ///< per-link max pair rate at that fidelity
  double max_eer = 0.0;        ///< end-to-end rate bound (admitted)
  Duration cutoff;
  std::vector<NodeId> path;
  std::vector<LinkId> links;    ///< links along the path, in hop order
  double admitted_share = 1.0;  ///< admitted fraction of bottleneck capacity
  double requested_eer = 0.0;   ///< the guarantee this plan reserved (0=BE)
  double par_prob = 1.0;        ///< worst pairing probability on the path
};

/// Capacity-model knobs for admission control.
struct ControllerConfig {
  /// Maximum concurrent circuits per link, modelling the communication
  /// qubits a link can dedicate to distinct purposes (0 = unlimited).
  std::size_t max_circuits_per_link = 0;
};

class Controller {
 public:
  Controller(const Topology& topology, qhw::HardwareParams hardware,
             ControllerConfig config = {});

  /// Compute a circuit plan and commit its capacity. Returns nullopt
  /// (with reason) when no path exists, the fidelity target is
  /// unreachable on this hardware, or every candidate path is saturated.
  std::optional<CircuitPlan> plan_circuit(
      NodeId head, NodeId tail, EndpointId head_endpoint,
      EndpointId tail_endpoint, double end_to_end_fidelity,
      const CircuitPlanOptions& options = {}, std::string* reason = nullptr);

  /// Release the capacity a planned circuit had claimed (teardown, or an
  /// installation that failed). Unknown ids are ignored.
  void release_circuit(CircuitId id);

  /// Guaranteed pairs/s currently reserved on a link.
  double committed_lpr(LinkId id) const;
  /// Installed circuits currently crossing a link.
  std::size_t circuits_on(LinkId id) const;
  /// Circuits whose capacity is currently committed.
  std::size_t planned_circuits() const { return planned_.size(); }

  /// An admission re-signal for one installed best-effort circuit whose
  /// residual changed (a later guaranteed circuit shrank it, or a
  /// release regrew it). Send `msg` from `head` down the circuit.
  struct ResidualUpdate {
    NodeId head;
    netmsg::UpdateMsg msg;
  };
  /// Drain the re-signals accumulated by plan_circuit/release_circuit
  /// since the last call (deterministic circuit-id order).
  std::vector<ResidualUpdate> take_residual_updates();

 private:
  struct LinkCommit {
    double guaranteed_lpr = 0.0;
    std::size_t circuits = 0;
  };
  struct PathPlanInput {
    NodeId head, tail;
    EndpointId head_endpoint, tail_endpoint;
    double end_to_end_fidelity = 0.0;
  };

  /// One link's admission outcome on a candidate path.
  struct PathGrant {
    LinkId link;
    double weight_lpr = 0.0;    ///< WFQ weight: the admitted LPR share
    double reserved_lpr = 0.0;  ///< hard reservation (0 for best-effort)
    double usable_lpr = 0.0;    ///< link capacity x utilisation headroom
  };

  /// Everything remembered about an installed circuit: enough to
  /// recompute a best-effort circuit's residual share when the
  /// guarantees around it change.
  struct PlannedCircuit {
    std::vector<PathGrant> grants;
    std::vector<NodeId> path;
    double par_prob = 1.0;      ///< worst pairing probability on the path
    double requested_eer = 0.0; ///< > 0 = guaranteed (never re-signalled)
    std::uint64_t update_version = 0;
  };

  /// Recompute the residual share of every installed best-effort circuit
  /// crossing `changed` links and queue UPDATEs for the ones that moved.
  void requeue_residual_updates(const std::vector<LinkId>& changed);

  /// Try to plan on one concrete path; fills `plan` and the per-link
  /// grants on success, or explains why the path cannot carry the
  /// circuit.
  bool plan_on_path(const std::vector<NodeId>& path,
                    const PathPlanInput& input,
                    const CircuitPlanOptions& options, CircuitPlan* plan,
                    std::vector<PathGrant>* grants, std::string* why);

  const Topology& topology_;
  qhw::HardwareParams hardware_;
  ControllerConfig config_;
  std::uint64_t next_circuit_ = 1;
  std::uint64_t next_label_ = 1;
  std::unordered_map<LinkId, LinkCommit> commits_;
  /// Per planned circuit: what was committed on each link it crosses
  /// (ordered so re-signalling walks circuits deterministically).
  std::map<CircuitId, PlannedCircuit> planned_;
  std::vector<ResidualUpdate> pending_updates_;
};

}  // namespace qnetp::ctrl
