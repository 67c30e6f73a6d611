#include "ctrl/controller.hpp"

#include <algorithm>
#include <cmath>

#include "qbase/assert.hpp"
#include "qbase/log.hpp"

namespace qnetp::ctrl {

using namespace qnetp::literals;

Controller::Controller(const Topology& topology, qhw::HardwareParams hardware,
                       ControllerConfig config)
    : topology_(topology), hardware_(std::move(hardware)), config_(config) {
  hardware_.validate();
}

bool Controller::plan_on_path(const std::vector<NodeId>& path,
                              const PathPlanInput& input,
                              const CircuitPlanOptions& options,
                              CircuitPlan* plan,
                              std::vector<PathGrant>* grants,
                              std::string* why) {
  auto fail = [&](const std::string& what) {
    *why = what;
    return false;
  };
  const std::size_t hops = path.size() - 1;

  // Collect the links along the path.
  std::vector<const TopologyLink*> links;
  links.reserve(hops);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto* l = topology_.link_between(path[i], path[i + 1]);
    QNETP_ASSERT(l != nullptr);
    links.push_back(l);
  }

  const Duration memory_t2 = hardware_.phys.electron_t2;

  // The cutoff and the required link fidelity depend on each other;
  // resolve by fixed-point iteration (converges in a few rounds: the
  // coupling is weak).
  double link_fidelity =
      std::min(0.95, input.end_to_end_fidelity + 0.04);
  Duration cutoff = options.cutoff_override;
  for (int round = 0; round < 12; ++round) {
    if (options.cutoff_override <= Duration::zero()) {
      if (options.cutoff_generation_quantile > 0.0) {
        // Shorter cutoff: time by which each link generates a pair with
        // the requested probability; take the slowest link.
        Duration worst = Duration::zero();
        for (const auto* l : links) {
          double alpha = 0.0;
          if (!l->model.solve_alpha(link_fidelity, &alpha)) {
            return fail("link cannot reach the required fidelity");
          }
          worst = std::max(
              worst, l->model.generation_time_quantile(
                         alpha, options.cutoff_generation_quantile));
        }
        cutoff = worst;
      } else {
        // "The time it takes a link-pair to lose approximately 1.5% of its
        // initial fidelity" (Sec. 5).
        constexpr double kCutoffLossFraction = 0.015;
        cutoff = FidelityModel::cutoff_for_fidelity_loss(
            link_fidelity, kCutoffLossFraction, memory_t2);
        if (cutoff == Duration::max()) {
          // No decay at all: any large-but-finite window works.
          cutoff = 60_s;
        }
      }
    }

    FidelityModel model(PathAssumptions{hops, cutoff, memory_t2, hardware_});
    double required = 0.0;
    if (!model.required_link_fidelity(input.end_to_end_fidelity,
                                      &required)) {
      return fail("end-to-end fidelity unreachable over this path length");
    }
    if (std::abs(required - link_fidelity) < 1e-6) {
      link_fidelity = required;
      break;
    }
    link_fidelity = required;
  }

  // Feasibility, rate capacity and pairing probability per link at the
  // required fidelity.
  std::vector<double> link_capacity(hops, 0.0);
  double bottleneck_lpr = std::numeric_limits<double>::infinity();
  double worst_par_prob = 1.0;
  for (std::size_t i = 0; i < hops; ++i) {
    double alpha = 0.0;
    if (!links[i]->model.solve_alpha(link_fidelity, &alpha)) {
      return fail("link cannot reach the required fidelity");
    }
    const double mean_s =
        links[i]->model.mean_generation_time(alpha).as_seconds();
    link_capacity[i] = 1.0 / mean_s;
    bottleneck_lpr = std::min(bottleneck_lpr, link_capacity[i]);
    // Probability this link produces a pair within the cutoff window
    // (geometric tail) — how well neighbouring links can be paired.
    const double p =
        1.0 - std::exp(-cutoff.as_seconds() / std::max(mean_s, 1e-12));
    worst_par_prob = std::min(worst_par_prob, p);
  }
  // The EER a link pair rate of `lpr` can sustain: the bottleneck link's
  // pair rate scaled by the chance a matching pair exists within the
  // cutoff window (heuristic; the paper's controller plans in isolation
  // and leaves resource management out of scope).
  const double solo_max_eer = bottleneck_lpr * 0.5 * worst_par_prob;

  // --- Admission against the commitments of installed circuits ----------
  grants->clear();
  grants->reserve(hops);
  double admitted_bottleneck =
      std::numeric_limits<double>::infinity();  // admitted LPR, bottleneck
  const bool guaranteed = options.requested_eer > 0.0;
  // The per-link LPR needed to sustain the guaranteed EER (inverse of the
  // EER bound above).
  const double lpr_need =
      guaranteed
          ? 2.0 * options.requested_eer / std::max(worst_par_prob, 1e-12)
          : 0.0;
  for (std::size_t i = 0; i < hops; ++i) {
    const auto it = commits_.find(links[i]->id);
    const double reserved =
        it == commits_.end() ? 0.0 : it->second.guaranteed_lpr;
    const std::size_t occupants = it == commits_.end() ? 0 : it->second.circuits;
    if (config_.max_circuits_per_link > 0 &&
        occupants >= config_.max_circuits_per_link) {
      return fail("admission: no circuit slot left on " +
                  links[i]->id.to_string());
    }
    const double usable = link_capacity[i];
    const double residual = usable - reserved;
    if (guaranteed) {
      if (lpr_need > usable + 1e-12) {
        return fail("admission: guaranteed rate exceeds capacity of " +
                    links[i]->id.to_string());
      }
      if (lpr_need > residual + 1e-12) {
        return fail("admission: " + links[i]->id.to_string() +
                    " saturated by installed circuits");
      }
      grants->push_back(PathGrant{links[i]->id, lpr_need, lpr_need, usable});
      admitted_bottleneck = std::min(admitted_bottleneck, lpr_need);
    } else {
      // A best-effort circuit is refused when less than this fraction of
      // a link's capacity remains unreserved: it could not make progress.
      constexpr double kMinResidualFraction = 0.01;
      if (residual < kMinResidualFraction * link_capacity[i]) {
        return fail("admission: " + links[i]->id.to_string() +
                    " saturated by installed circuits");
      }
      grants->push_back(PathGrant{links[i]->id, residual, 0.0, usable});
      admitted_bottleneck = std::min(admitted_bottleneck, residual);
    }
  }
  const double max_eer =
      guaranteed ? options.requested_eer
                 : admitted_bottleneck * 0.5 * worst_par_prob;

  plan->link_fidelity = link_fidelity;
  plan->max_lpr = bottleneck_lpr;
  plan->max_eer = max_eer;
  plan->cutoff = cutoff;
  plan->path = path;
  plan->links.clear();
  for (const auto* l : links) plan->links.push_back(l->id);
  plan->admitted_share =
      solo_max_eer > 0.0 ? std::min(1.0, max_eer / solo_max_eer) : 0.0;
  plan->requested_eer = options.requested_eer;
  plan->par_prob = worst_par_prob;

  plan->install = netmsg::InstallMsg{};
  plan->install.head_end_identifier = input.head_endpoint;
  plan->install.tail_end_identifier = input.tail_endpoint;
  plan->install.end_to_end_fidelity = input.end_to_end_fidelity;
  for (std::size_t i = 0; i < path.size(); ++i) {
    netmsg::HopState hop;
    hop.node = path[i];
    hop.upstream = (i > 0) ? path[i - 1] : NodeId{};
    hop.downstream = (i + 1 < path.size()) ? path[i + 1] : NodeId{};
    hop.downstream_min_fidelity = (i + 1 < path.size()) ? link_fidelity : 0.0;
    // The WFQ scheduler weight: this circuit's admitted share of the
    // link's pair rate, not the raw link capacity.
    hop.downstream_max_lpr =
        (i + 1 < path.size()) ? (*grants)[i].weight_lpr : 0.0;
    hop.circuit_max_eer = max_eer;
    hop.cutoff = cutoff;
    plan->install.hops.push_back(hop);
  }
  return true;
}

std::optional<CircuitPlan> Controller::plan_circuit(
    NodeId head, NodeId tail, EndpointId head_endpoint,
    EndpointId tail_endpoint, double end_to_end_fidelity,
    const CircuitPlanOptions& options, std::string* reason) {
  auto fail = [&](const std::string& why) -> std::optional<CircuitPlan> {
    if (reason != nullptr) *reason = why;
    return std::nullopt;
  };

  const auto shortest = topology_.shortest_path(head, tail);
  if (!shortest.has_value()) return fail("no path between end-nodes");
  if (shortest->size() < 2) return fail("head and tail are the same node");

  const PathPlanInput input{head, tail, head_endpoint, tail_endpoint,
                            end_to_end_fidelity};
  CircuitPlan plan;
  std::vector<PathGrant> grants;
  std::string first_why;
  bool planned = plan_on_path(*shortest, input, options, &plan, &grants,
                              &first_why);

  if (!planned && options.max_paths > 1) {
    // k-shortest-path fallback: the shortest path is saturated or
    // infeasible; a longer detour may still carry the circuit.
    const auto alternatives =
        topology_.k_shortest_paths(head, tail, options.max_paths);
    for (std::size_t i = 1; i < alternatives.size() && !planned; ++i) {
      std::string why;
      planned = plan_on_path(alternatives[i], input, options, &plan,
                             &grants, &why);
    }
  }
  if (!planned) return fail(first_why);

  // Allocate the circuit id and one label per link (MPLS-style), then
  // commit the admitted capacity.
  plan.install.circuit_id = CircuitId{next_circuit_++};
  std::vector<LinkLabel> labels;
  labels.reserve(plan.links.size());
  for (std::size_t i = 0; i < plan.links.size(); ++i) {
    labels.push_back(LinkLabel{next_label_++});
  }
  for (std::size_t i = 0; i < plan.install.hops.size(); ++i) {
    auto& hop = plan.install.hops[i];
    hop.upstream_label = (i > 0) ? labels[i - 1] : LinkLabel{};
    hop.downstream_label =
        (i + 1 < plan.install.hops.size()) ? labels[i] : LinkLabel{};
  }
  for (const auto& g : grants) {
    auto& commit = commits_[g.link];
    commit.guaranteed_lpr += g.reserved_lpr;
    commit.circuits += 1;
  }
  planned_[plan.install.circuit_id] =
      PlannedCircuit{grants, plan.path, plan.par_prob, options.requested_eer,
                     /*update_version=*/0};
  if (options.requested_eer > 0.0) {
    // A new guarantee shrinks the residual every best-effort circuit on
    // the shared links lives off — re-signal them.
    requeue_residual_updates(plan.links);
  }
  return plan;
}

void Controller::release_circuit(CircuitId id) {
  const auto it = planned_.find(id);
  if (it == planned_.end()) return;
  const bool was_guaranteed = it->second.requested_eer > 0.0;
  std::vector<LinkId> released_links;
  for (const auto& g : it->second.grants) {
    released_links.push_back(g.link);
    const auto commit_it = commits_.find(g.link);
    QNETP_ASSERT(commit_it != commits_.end());
    auto& commit = commit_it->second;
    commit.guaranteed_lpr =
        std::max(0.0, commit.guaranteed_lpr - g.reserved_lpr);
    QNETP_ASSERT(commit.circuits > 0);
    commit.circuits -= 1;
    if (commit.circuits == 0) commits_.erase(commit_it);
  }
  planned_.erase(it);
  // Drop any pending re-signal for the circuit that just went away.
  std::erase_if(pending_updates_, [&](const ResidualUpdate& u) {
    return u.msg.circuit_id == id;
  });
  if (was_guaranteed) requeue_residual_updates(released_links);
}

void Controller::requeue_residual_updates(const std::vector<LinkId>& changed) {
  for (auto& [id, circuit] : planned_) {
    if (circuit.requested_eer > 0.0) continue;  // guarantees never move
    const bool crosses = std::any_of(
        circuit.grants.begin(), circuit.grants.end(), [&](const PathGrant& g) {
          return std::find(changed.begin(), changed.end(), g.link) !=
                 changed.end();
        });
    if (!crosses) continue;

    double bottleneck = std::numeric_limits<double>::infinity();
    bool moved = false;
    for (auto& g : circuit.grants) {
      const double residual =
          std::max(0.0, g.usable_lpr - committed_lpr(g.link));
      if (std::abs(residual - g.weight_lpr) > 1e-9 * std::max(1.0, residual)) {
        moved = true;
      }
      g.weight_lpr = residual;
      bottleneck = std::min(bottleneck, residual);
    }
    if (!moved) continue;

    circuit.update_version += 1;
    netmsg::UpdateMsg msg;
    msg.circuit_id = id;
    msg.version = circuit.update_version;
    const double eer = bottleneck * 0.5 * circuit.par_prob;
    for (std::size_t i = 0; i < circuit.path.size(); ++i) {
      netmsg::UpdateHop hop;
      hop.node = circuit.path[i];
      hop.downstream_max_lpr =
          (i + 1 < circuit.path.size()) ? circuit.grants[i].weight_lpr : 0.0;
      hop.circuit_max_eer = eer;
      msg.hops.push_back(hop);
    }
    // One pending entry per circuit: a later recompute supersedes an
    // undrained one (versions stay monotone either way).
    const auto pending = std::find_if(
        pending_updates_.begin(), pending_updates_.end(),
        [&](const ResidualUpdate& u) { return u.msg.circuit_id == id; });
    if (pending != pending_updates_.end()) {
      pending->msg = std::move(msg);
    } else {
      pending_updates_.push_back(
          ResidualUpdate{circuit.path.front(), std::move(msg)});
    }
  }
}

std::vector<Controller::ResidualUpdate> Controller::take_residual_updates() {
  std::vector<ResidualUpdate> out;
  out.swap(pending_updates_);
  return out;
}

double Controller::committed_lpr(LinkId id) const {
  const auto it = commits_.find(id);
  return it == commits_.end() ? 0.0 : it->second.guaranteed_lpr;
}

std::size_t Controller::circuits_on(LinkId id) const {
  const auto it = commits_.find(id);
  return it == commits_.end() ? 0 : it->second.circuits;
}

}  // namespace qnetp::ctrl
