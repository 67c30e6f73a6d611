#include "ctrl/controller.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace qnetp::ctrl {
namespace {

using namespace qnetp::literals;

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() {
    for (std::uint64_t i = 1; i <= 6; ++i) topo_.add_node(NodeId{i});
    auto link = [&](std::uint64_t id, std::uint64_t a, std::uint64_t b) {
      topo_.add_link(TopologyLink{
          LinkId{id}, NodeId{a}, NodeId{b},
          qhw::PhotonicLinkModel(qhw::simulation_preset(),
                                 qhw::FiberParams::lab(2.0)),
          1.0});
    };
    // Dumbbell.
    link(1, 1, 5);
    link(2, 2, 5);
    link(3, 5, 6);
    link(4, 6, 3);
    link(5, 6, 4);
  }
  Topology topo_;
};

TEST_F(ControllerTest, PlansAThreeHopCircuit) {
  Controller c(topo_, qhw::simulation_preset());
  std::string reason;
  const auto plan = c.plan_circuit(NodeId{1}, NodeId{3}, EndpointId{10},
                                   EndpointId{20}, 0.85, {}, &reason);
  ASSERT_TRUE(plan.has_value()) << reason;
  EXPECT_EQ(plan->path.size(), 4u);
  EXPECT_EQ(plan->install.hops.size(), 4u);
  // Required link fidelity exceeds the end-to-end target.
  EXPECT_GT(plan->link_fidelity, 0.85);
  EXPECT_LT(plan->link_fidelity, 1.0);
  EXPECT_GT(plan->max_lpr, 0.0);
  EXPECT_GT(plan->max_eer, 0.0);
  EXPECT_GT(plan->cutoff, Duration::zero());
}

TEST_F(ControllerTest, HopStateStructure) {
  Controller c(topo_, qhw::simulation_preset());
  const auto plan = c.plan_circuit(NodeId{1}, NodeId{3}, EndpointId{10},
                                   EndpointId{20}, 0.8);
  ASSERT_TRUE(plan.has_value());
  const auto& hops = plan->install.hops;
  // Head has no upstream; tail has no downstream.
  EXPECT_FALSE(hops.front().upstream.valid());
  EXPECT_TRUE(hops.front().downstream.valid());
  EXPECT_TRUE(hops.back().upstream.valid());
  EXPECT_FALSE(hops.back().downstream.valid());
  // Labels chain: each node's downstream label equals the next node's
  // upstream label.
  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    EXPECT_EQ(hops[i].downstream_label, hops[i + 1].upstream_label);
    EXPECT_EQ(hops[i].downstream, hops[i + 1].node);
    EXPECT_EQ(hops[i + 1].upstream, hops[i].node);
  }
  // Distinct labels per link.
  EXPECT_NE(hops[0].downstream_label, hops[1].downstream_label);
}

TEST_F(ControllerTest, DistinctCircuitsGetDistinctIdsAndLabels) {
  Controller c(topo_, qhw::simulation_preset());
  const auto p1 = c.plan_circuit(NodeId{1}, NodeId{3}, EndpointId{10},
                                 EndpointId{20}, 0.8);
  const auto p2 = c.plan_circuit(NodeId{2}, NodeId{4}, EndpointId{10},
                                 EndpointId{20}, 0.8);
  ASSERT_TRUE(p1 && p2);
  EXPECT_NE(p1->install.circuit_id, p2->install.circuit_id);
  EXPECT_NE(p1->install.hops[0].downstream_label,
            p2->install.hops[0].downstream_label);
}

TEST_F(ControllerTest, HigherFidelityNeedsBetterLinksAndGivesLowerRate) {
  Controller c(topo_, qhw::simulation_preset());
  const auto low = c.plan_circuit(NodeId{1}, NodeId{3}, EndpointId{10},
                                  EndpointId{20}, 0.8);
  const auto high = c.plan_circuit(NodeId{1}, NodeId{3}, EndpointId{10},
                                   EndpointId{20}, 0.9);
  ASSERT_TRUE(low && high);
  EXPECT_GT(high->link_fidelity, low->link_fidelity);
  EXPECT_LT(high->max_lpr, low->max_lpr);
}

TEST_F(ControllerTest, ImpossibleFidelityRejected) {
  Controller c(topo_, qhw::simulation_preset());
  std::string reason;
  const auto plan = c.plan_circuit(NodeId{1}, NodeId{3}, EndpointId{10},
                                   EndpointId{20}, 0.9999, {}, &reason);
  EXPECT_FALSE(plan.has_value());
  EXPECT_FALSE(reason.empty());
}

TEST_F(ControllerTest, DisconnectedRejected) {
  topo_.add_node(NodeId{42});
  Controller c(topo_, qhw::simulation_preset());
  std::string reason;
  EXPECT_FALSE(c.plan_circuit(NodeId{1}, NodeId{42}, EndpointId{10},
                              EndpointId{20}, 0.8, {}, &reason)
                   .has_value());
  EXPECT_EQ(reason, "no path between end-nodes");
}

TEST_F(ControllerTest, ShortCutoffOptionUsesGenerationQuantile) {
  Controller c(topo_, qhw::simulation_preset());
  CircuitPlanOptions options;
  options.cutoff_generation_quantile = 0.85;
  const auto short_plan = c.plan_circuit(NodeId{1}, NodeId{3},
                                         EndpointId{10}, EndpointId{20},
                                         0.85, options);
  const auto long_plan = c.plan_circuit(NodeId{1}, NodeId{3},
                                        EndpointId{10}, EndpointId{20},
                                        0.85);
  ASSERT_TRUE(short_plan && long_plan);
  // The "shorter cutoff" (p85 of generation time, tens of ms) is far
  // below the decoherence-based one (~1 s at T2=60 s).
  EXPECT_LT(short_plan->cutoff, long_plan->cutoff / 5.0);
  // A tighter idle bound relaxes the per-link fidelity requirement
  // (Sec. 5.1: "a shorter cutoff allows the routing algorithm to ...
  // relax the fidelity requirements on each link").
  EXPECT_LE(short_plan->link_fidelity, long_plan->link_fidelity);
}

/// A chain 1-2-...-n of links with the given fibre lengths (m).
Topology chain_topology(const std::vector<double>& lengths_m) {
  Topology topo;
  for (std::uint64_t i = 1; i <= lengths_m.size() + 1; ++i) {
    topo.add_node(NodeId{i});
  }
  for (std::uint64_t i = 1; i <= lengths_m.size(); ++i) {
    topo.add_link(TopologyLink{
        LinkId{i}, NodeId{i}, NodeId{i + 1},
        qhw::PhotonicLinkModel(qhw::simulation_preset(),
                               qhw::FiberParams::lab(lengths_m[i - 1])),
        1.0});
  }
  return topo;
}

/// Mean seconds for `link` to herald one pair at fidelity `f`.
double mean_generation_s(const TopologyLink& link, double f) {
  double alpha = 0.0;
  EXPECT_TRUE(link.model.solve_alpha(f, &alpha));
  return link.model.mean_generation_time(alpha).as_seconds();
}

TEST_F(ControllerTest, MaxEerIsTheClosedFormBound) {
  // Admission's rate bound (Sec. 5): the bottleneck link's pair rate,
  // halved, times the worst chance of pairing within the cutoff.
  Controller c(topo_, qhw::simulation_preset());
  const auto plan = c.plan_circuit(NodeId{1}, NodeId{3}, EndpointId{10},
                                   EndpointId{20}, 0.85);
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->max_eer, plan->max_lpr * 0.5 * plan->par_prob);
  EXPECT_DOUBLE_EQ(plan->admitted_share, 1.0);
  EXPECT_GT(plan->par_prob, 0.0);
  EXPECT_LE(plan->par_prob, 1.0);
  for (const auto& hop : plan->install.hops) {
    EXPECT_DOUBLE_EQ(hop.circuit_max_eer, plan->max_eer);
  }
}

TEST_F(ControllerTest, AsymmetricChainIsLimitedByItsSlowestLink) {
  // The second link is 250x longer: more photon loss, slower heralding.
  const Topology topo = chain_topology({2.0, 500.0});
  Controller c(topo, qhw::simulation_preset());
  const auto plan = c.plan_circuit(NodeId{1}, NodeId{3}, EndpointId{10},
                                   EndpointId{20}, 0.8);
  ASSERT_TRUE(plan.has_value());
  const double fast_s =
      mean_generation_s(*topo.link_between(NodeId{1}, NodeId{2}),
                        plan->link_fidelity);
  const double slow_s =
      mean_generation_s(*topo.link_between(NodeId{2}, NodeId{3}),
                        plan->link_fidelity);
  ASSERT_GT(slow_s, fast_s);
  EXPECT_DOUBLE_EQ(plan->max_lpr, 1.0 / slow_s);
  // The pairing probability is the slow link's geometric tail within the
  // cutoff window.
  EXPECT_DOUBLE_EQ(plan->par_prob,
                   1.0 - std::exp(-plan->cutoff.as_seconds() / slow_s));
}

TEST_F(ControllerTest, TightCutoffLowersPairingProbabilityAndBound) {
  Controller c(topo_, qhw::simulation_preset());
  const auto loose = c.plan_circuit(NodeId{1}, NodeId{3}, EndpointId{10},
                                    EndpointId{20}, 0.85);
  CircuitPlanOptions options;
  options.cutoff_override = 1_ms;
  const auto tight = c.plan_circuit(NodeId{1}, NodeId{3}, EndpointId{10},
                                    EndpointId{20}, 0.85, options);
  ASSERT_TRUE(loose && tight);
  // A pair rarely waits out a decoherence-based cutoff; a 1 ms window
  // (well under the mean generation time) rarely sees its partner.
  EXPECT_GT(loose->par_prob, 0.99);
  EXPECT_LT(tight->par_prob, 0.5);
  EXPECT_LT(tight->max_eer, loose->max_eer);
  EXPECT_DOUBLE_EQ(tight->max_eer,
                   tight->max_lpr * 0.5 * tight->par_prob);
}

TEST_F(ControllerTest, EveryExtraHopLowersTheBound) {
  const Topology topo = chain_topology({2.0, 2.0, 2.0, 2.0});
  double prev_eer = std::numeric_limits<double>::infinity();
  double prev_fidelity = 0.0;
  for (std::uint64_t tail = 2; tail <= 5; ++tail) {
    Controller c(topo, qhw::simulation_preset());
    const auto plan = c.plan_circuit(NodeId{1}, NodeId{tail}, EndpointId{10},
                                     EndpointId{20}, 0.7);
    ASSERT_TRUE(plan.has_value()) << "hops " << tail - 1;
    // Each extra swap demands better links, which herald more slowly, so
    // the bound falls with every hop.
    EXPECT_GT(plan->link_fidelity, prev_fidelity) << "hops " << tail - 1;
    EXPECT_LT(plan->max_eer, prev_eer) << "hops " << tail - 1;
    prev_fidelity = plan->link_fidelity;
    prev_eer = plan->max_eer;
  }
}

// ---------------------------------------------------------------------------
// Admission control across concurrent circuits.
// ---------------------------------------------------------------------------

/// Diamond with a cost-preferred route: 1-2-4 (cost 2.0) and the detour
/// 1-3-4 (cost 2.2); identical link hardware so capacities match.
class AdmissionTest : public ::testing::Test {
 protected:
  AdmissionTest() {
    for (std::uint64_t i = 1; i <= 4; ++i) topo_.add_node(NodeId{i});
    auto link = [&](std::uint64_t id, std::uint64_t a, std::uint64_t b,
                    double cost) {
      topo_.add_link(TopologyLink{
          LinkId{id}, NodeId{a}, NodeId{b},
          qhw::PhotonicLinkModel(qhw::simulation_preset(),
                                 qhw::FiberParams::lab(2.0)),
          cost});
    };
    link(1, 1, 2, 1.0);
    link(2, 2, 4, 1.0);
    link(3, 1, 3, 1.1);
    link(4, 3, 4, 1.1);
  }

  /// Solo best-effort EER bound of the preferred route (throwaway
  /// controller, so nothing stays committed).
  double solo_capacity() {
    Controller probe(topo_, qhw::simulation_preset());
    const auto plan = probe.plan_circuit(NodeId{1}, NodeId{4},
                                         EndpointId{10}, EndpointId{20},
                                         0.85);
    EXPECT_TRUE(plan.has_value());
    return plan->max_eer;
  }

  Topology topo_;
};

TEST_F(AdmissionTest, BestEffortCircuitsAreNotRejected) {
  Controller c(topo_, qhw::simulation_preset());
  for (int i = 0; i < 4; ++i) {
    const auto plan = c.plan_circuit(NodeId{1}, NodeId{4}, EndpointId{10},
                                     EndpointId{20}, 0.85);
    ASSERT_TRUE(plan.has_value()) << "best-effort circuit " << i;
    EXPECT_DOUBLE_EQ(plan->requested_eer, 0.0);
  }
  EXPECT_EQ(c.planned_circuits(), 4u);
  EXPECT_EQ(c.circuits_on(LinkId{1}), 4u);
}

TEST_F(AdmissionTest, GuaranteedDemandReservesAndDerivesWfqWeight) {
  const double cap = solo_capacity();
  Controller c(topo_, qhw::simulation_preset());
  CircuitPlanOptions options;
  options.requested_eer = 0.4 * cap;
  const auto plan = c.plan_circuit(NodeId{1}, NodeId{4}, EndpointId{10},
                                   EndpointId{20}, 0.85, options);
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->max_eer, options.requested_eer);
  EXPECT_NEAR(plan->admitted_share, 0.4, 0.01);
  // The WFQ weight carried to the data plane is the admitted LPR share,
  // well below the raw link capacity.
  for (std::size_t i = 0; i + 1 < plan->install.hops.size(); ++i) {
    EXPECT_LT(plan->install.hops[i].downstream_max_lpr,
              0.5 * plan->max_lpr);
    EXPECT_GT(plan->install.hops[i].downstream_max_lpr, 0.0);
  }
  for (const LinkId link : plan->links) {
    EXPECT_GT(c.committed_lpr(link), 0.0);
    EXPECT_EQ(c.circuits_on(link), 1u);
  }
}

TEST_F(AdmissionTest, SaturatedShortestPathReroutesViaDetour) {
  const double cap = solo_capacity();
  Controller c(topo_, qhw::simulation_preset());
  CircuitPlanOptions options;
  options.requested_eer = 0.8 * cap;
  const auto first = c.plan_circuit(NodeId{1}, NodeId{4}, EndpointId{10},
                                    EndpointId{20}, 0.85, options);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->path[1], NodeId{2});  // preferred route

  options.requested_eer = 0.5 * cap;  // does not fit next to 0.8
  const auto second = c.plan_circuit(NodeId{1}, NodeId{4}, EndpointId{10},
                                     EndpointId{20}, 0.85, options);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->path[1], NodeId{3});  // re-routed around saturation

  // With the fallback disabled the same demand is rejected outright.
  options.max_paths = 1;
  std::string reason;
  EXPECT_FALSE(c.plan_circuit(NodeId{1}, NodeId{4}, EndpointId{10},
                              EndpointId{20}, 0.85, options, &reason)
                   .has_value());
  EXPECT_NE(reason.find("admission"), std::string::npos) << reason;
}

TEST_F(AdmissionTest, OverdemandRejectedEvenOnEmptyNetwork) {
  const double cap = solo_capacity();
  Controller c(topo_, qhw::simulation_preset());
  CircuitPlanOptions options;
  options.requested_eer = 2.0 * cap;
  std::string reason;
  EXPECT_FALSE(c.plan_circuit(NodeId{1}, NodeId{4}, EndpointId{10},
                              EndpointId{20}, 0.85, options, &reason)
                   .has_value());
  EXPECT_NE(reason.find("admission"), std::string::npos) << reason;
  EXPECT_EQ(c.planned_circuits(), 0u);
}

TEST_F(AdmissionTest, ReleaseRestoresCapacity) {
  const double cap = solo_capacity();
  Controller c(topo_, qhw::simulation_preset());
  CircuitPlanOptions options;
  options.requested_eer = 0.8 * cap;
  const auto first = c.plan_circuit(NodeId{1}, NodeId{4}, EndpointId{10},
                                    EndpointId{20}, 0.85, options);
  ASSERT_TRUE(first.has_value());

  c.release_circuit(first->install.circuit_id);
  EXPECT_EQ(c.planned_circuits(), 0u);
  EXPECT_DOUBLE_EQ(c.committed_lpr(LinkId{1}), 0.0);

  // The same demand now fits on the preferred route again.
  const auto again = c.plan_circuit(NodeId{1}, NodeId{4}, EndpointId{10},
                                    EndpointId{20}, 0.85, options);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->path[1], NodeId{2});

  // Releasing an unknown circuit is a no-op.
  c.release_circuit(CircuitId{999});
}

TEST_F(AdmissionTest, CircuitSlotCapReroutesThenRejects) {
  ControllerConfig config;
  config.max_circuits_per_link = 1;
  Controller c(topo_, qhw::simulation_preset(), config);
  const auto first = c.plan_circuit(NodeId{1}, NodeId{4}, EndpointId{10},
                                    EndpointId{20}, 0.85);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->path[1], NodeId{2});
  const auto second = c.plan_circuit(NodeId{1}, NodeId{4}, EndpointId{10},
                                     EndpointId{20}, 0.85);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->path[1], NodeId{3});  // slot cap forces the detour
  std::string reason;
  EXPECT_FALSE(c.plan_circuit(NodeId{1}, NodeId{4}, EndpointId{10},
                              EndpointId{20}, 0.85, {}, &reason)
                   .has_value());
  EXPECT_NE(reason.find("admission"), std::string::npos) << reason;
}

TEST_F(AdmissionTest, GuaranteeAtTheBoundIsAdmittedAndAboveItRejected) {
  const double cap = solo_capacity();
  {
    Controller c(topo_, qhw::simulation_preset());
    CircuitPlanOptions options;
    options.requested_eer = cap;
    const auto plan = c.plan_circuit(NodeId{1}, NodeId{4}, EndpointId{10},
                                     EndpointId{20}, 0.85, options);
    ASSERT_TRUE(plan.has_value());
    EXPECT_DOUBLE_EQ(plan->max_eer, cap);
    EXPECT_NEAR(plan->admitted_share, 1.0, 1e-9);
  }
  Controller c(topo_, qhw::simulation_preset());
  CircuitPlanOptions options;
  options.requested_eer = 1.01 * cap;
  options.max_paths = 1;
  std::string reason;
  EXPECT_FALSE(c.plan_circuit(NodeId{1}, NodeId{4}, EndpointId{10},
                              EndpointId{20}, 0.85, options, &reason)
                   .has_value());
  EXPECT_NE(reason.find("exceeds capacity"), std::string::npos) << reason;
}

TEST_F(AdmissionTest, GuaranteeReservesTheInverseOfTheBound) {
  const double cap = solo_capacity();
  Controller c(topo_, qhw::simulation_preset());
  CircuitPlanOptions options;
  options.requested_eer = 0.3 * cap;
  const auto plan = c.plan_circuit(NodeId{1}, NodeId{4}, EndpointId{10},
                                   EndpointId{20}, 0.85, options);
  ASSERT_TRUE(plan.has_value());
  // Sustaining EER e takes a pair rate of 2e / par_prob on every link.
  const double lpr_need = 2.0 * options.requested_eer / plan->par_prob;
  for (const LinkId link : plan->links) {
    EXPECT_DOUBLE_EQ(c.committed_lpr(link), lpr_need);
  }
  for (std::size_t i = 0; i + 1 < plan->install.hops.size(); ++i) {
    EXPECT_DOUBLE_EQ(plan->install.hops[i].downstream_max_lpr, lpr_need);
  }
  EXPECT_DOUBLE_EQ(c.committed_lpr(LinkId{3}), 0.0);  // the unused detour
}

TEST_F(AdmissionTest, BestEffortIsGrantedTheResidualOfAGuarantee) {
  const double cap = solo_capacity();
  Controller c(topo_, qhw::simulation_preset());
  CircuitPlanOptions options;
  options.requested_eer = 0.4 * cap;
  const auto guaranteed = c.plan_circuit(NodeId{1}, NodeId{4},
                                         EndpointId{10}, EndpointId{20},
                                         0.85, options);
  ASSERT_TRUE(guaranteed.has_value());
  const auto best_effort = c.plan_circuit(NodeId{1}, NodeId{4},
                                          EndpointId{10}, EndpointId{20},
                                          0.85);
  ASSERT_TRUE(best_effort.has_value());
  EXPECT_EQ(best_effort->path, guaranteed->path);
  // The bound applied to the capacity the guarantee left free.
  EXPECT_NEAR(best_effort->max_eer, 0.6 * cap, 1e-9 * cap);
  EXPECT_NEAR(best_effort->admitted_share, 0.6, 1e-9);
  // A best-effort circuit reserves nothing.
  for (const LinkId link : best_effort->links) {
    EXPECT_DOUBLE_EQ(c.committed_lpr(link),
                     2.0 * options.requested_eer / guaranteed->par_prob);
  }
}

TEST_F(ControllerTest, CutoffOverrideRespected) {
  Controller c(topo_, qhw::simulation_preset());
  CircuitPlanOptions options;
  options.cutoff_override = 25_ms;
  const auto plan = c.plan_circuit(NodeId{1}, NodeId{3}, EndpointId{10},
                                   EndpointId{20}, 0.85, options);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->cutoff, 25_ms);
  for (const auto& hop : plan->install.hops) EXPECT_EQ(hop.cutoff, 25_ms);
}

}  // namespace
}  // namespace qnetp::ctrl
