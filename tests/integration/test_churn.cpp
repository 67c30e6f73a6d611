// Runtime churn against live circuits: the capacity-leak regression
// (engine-initiated teardown must release controller capacity), severed
// mid-path links, relay-node failure, metric-only degrade/heal, the
// admission UPDATE re-signal to best-effort circuits, and the routed
// view driving admission around runtime failures.
#include <gtest/gtest.h>

#include "netsim/network.hpp"
#include "netsim/probe.hpp"
#include "netsim/topology_spec.hpp"

namespace qnetp::netsim {
namespace {

using namespace qnetp::literals;

qnp::AppRequest keep_request(std::uint64_t id, std::uint64_t n,
                             EndpointId head_ep, EndpointId tail_ep) {
  qnp::AppRequest r;
  r.id = RequestId{id};
  r.head_endpoint = head_ep;
  r.tail_endpoint = tail_ep;
  r.type = netmsg::RequestType::keep;
  r.num_pairs = n;
  return r;
}

double total_committed(const Network& net,
                       const std::vector<LinkId>& links) {
  double sum = 0.0;
  for (const LinkId id : links) sum += net.controller()->committed_lpr(id);
  return sum;
}

// The leak regression for the satellite bugfix: an ENGINE-initiated
// teardown (liveness loss, not Network::teardown_circuit) must flow back
// to Controller::release_circuit, or the admitted capacity is committed
// forever. Pre-fix, the controller never heard about the teardown and
// this test fails on both assertions.
TEST(ChurnBattery, EngineTeardownReleasesAdmittedCapacity) {
  NetworkConfig config;
  config.seed = 8101;
  auto net = make_chain(4, config, qhw::simulation_preset(),
                        qhw::FiberParams::lab(2.0));

  ctrl::CircuitPlanOptions options;
  options.requested_eer = 0.5;  // hard reservation: a leak is visible
  const auto plan = net->establish_circuit(
      NodeId{1}, NodeId{4}, EndpointId{10}, EndpointId{20}, 0.8, options);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(net->controller()->planned_circuits(), 1u);
  const double committed = total_committed(*net, plan->links);
  ASSERT_GT(committed, 0.0);

  // Liveness loss at the head: the engine tears the circuit down on its
  // own — no Network::teardown_circuit involved.
  net->engine(NodeId{1}).teardown(plan->install.circuit_id,
                                  "classical connectivity lost");
  net->sharded_sim().run_until(net->sharded_sim().now() + 500_ms);
  net->service_control_plane();

  EXPECT_EQ(net->controller()->planned_circuits(), 0u)
      << "engine teardown never reached Controller::release_circuit";
  EXPECT_DOUBLE_EQ(total_committed(*net, plan->links), 0.0)
      << "admitted capacity leaked after engine-initiated teardown";
  EXPECT_TRUE(net->quiescent());
}

TEST(ChurnBattery, SeverMidPathLinkTearsDownActiveCircuit) {
  NetworkConfig config;
  config.seed = 8102;
  auto net = make_chain(4, config, qhw::simulation_preset(),
                        qhw::FiberParams::lab(2.0));
  Probe head_probe(*net, NodeId{1}, EndpointId{10});
  Probe tail_probe(*net, NodeId{4}, EndpointId{20});
  const auto plan = net->establish_circuit(
      NodeId{1}, NodeId{4}, EndpointId{10}, EndpointId{20}, 0.8);
  ASSERT_TRUE(plan.has_value());
  ASSERT_TRUE(net->engine(NodeId{1}).submit_request(
      plan->install.circuit_id,
      keep_request(1, 100000, EndpointId{10}, EndpointId{20})));
  net->sharded_sim().run_until(net->sharded_sim().now() + 2_s);
  EXPECT_GT(head_probe.delivered_count(), 0u)
      << "traffic must be flowing pre-churn";

  net->sever_link(NodeId{2}, NodeId{3});
  net->sharded_sim().run_until(net->sharded_sim().now() + 2_s);
  net->service_control_plane();

  // TEARDOWN was delivered end to end: the head engine dropped the
  // circuit and notified its application endpoint.
  EXPECT_FALSE(
      net->engine(NodeId{1}).circuit_rates(plan->install.circuit_id)
          .has_value());
  EXPECT_TRUE(head_probe.circuit_down());
  EXPECT_EQ(net->controller()->planned_circuits(), 0u);
  EXPECT_TRUE(net->quiescent());
  for (const NodeId id : net->node_ids()) {
    EXPECT_EQ(net->engine(id).consistency_check(), "")
        << "node " << id.value();
  }
}

TEST(ChurnBattery, KillRelayNodeCleansUpBothSides) {
  NetworkConfig config;
  config.seed = 8103;
  auto net = make_chain(5, config, qhw::simulation_preset(),
                        qhw::FiberParams::lab(2.0));
  Probe head_probe(*net, NodeId{1}, EndpointId{10});
  Probe tail_probe(*net, NodeId{5}, EndpointId{20});
  const auto plan = net->establish_circuit(
      NodeId{1}, NodeId{5}, EndpointId{10}, EndpointId{20}, 0.75);
  ASSERT_TRUE(plan.has_value());
  ASSERT_TRUE(net->engine(NodeId{1}).submit_request(
      plan->install.circuit_id,
      keep_request(1, 100000, EndpointId{10}, EndpointId{20})));
  net->sharded_sim().run_until(net->sharded_sim().now() + 2_s);

  net->fail_node(NodeId{3});
  EXPECT_TRUE(net->node_failed(NodeId{3}));
  net->sharded_sim().run_until(net->sharded_sim().now() + 2_s);
  net->service_control_plane();

  EXPECT_FALSE(
      net->engine(NodeId{1}).circuit_rates(plan->install.circuit_id)
          .has_value());
  EXPECT_TRUE(head_probe.circuit_down());
  EXPECT_EQ(net->controller()->planned_circuits(), 0u);
  // The dead node's qubits were freed too: the whole fabric is clean.
  EXPECT_TRUE(net->quiescent());
  for (const NodeId id : net->node_ids()) {
    EXPECT_EQ(net->engine(id).consistency_check(), "")
        << "node " << id.value();
  }
}

TEST(ChurnBattery, DegradeIsMetricOnlyAndHealRestoresThePath) {
  // 3x3 grid with link-state routing: degrading a link reroutes NEW
  // circuits around it without touching the one already running on it.
  NetworkConfig config;
  config.seed = 8104;
  auto net = netsim::TopologySpec::grid(3, 3, qhw::simulation_preset(),
                                        qhw::FiberParams::lab(2.0))
                 .build(config);
  net->enable_linkstate();
  auto& ssim = net->sharded_sim();
  ssim.run_until(ssim.now() + 3_s);
  net->service_control_plane();

  // Top row: 1 - 2 - 3.
  const auto plan = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, 0.75);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->path, (std::vector<NodeId>{NodeId{1}, NodeId{2}, NodeId{3}}));
  DualProbe probe(*net, NodeId{1}, EndpointId{10}, NodeId{3},
                  EndpointId{20});
  ASSERT_TRUE(net->engine(NodeId{1}).submit_request(
      plan->install.circuit_id,
      keep_request(1, 100000, EndpointId{10}, EndpointId{20})));
  ssim.run_until(ssim.now() + 1_s);

  net->degrade_link(NodeId{2}, NodeId{3}, 8.0);
  ssim.run_until(ssim.now() + 2_s);  // LSAs flood, the view re-converges
  net->service_control_plane();

  // The active circuit survived the metric change and kept delivering.
  ASSERT_TRUE(net->engine(NodeId{1})
                  .circuit_rates(plan->install.circuit_id)
                  .has_value());
  const auto before = probe.pair_count();
  ssim.run_until(ssim.now() + 1_s);
  EXPECT_GT(probe.pair_count(), before);

  // A new circuit routes around the degraded link (1-2-3 now costs 9).
  const auto detour = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{11}, EndpointId{21}, 0.7);
  ASSERT_TRUE(detour.has_value());
  EXPECT_EQ(detour->path.size(), 5u) << "expected the 4-hop detour";
  for (std::size_t i = 0; i + 1 < detour->path.size(); ++i) {
    EXPECT_FALSE(detour->path[i] == NodeId{2} &&
                 detour->path[i + 1] == NodeId{3});
  }
  net->teardown_circuit(detour->install.circuit_id, "probe over");

  // Heal the metric: the direct path becomes preferred again.
  net->degrade_link(NodeId{2}, NodeId{3}, 1.0);
  ssim.run_until(ssim.now() + 2_s);
  net->service_control_plane();
  const auto direct = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{12}, EndpointId{22}, 0.7);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(direct->path,
            (std::vector<NodeId>{NodeId{1}, NodeId{2}, NodeId{3}}));

  net->teardown_circuit(direct->install.circuit_id, "done");
  net->teardown_circuit(plan->install.circuit_id, "done");
  ssim.run_until(ssim.now() + 1_s);
  net->service_control_plane();
  EXPECT_EQ(net->controller()->planned_circuits(), 0u);
  EXPECT_TRUE(net->quiescent());
}

TEST(ChurnBattery, BestEffortCircuitObservesResidualUpdate) {
  NetworkConfig config;
  config.seed = 8105;
  auto net = make_chain(3, config, qhw::simulation_preset(),
                        qhw::FiberParams::lab(2.0));

  // Best-effort first: it is granted the full residual capacity.
  const auto be = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, 0.8);
  ASSERT_TRUE(be.has_value());
  const auto rates_before =
      net->engine(NodeId{1}).circuit_rates(be->install.circuit_id);
  ASSERT_TRUE(rates_before.has_value());
  ASSERT_GT(rates_before->circuit_max_eer, 0.0);

  // A guaranteed circuit then reserves part of the same links: the
  // controller re-signals the shrunken residual to the BE head, which
  // applies it hop by hop (UPDATE).
  ctrl::CircuitPlanOptions options;
  options.requested_eer = be->max_eer * 0.5;
  const auto guaranteed = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{11}, EndpointId{21}, 0.8, options);
  ASSERT_TRUE(guaranteed.has_value());
  net->sharded_sim().run_until(net->sharded_sim().now() + 1_s);
  net->service_control_plane();
  net->sharded_sim().run_until(net->sharded_sim().now() + 1_s);

  const auto rates_after =
      net->engine(NodeId{1}).circuit_rates(be->install.circuit_id);
  ASSERT_TRUE(rates_after.has_value());
  EXPECT_LT(rates_after->circuit_max_eer, rates_before->circuit_max_eer)
      << "the BE circuit never observed the shrunken residual";
  std::uint64_t updates = 0;
  for (const NodeId id : net->node_ids()) {
    updates += net->engine(id).counters().updates_applied;
  }
  EXPECT_GT(updates, 0u);

  // Releasing the guarantee re-signals the regrown residual.
  net->teardown_circuit(guaranteed->install.circuit_id, "guarantee over");
  net->sharded_sim().run_until(net->sharded_sim().now() + 1_s);
  net->service_control_plane();
  net->sharded_sim().run_until(net->sharded_sim().now() + 1_s);
  const auto rates_restored =
      net->engine(NodeId{1}).circuit_rates(be->install.circuit_id);
  ASSERT_TRUE(rates_restored.has_value());
  EXPECT_GT(rates_restored->circuit_max_eer, rates_after->circuit_max_eer);

  net->teardown_circuit(be->install.circuit_id, "done");
  net->sharded_sim().run_until(net->sharded_sim().now() + 500_ms);
  net->service_control_plane();
  EXPECT_TRUE(net->quiescent());
}

TEST(ChurnBattery, RoutedViewDrivesAdmissionAroundSeveredLink) {
  // With link-state enabled, admission happens against the flooded view:
  // severing a link at runtime makes the next establish route around it,
  // and healing brings the direct path back.
  NetworkConfig config;
  config.seed = 8106;
  auto net = netsim::TopologySpec::grid(3, 3, qhw::simulation_preset(),
                                        qhw::FiberParams::lab(2.0))
                 .build(config);
  net->enable_linkstate();
  auto& ssim = net->sharded_sim();
  ssim.run_until(ssim.now() + 3_s);
  net->service_control_plane();
  const auto ls = net->linkstate_totals();
  EXPECT_GT(ls.lsas_received, 0u);
  EXPECT_GT(ls.spf_runs, 0u);

  net->sever_link(NodeId{2}, NodeId{3});
  ssim.run_until(ssim.now() + 2_s);
  net->service_control_plane();

  const auto detour = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, 0.7);
  ASSERT_TRUE(detour.has_value());
  for (std::size_t i = 0; i + 1 < detour->path.size(); ++i) {
    const bool crosses =
        (detour->path[i] == NodeId{2} && detour->path[i + 1] == NodeId{3}) ||
        (detour->path[i] == NodeId{3} && detour->path[i + 1] == NodeId{2});
    EXPECT_FALSE(crosses) << "admission routed across the severed link";
  }
  net->teardown_circuit(detour->install.circuit_id, "done");

  net->heal_link(NodeId{2}, NodeId{3});
  ssim.run_until(ssim.now() + 2_s);
  net->service_control_plane();
  const auto direct = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{11}, EndpointId{21}, 0.7);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(direct->path,
            (std::vector<NodeId>{NodeId{1}, NodeId{2}, NodeId{3}}));
  net->teardown_circuit(direct->install.circuit_id, "done");
  ssim.run_until(ssim.now() + 500_ms);
  net->service_control_plane();
  EXPECT_EQ(net->controller()->planned_circuits(), 0u);
  EXPECT_TRUE(net->quiescent());
}

}  // namespace
}  // namespace qnetp::netsim
