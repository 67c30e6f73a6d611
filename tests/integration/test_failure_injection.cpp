// Failure injection: classical connectivity loss, liveness-triggered
// teardown, storage exhaustion on the near-term platform, and parameter
// sweeps over chain length.
#include <gtest/gtest.h>

#include "apps/chsh.hpp"
#include "netsim/network.hpp"
#include "netsim/probe.hpp"

namespace qnetp::netsim {
namespace {

using namespace qnetp::literals;

qnp::AppRequest keep_request(std::uint64_t id, std::uint64_t n) {
  qnp::AppRequest r;
  r.id = RequestId{id};
  r.head_endpoint = EndpointId{10};
  r.tail_endpoint = EndpointId{20};
  r.type = netmsg::RequestType::keep;
  r.num_pairs = n;
  return r;
}

/// Run the fabric in 250 ms strides, servicing the control plane between
/// them (where dead-peer verdicts become teardowns and releases).
void run_strides(Network& net, Duration total) {
  auto& sim = net.sharded_sim();
  const TimePoint end = sim.now() + total;
  while (sim.now() < end) {
    TimePoint next = sim.now() + 250_ms;
    if (next > end) next = end;
    sim.run_until(next);
    net.service_control_plane();
  }
}

TEST(FailureInjection, LivenessLossTearsDownTheCircuit) {
  // Sec. 4.1's transport liveness, per adjacency: the reliable
  // transport's dead-peer verdict on a silently partitioned hop tears the
  // circuit down and gives its capacity back, with nobody announcing the
  // loss.
  NetworkConfig config;
  config.seed = 91;
  config.transport.enabled = true;
  auto net = make_chain(3, config, qhw::simulation_preset(),
                        qhw::FiberParams::lab(2.0));
  Probe head_probe(*net, NodeId{1}, EndpointId{10});
  Probe tail_probe(*net, NodeId{3}, EndpointId{20});
  const auto plan = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, 0.85);
  ASSERT_TRUE(plan.has_value());
  const CircuitId circuit = plan->install.circuit_id;

  ASSERT_TRUE(net->engine(NodeId{1}).submit_request(circuit,
                                                    keep_request(1, 10000)));
  run_strides(*net, 1_s);
  EXPECT_GT(head_probe.delivered_count(), 0u);
  EXPECT_FALSE(head_probe.circuit_down());
  EXPECT_FALSE(net->peer_declared_dead(NodeId{1}, NodeId{2}));

  // Partition the 1-2 channel under the running request: the signalling
  // toward the far side goes unacknowledged, the retransmission ladder
  // runs out, and the verdict tears the circuit down like a lost link.
  net->partition_link(NodeId{1}, NodeId{2});
  run_strides(*net, 3_s);
  EXPECT_TRUE(net->peer_declared_dead(NodeId{1}, NodeId{2}));
  EXPECT_FALSE(net->engine(NodeId{1}).has_circuit(circuit));
  EXPECT_TRUE(head_probe.circuit_down());
  ASSERT_TRUE(net->controller() != nullptr);
  EXPECT_EQ(net->controller()->planned_circuits(), 0u);
  EXPECT_TRUE(net->quiescent());
}

TEST(FailureInjection, InstallTimeoutTearsDownThePartialPrefix) {
  // Sever the classical 3-4 channel BEFORE establishing a circuit across
  // it: the InstallMsg relays over 1-2-3 and is then dropped, so the
  // install times out with circuit state alive on a prefix of the path.
  // establish_circuit must tear that prefix back down (TEARDOWN from the
  // head trails the INSTALL on the FIFO channels), release the admitted
  // capacity, and leave the network quiescent.
  NetworkConfig config;
  config.seed = 95;
  auto net = make_chain(4, config, qhw::simulation_preset(),
                        qhw::FiberParams::lab(2.0));
  net->classical().set_link_up(NodeId{3}, NodeId{4}, false);

  std::string reason;
  const auto plan = net->establish_circuit(
      NodeId{1}, NodeId{4}, EndpointId{10}, EndpointId{20}, 0.8, {},
      &reason, Duration::ms(500));
  EXPECT_FALSE(plan.has_value());
  EXPECT_EQ(reason, "install timeout");

  // Give any straggling messages time to settle, then audit every hop.
  net->sharded_sim().run_until(net->sharded_sim().now() + 1_s);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    EXPECT_FALSE(net->engine(NodeId{i}).has_circuit(CircuitId{1}))
        << "node " << i << " kept partially installed circuit state";
  }
  EXPECT_TRUE(net->quiescent());
  // The admitted capacity was released: the same circuit succeeds once
  // the channel heals.
  net->classical().set_link_up(NodeId{3}, NodeId{4}, true);
  ASSERT_TRUE(net->controller() != nullptr);
  EXPECT_EQ(net->controller()->planned_circuits(), 0u);
  const auto retry = net->establish_circuit(
      NodeId{1}, NodeId{4}, EndpointId{10}, EndpointId{20}, 0.8, {},
      &reason, Duration::seconds(2));
  ASSERT_TRUE(retry.has_value()) << reason;
}

TEST(FailureInjection, NearTermStorageExhaustionDegradesGracefully) {
  // Near-term platform with ZERO storage qubits: the repeater cannot park
  // pairs, every move fails, and no end-to-end pair can form — but the
  // system must not crash or leak, and the end nodes keep their qubits
  // until the circuit is torn down.
  NetworkConfig config;
  config.seed = 93;
  config.storage_qubits = 0;
  auto net = make_chain(3, config, qhw::near_term_preset(),
                        qhw::FiberParams::telecom(25000.0));

  netmsg::InstallMsg install;
  install.circuit_id = CircuitId{1};
  install.head_end_identifier = EndpointId{10};
  install.tail_end_identifier = EndpointId{20};
  install.end_to_end_fidelity = 0.5;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    netmsg::HopState hop;
    hop.node = NodeId{i};
    hop.upstream = (i > 1) ? NodeId{i - 1} : NodeId{};
    hop.downstream = (i < 3) ? NodeId{i + 1} : NodeId{};
    hop.upstream_label = (i > 1) ? LinkLabel{i - 1} : LinkLabel{};
    hop.downstream_label = (i < 3) ? LinkLabel{i} : LinkLabel{};
    hop.downstream_min_fidelity = (i < 3) ? 0.8 : 0.0;
    hop.downstream_max_lpr = 5.0;
    hop.circuit_max_eer = 1.0;
    hop.cutoff = 2_s;
    install.hops.push_back(hop);
  }
  net->install_manual_circuit(install);
  DualProbe probe(*net, NodeId{1}, EndpointId{10}, NodeId{3},
                  EndpointId{20});
  ASSERT_TRUE(net->engine(NodeId{1}).submit_request(CircuitId{1},
                                                    keep_request(1, 2)));
  net->sharded_sim().run_until(net->sharded_sim().now() + 30_s);
  EXPECT_EQ(probe.pair_count(), 0u);
  EXPECT_GT(
      net->engine(NodeId{2}).counters().pairs_discarded_unassigned, 0u);
  net->engine(NodeId{1}).teardown(CircuitId{1}, "test over");
  net->sharded_sim().run_until(net->sharded_sim().now() + 1_s);
}

// Chain-length sweep: the protocol works over 2..6 nodes; fidelity
// degrades with hop count but tracking never breaks.
class ChainLength : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChainLength, DeliversConsistentPairs) {
  const std::size_t nodes = GetParam();
  NetworkConfig config;
  config.seed = 200 + nodes;
  auto net = make_chain(nodes, config, qhw::simulation_preset(),
                        qhw::FiberParams::lab(2.0));
  DualProbe probe(*net, NodeId{1}, EndpointId{10}, NodeId{nodes},
                  EndpointId{20});
  // Longer chains can sustain less end-to-end fidelity.
  const double target = nodes <= 3 ? 0.85 : (nodes <= 5 ? 0.75 : 0.7);
  std::string reason;
  const auto plan =
      net->establish_circuit(NodeId{1}, NodeId{nodes}, EndpointId{10},
                             EndpointId{20}, target, {}, &reason);
  ASSERT_TRUE(plan.has_value()) << reason;
  EXPECT_EQ(plan->path.size(), nodes);
  ASSERT_TRUE(net->engine(NodeId{1}).submit_request(plan->install.circuit_id,
                                                    keep_request(1, 5)));
  net->sharded_sim().run_until(net->sharded_sim().now() + 120_s);
  ASSERT_EQ(probe.pair_count(), 5u);
  EXPECT_EQ(probe.unmatched(), 0u);
  EXPECT_EQ(probe.state_mismatches(), 0u);
  EXPECT_GE(probe.mean_fidelity(), target - 0.06);
}

INSTANTIATE_TEST_SUITE_P(TwoToSixNodes, ChainLength,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u));

// Demux policy sweep: both policies deliver consistently.
class DemuxPolicySweep
    : public ::testing::TestWithParam<qnp::DemuxPolicy> {};

TEST_P(DemuxPolicySweep, ConcurrentRequestsStayConsistent) {
  NetworkConfig config;
  config.seed = 300;
  config.qnp.demux = GetParam();
  auto net = make_chain(3, config, qhw::simulation_preset(),
                        qhw::FiberParams::lab(2.0));
  DualProbe probe(*net, NodeId{1}, EndpointId{10}, NodeId{3},
                  EndpointId{20});
  const auto plan = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, 0.85);
  ASSERT_TRUE(plan.has_value());
  for (std::uint64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(net->engine(NodeId{1}).submit_request(
        plan->install.circuit_id, keep_request(i, 4)));
  }
  net->sharded_sim().run_until(net->sharded_sim().now() + 60_s);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    EXPECT_EQ(probe.pairs_for(RequestId{i}).size(), 4u) << "request " << i;
  }
  EXPECT_EQ(probe.state_mismatches(), 0u);
  EXPECT_EQ(probe.unmatched(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothPolicies, DemuxPolicySweep,
                         ::testing::Values(qnp::DemuxPolicy::fifo,
                                           qnp::DemuxPolicy::round_robin));

TEST(ChshOverNetwork, ViolatesBellInequality) {
  NetworkConfig config;
  config.seed = 97;
  auto net = make_chain(3, config, qhw::simulation_preset(),
                        qhw::FiberParams::lab(2.0));
  apps::ChshApp chsh(*net, NodeId{1}, EndpointId{10}, NodeId{3},
                     EndpointId{20});
  const auto plan = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, 0.92);
  ASSERT_TRUE(plan.has_value());
  ASSERT_TRUE(chsh.start(plan->install.circuit_id, RequestId{1}, 400));
  net->sharded_sim().run_until(net->sharded_sim().now() + 200_s);
  ASSERT_TRUE(chsh.finished());
  EXPECT_EQ(chsh.report().pairs_consumed, 400u);
  EXPECT_GT(chsh.report().s_value(), 2.0);
  EXPECT_LT(chsh.report().s_value(), 2.0 * 1.4143);
}

}  // namespace
}  // namespace qnetp::netsim
