// Unit tests for the network assembly and probes.
#include <gtest/gtest.h>

#include "netsim/network.hpp"
#include "netsim/probe.hpp"

namespace qnetp::netsim {
namespace {

using namespace qnetp::literals;

TEST(NetworkBuilder, ChainTopologyIsWiredBothWays) {
  NetworkConfig config;
  config.seed = 1;
  auto net = make_chain(4, config, qhw::simulation_preset(),
                        qhw::FiberParams::lab(2.0));
  EXPECT_EQ(net->topology().node_count(), 4u);
  EXPECT_EQ(net->topology().link_count(), 3u);
  for (std::uint64_t i = 1; i < 4; ++i) {
    EXPECT_NE(net->egp(NodeId{i}, NodeId{i + 1}), nullptr);
    EXPECT_EQ(net->egp(NodeId{i}, NodeId{i + 1}),
              net->egp(NodeId{i + 1}, NodeId{i}));
    EXPECT_TRUE(net->classical().connected(NodeId{i}, NodeId{i + 1}));
  }
  EXPECT_EQ(net->egp(NodeId{1}, NodeId{3}), nullptr);  // not adjacent
}

TEST(NetworkBuilder, DumbbellShape) {
  NetworkConfig config;
  config.seed = 1;
  auto net = make_dumbbell(config, qhw::simulation_preset(),
                           qhw::FiberParams::lab(2.0));
  const DumbbellIds ids;
  EXPECT_EQ(net->topology().node_count(), 6u);
  EXPECT_EQ(net->topology().link_count(), 5u);
  // The only path from the A side to the B side crosses MA-MB.
  const auto path = net->topology().shortest_path(ids.a0, ids.b1);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 4u);
  EXPECT_EQ((*path)[1], ids.ma);
  EXPECT_EQ((*path)[2], ids.mb);
}

TEST(NetworkBuilder, PerLinkPoolsAreProvisioned) {
  NetworkConfig config;
  config.seed = 1;
  config.comm_qubits_per_link = 3;
  auto net = make_chain(3, config, qhw::simulation_preset(),
                        qhw::FiberParams::lab(2.0));
  // Middle node has two links, 3 qubits each.
  auto& qmm = net->device(NodeId{2}).memory();
  EXPECT_EQ(qmm.total_count(), 6u);
  EXPECT_TRUE(qmm.all_free());
}

TEST(NetworkBuilder, NearTermNodesGetSharedPoolAndSerialization) {
  NetworkConfig config;
  config.seed = 1;
  config.storage_qubits = 2;
  auto net = make_chain(3, config, qhw::near_term_preset(),
                        qhw::FiberParams::telecom(25000.0));
  auto& dev = net->device(NodeId{2});
  EXPECT_TRUE(dev.serialized());
  EXPECT_EQ(dev.memory().free_storage_count(), 2u);
  // The single communication qubit serves both links.
  EXPECT_EQ(dev.memory().free_comm_count(LinkId{1}), 1u);
  EXPECT_EQ(dev.memory().free_comm_count(LinkId{2}), 1u);
  const auto q = dev.memory().try_alloc_comm(LinkId{1}, TimePoint::origin());
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(dev.memory().free_comm_count(LinkId{2}), 0u);
  dev.memory().free(*q);
}

TEST(NetworkBuilder, UnknownNodeAsserts) {
  NetworkConfig config;
  auto net = make_chain(2, config, qhw::simulation_preset(),
                        qhw::FiberParams::lab(2.0));
  EXPECT_THROW(net->node(NodeId{99}), AssertionError);
  EXPECT_THROW(net->hardware(NodeId{99}), AssertionError);
}

TEST(EstablishCircuit, FailsCleanlyForImpossibleTargets) {
  NetworkConfig config;
  auto net = make_chain(3, config, qhw::simulation_preset(),
                        qhw::FiberParams::lab(2.0));
  std::string reason;
  const auto plan =
      net->establish_circuit(NodeId{1}, NodeId{3}, EndpointId{10},
                             EndpointId{20}, 0.999, {}, &reason);
  EXPECT_FALSE(plan.has_value());
  EXPECT_FALSE(reason.empty());
}

TEST(EstablishCircuit, TwoCircuitsCanCoexistOnOnePath) {
  NetworkConfig config;
  auto net = make_chain(3, config, qhw::simulation_preset(),
                        qhw::FiberParams::lab(2.0));
  const auto p1 = net->establish_circuit(NodeId{1}, NodeId{3},
                                         EndpointId{10}, EndpointId{20},
                                         0.85);
  const auto p2 = net->establish_circuit(NodeId{1}, NodeId{3},
                                         EndpointId{11}, EndpointId{21},
                                         0.8);
  ASSERT_TRUE(p1 && p2);
  EXPECT_NE(p1->install.circuit_id, p2->install.circuit_id);
  EXPECT_TRUE(net->engine(NodeId{2}).has_circuit(p1->install.circuit_id));
  EXPECT_TRUE(net->engine(NodeId{2}).has_circuit(p2->install.circuit_id));
}

TEST(Quiescence, FreshNetworkIsQuiescent) {
  NetworkConfig config;
  auto net = make_chain(3, config, qhw::simulation_preset(),
                        qhw::FiberParams::lab(2.0));
  EXPECT_TRUE(net->quiescent());
}

}  // namespace
}  // namespace qnetp::netsim
