// Beyond-chain topologies: a 3x3 grid network. Repeater-chain protocols
// cannot handle such topologies (Sec. 6 "Repeater chain protocols"); the
// QNP + routing layer must pick paths and run circuits that cross at
// shared nodes and links.
#include <gtest/gtest.h>

#include "netsim/network.hpp"
#include "netsim/probe.hpp"

namespace qnetp::netsim {
namespace {

using namespace qnetp::literals;

// Grid node ids: node(r, c) = r * 3 + c + 1 for r, c in 0..2.
NodeId grid_node(std::uint64_t r, std::uint64_t c) {
  return NodeId{r * 3 + c + 1};
}

std::unique_ptr<Network> make_grid3x3(std::uint64_t seed) {
  NetworkConfig config;
  config.seed = seed;
  auto net = std::make_unique<Network>(config);
  for (std::uint64_t r = 0; r < 3; ++r) {
    for (std::uint64_t c = 0; c < 3; ++c) {
      net->add_node(grid_node(r, c), qhw::simulation_preset());
    }
  }
  for (std::uint64_t r = 0; r < 3; ++r) {
    for (std::uint64_t c = 0; c < 3; ++c) {
      if (c + 1 < 3) {
        net->connect(grid_node(r, c), grid_node(r, c + 1),
                     qhw::FiberParams::lab(2.0));
      }
      if (r + 1 < 3) {
        net->connect(grid_node(r, c), grid_node(r + 1, c),
                     qhw::FiberParams::lab(2.0));
      }
    }
  }
  return net;
}

qnp::AppRequest keep_request(std::uint64_t id, std::uint64_t n,
                             EndpointId h, EndpointId t) {
  qnp::AppRequest r;
  r.id = RequestId{id};
  r.head_endpoint = h;
  r.tail_endpoint = t;
  r.type = netmsg::RequestType::keep;
  r.num_pairs = n;
  return r;
}

TEST(GridTopology, ShapeAndRouting) {
  auto net = make_grid3x3(11);
  EXPECT_EQ(net->topology().node_count(), 9u);
  EXPECT_EQ(net->topology().link_count(), 12u);
  // Corner to corner: 4 hops, several equal-cost paths; Dijkstra must
  // pick one of them.
  const auto path =
      net->topology().shortest_path(grid_node(0, 0), grid_node(2, 2));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 5u);
  // The centre node has degree 4.
  EXPECT_EQ(net->topology().neighbours(grid_node(1, 1)).size(), 4u);
}

TEST(GridTopology, CornerToCornerCircuitDelivers) {
  auto net = make_grid3x3(13);
  DualProbe probe(*net, grid_node(0, 0), EndpointId{10}, grid_node(2, 2),
                  EndpointId{20});
  std::string reason;
  const auto plan =
      net->establish_circuit(grid_node(0, 0), grid_node(2, 2),
                             EndpointId{10}, EndpointId{20}, 0.75, {},
                             &reason);
  ASSERT_TRUE(plan.has_value()) << reason;
  EXPECT_EQ(plan->path.size(), 5u);
  ASSERT_TRUE(net->engine(grid_node(0, 0))
                  .submit_request(plan->install.circuit_id,
                                  keep_request(1, 5, EndpointId{10},
                                               EndpointId{20})));
  net->sharded_sim().run_until(net->sharded_sim().now() + 120_s);
  EXPECT_EQ(probe.pair_count(), 5u);
  EXPECT_EQ(probe.unmatched(), 0u);
  EXPECT_EQ(probe.state_mismatches(), 0u);
  EXPECT_GE(probe.mean_fidelity(), 0.7);
}

TEST(GridTopology, CrossingCircuitsShareTheFabric) {
  // Two circuits crossing the grid (west-east and north-south) must both
  // work even where their paths share nodes or links.
  auto net = make_grid3x3(17);
  DualProbe p1(*net, grid_node(1, 0), EndpointId{10}, grid_node(1, 2),
               EndpointId{20});
  DualProbe p2(*net, grid_node(0, 1), EndpointId{11}, grid_node(2, 1),
               EndpointId{21});
  const auto plan1 =
      net->establish_circuit(grid_node(1, 0), grid_node(1, 2),
                             EndpointId{10}, EndpointId{20}, 0.8);
  const auto plan2 =
      net->establish_circuit(grid_node(0, 1), grid_node(2, 1),
                             EndpointId{11}, EndpointId{21}, 0.8);
  ASSERT_TRUE(plan1 && plan2);
  ASSERT_TRUE(net->engine(grid_node(1, 0))
                  .submit_request(plan1->install.circuit_id,
                                  keep_request(1, 6, EndpointId{10},
                                               EndpointId{20})));
  ASSERT_TRUE(net->engine(grid_node(0, 1))
                  .submit_request(plan2->install.circuit_id,
                                  keep_request(2, 6, EndpointId{11},
                                               EndpointId{21})));
  net->sharded_sim().run_until(net->sharded_sim().now() + 120_s);
  EXPECT_EQ(p1.pair_count(), 6u);
  EXPECT_EQ(p2.pair_count(), 6u);
  EXPECT_EQ(p1.state_mismatches() + p2.state_mismatches(), 0u);
}

TEST(GridTopology, ManyCircuitsThroughTheCentre) {
  // Four corner-to-corner circuits all competing for the centre node's
  // links: the fabric must stay consistent under contention.
  auto net = make_grid3x3(19);
  struct Flow {
    NodeId head, tail;
    EndpointId he, te;
  };
  const Flow flows[] = {
      {grid_node(0, 0), grid_node(2, 2), EndpointId{10}, EndpointId{20}},
      {grid_node(0, 2), grid_node(2, 0), EndpointId{11}, EndpointId{21}},
      {grid_node(2, 0), grid_node(0, 2), EndpointId{12}, EndpointId{22}},
      {grid_node(2, 2), grid_node(0, 0), EndpointId{13}, EndpointId{23}},
  };
  std::vector<std::unique_ptr<DualProbe>> probes;
  std::vector<CircuitId> circuits;
  ctrl::CircuitPlanOptions options;
  options.cutoff_generation_quantile = 0.85;  // relieve contention
  for (const auto& f : flows) {
    probes.push_back(
        std::make_unique<DualProbe>(*net, f.head, f.he, f.tail, f.te));
    const auto plan =
        net->establish_circuit(f.head, f.tail, f.he, f.te, 0.72, options);
    ASSERT_TRUE(plan.has_value());
    circuits.push_back(plan->install.circuit_id);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(net->engine(flows[i].head)
                    .submit_request(circuits[i],
                                    keep_request(i + 1, 4, flows[i].he,
                                                 flows[i].te)));
  }
  net->sharded_sim().run_until(net->sharded_sim().now() + 300_s);
  std::size_t total = 0;
  for (const auto& p : probes) {
    total += p->pair_count();
    EXPECT_EQ(p->state_mismatches(), 0u);
  }
  // Contention may slow some flows, but the fabric must make progress on
  // most of them without any consistency violation.
  EXPECT_GE(total, 12u);
}

}  // namespace
}  // namespace qnetp::netsim
