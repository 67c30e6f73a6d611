// TopologySpec: declarative builders (grid/ring/star/chain/dumbbell and
// seeded Waxman graphs), per-link/per-node overrides, construction
// invariants, and the oracle-audited multi-circuit behaviour of networks
// they assemble — including admission-rejection determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "netsim/probe.hpp"
#include "netsim/topology_spec.hpp"
#include "qbase/assert.hpp"

namespace qnetp::netsim {
namespace {

using namespace qnetp::literals;

qhw::HardwareParams hw() { return qhw::simulation_preset(); }
qhw::FiberParams fiber() { return qhw::FiberParams::lab(2.0); }

TEST(TopologySpec, ChainRingStarShapes) {
  const auto chain = TopologySpec::chain(5, hw(), fiber());
  EXPECT_EQ(chain.node_count(), 5u);
  EXPECT_EQ(chain.link_count(), 4u);
  EXPECT_TRUE(chain.connected());
  EXPECT_NE(chain.link_between(NodeId{2}, NodeId{3}), nullptr);
  EXPECT_EQ(chain.link_between(NodeId{1}, NodeId{5}), nullptr);

  const auto ring = TopologySpec::ring(6, hw(), fiber());
  EXPECT_EQ(ring.node_count(), 6u);
  EXPECT_EQ(ring.link_count(), 6u);  // chain + closing link
  EXPECT_TRUE(ring.connected());
  EXPECT_NE(ring.link_between(NodeId{6}, NodeId{1}), nullptr);

  const auto star = TopologySpec::star(5, hw(), fiber());
  EXPECT_EQ(star.node_count(), 6u);  // hub + 5 leaves
  EXPECT_EQ(star.link_count(), 5u);
  EXPECT_TRUE(star.connected());
  for (std::uint64_t leaf = 2; leaf <= 6; ++leaf) {
    EXPECT_NE(star.link_between(NodeId{1}, NodeId{leaf}), nullptr);
    for (std::uint64_t other = leaf + 1; other <= 6; ++other) {
      EXPECT_EQ(star.link_between(NodeId{leaf}, NodeId{other}), nullptr);
    }
  }
}

TEST(TopologySpec, GridShapeAndBuiltTopology) {
  const auto spec = TopologySpec::grid(3, 3, hw(), fiber());
  EXPECT_EQ(spec.node_count(), 9u);
  EXPECT_EQ(spec.link_count(), 12u);
  EXPECT_TRUE(spec.connected());

  NetworkConfig config;
  config.seed = 5;
  auto net = spec.build(config);
  EXPECT_EQ(net->topology().node_count(), 9u);
  EXPECT_EQ(net->topology().link_count(), 12u);
  // Centre node (2,2) -> id 5 has degree 4; corners have degree 2.
  EXPECT_EQ(net->topology().neighbours(NodeId{5}).size(), 4u);
  EXPECT_EQ(net->topology().neighbours(NodeId{1}).size(), 2u);
  const auto path = net->topology().shortest_path(NodeId{1}, NodeId{9});
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 5u);
}

TEST(TopologySpec, ValidateCatchesStructuralErrors) {
  auto good = TopologySpec::chain(3, hw(), fiber());
  good.validate();  // passes

  auto dup_node = good;
  dup_node.nodes.push_back(NodeSpec{NodeId{2}, std::nullopt});
  EXPECT_THROW(dup_node.validate(), AssertionError);

  auto dup_link = good;
  dup_link.links.push_back(LinkSpec{NodeId{2}, NodeId{1}, std::nullopt});
  EXPECT_THROW(dup_link.validate(), AssertionError);

  auto dangling = good;
  dangling.links.push_back(LinkSpec{NodeId{1}, NodeId{9}, std::nullopt});
  EXPECT_THROW(dangling.validate(), AssertionError);

  auto self_loop = good;
  self_loop.links.push_back(LinkSpec{NodeId{1}, NodeId{1}, std::nullopt});
  EXPECT_THROW(self_loop.validate(), AssertionError);

  auto split = good;
  split.nodes.push_back(NodeSpec{NodeId{7}, std::nullopt});
  split.validate();  // structurally fine ...
  EXPECT_FALSE(split.connected());  // ... but disconnected
}

TEST(TopologySpec, OverridesReachTheBuiltNetwork) {
  auto spec = TopologySpec::chain(3, hw(), fiber());
  spec.with_link_fiber(NodeId{2}, NodeId{3}, qhw::FiberParams::lab(10.0));
  spec.with_node_hardware(NodeId{3}, qhw::near_term_preset());

  NetworkConfig config;
  config.seed = 7;
  auto net = spec.build(config);
  EXPECT_DOUBLE_EQ(net->egp(NodeId{1}, NodeId{2})->model().fiber().length_m,
                   2.0);
  EXPECT_DOUBLE_EQ(net->egp(NodeId{2}, NodeId{3})->model().fiber().length_m,
                   10.0);
  EXPECT_EQ(net->hardware(NodeId{1}).name, qhw::simulation_preset().name);
  EXPECT_EQ(net->hardware(NodeId{3}).name, qhw::near_term_preset().name);

  EXPECT_THROW(spec.with_link_fiber(NodeId{1}, NodeId{3}, fiber()),
               AssertionError);
  EXPECT_THROW(spec.with_node_hardware(NodeId{9}, hw()), AssertionError);
}

TEST(TopologySpec, WaxmanIsSeedDeterministicAndConnected) {
  WaxmanParams params;
  params.nodes = 12;
  const auto a = TopologySpec::waxman(1234, params, hw());
  const auto b = TopologySpec::waxman(1234, params, hw());
  ASSERT_EQ(a.node_count(), 12u);
  ASSERT_EQ(a.link_count(), b.link_count());
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    EXPECT_EQ(a.links[i].a, b.links[i].a);
    EXPECT_EQ(a.links[i].b, b.links[i].b);
    ASSERT_TRUE(a.links[i].fiber.has_value());
    EXPECT_DOUBLE_EQ(a.links[i].fiber->length_m, b.links[i].fiber->length_m);
    EXPECT_GE(a.links[i].fiber->length_m, params.min_length_m);
  }
  a.validate();
  EXPECT_TRUE(a.connected());

  // A different seed gives a different graph (overwhelmingly likely for
  // 12 nodes; pinned by these seeds).
  const auto c = TopologySpec::waxman(99, params, hw());
  EXPECT_TRUE(c.connected());
  bool differs = a.link_count() != c.link_count();
  for (std::size_t i = 0; !differs && i < a.links.size(); ++i) {
    differs = a.links[i].a != c.links[i].a || a.links[i].b != c.links[i].b;
  }
  EXPECT_TRUE(differs);
}

TEST(TopologySpec, WaxmanNetworksCarryCircuits) {
  WaxmanParams params;
  params.nodes = 8;
  NetworkConfig config;
  config.seed = 21;
  auto net = TopologySpec::waxman(21, params, hw()).build(config);
  // Every pair is routable (the builder guarantees connectivity).
  for (std::uint64_t i = 1; i <= 8; ++i) {
    for (std::uint64_t j = i + 1; j <= 8; ++j) {
      EXPECT_TRUE(net->topology()
                      .shortest_path(NodeId{i}, NodeId{j})
                      .has_value());
    }
  }
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

TEST(TopologySpec, GridTwoConcurrentCircuitsOracleAudited) {
  // The satellite acceptance scenario: a 3x3 grid built from the spec
  // carrying two concurrent circuits that cross at the centre, audited
  // end-to-end through the pair oracle (DualProbe holds both qubits at
  // delivery and checks the joint state).
  NetworkConfig config;
  config.seed = 23;
  auto net = TopologySpec::grid(3, 3, hw(), fiber()).build(config);

  DualProbe p1(*net, NodeId{4}, EndpointId{10}, NodeId{6}, EndpointId{20});
  DualProbe p2(*net, NodeId{2}, EndpointId{11}, NodeId{8}, EndpointId{21});
  const auto plan1 = net->establish_circuit(NodeId{4}, NodeId{6},
                                            EndpointId{10}, EndpointId{20},
                                            0.8);
  const auto plan2 = net->establish_circuit(NodeId{2}, NodeId{8},
                                            EndpointId{11}, EndpointId{21},
                                            0.8);
  ASSERT_TRUE(plan1 && plan2);
  ASSERT_TRUE(net->engine(NodeId{4}).submit_request(
      plan1->install.circuit_id,
      keep_request(1, 6, EndpointId{10}, EndpointId{20})));
  ASSERT_TRUE(net->engine(NodeId{2}).submit_request(
      plan2->install.circuit_id,
      keep_request(2, 6, EndpointId{11}, EndpointId{21})));
  net->sharded_sim().run_until(net->sharded_sim().now() + 120_s);

  for (const DualProbe* p : {&p1, &p2}) {
    EXPECT_EQ(p->pair_count(), 6u);
    EXPECT_EQ(p->unmatched(), 0u);
    EXPECT_EQ(p->state_mismatches(), 0u);
    EXPECT_GE(p->mean_fidelity(), 0.75);
  }
  EXPECT_TRUE(net->controller() != nullptr);
  EXPECT_EQ(net->controller()->planned_circuits(), 2u);
}

TEST(TopologySpec, AdmissionRejectionDeterministicUnderIdenticalSeeds) {
  // Oversubscribed guaranteed demands on a ring: some circuits admit
  // (possibly re-routed), later ones are rejected. The admit/reject
  // pattern and every admitted path must replay identically for the same
  // seed.
  const auto run = [&](std::uint64_t seed) {
    NetworkConfig config;
    config.seed = seed;
    auto net = TopologySpec::ring(6, hw(), fiber()).build(config);
    std::vector<std::string> outcomes;
    // Learn the solo capacity, then demand well past half of it so two
    // same-bottleneck circuits cannot coexist.
    double cap = 0.0;
    {
      auto probe_net = TopologySpec::ring(6, hw(), fiber()).build(config);
      const auto probe = probe_net->establish_circuit(
          NodeId{1}, NodeId{4}, EndpointId{10}, EndpointId{20}, 0.8);
      EXPECT_TRUE(probe.has_value());
      cap = probe->max_eer;
    }
    ctrl::CircuitPlanOptions options;
    options.requested_eer = 0.7 * cap;
    for (std::size_t i = 0; i < 4; ++i) {
      const NodeId head{1 + i};
      const NodeId tail{1 + ((i + 3) % 6)};
      std::string reason;
      const auto plan = net->establish_circuit(
          head, tail, EndpointId{10 + i}, EndpointId{20 + i}, 0.8, options,
          &reason);
      if (plan.has_value()) {
        std::string path = "ok:";
        for (const NodeId n : plan->path) {
          path += std::to_string(n.value()) + ",";
        }
        outcomes.push_back(path);
      } else {
        outcomes.push_back("rejected");
      }
    }
    return outcomes;
  };

  const auto first = run(31);
  const auto second = run(31);
  EXPECT_EQ(first, second);
  // The oversubscription actually bites: at least one of each outcome.
  EXPECT_NE(std::count(first.begin(), first.end(), std::string("rejected")),
            0);
  EXPECT_NE(first.front(), "rejected");
}

}  // namespace
}  // namespace qnetp::netsim
