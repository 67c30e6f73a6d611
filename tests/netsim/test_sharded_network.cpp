// Multi-region fabrics on the sharded kernel: compose_regions structure,
// the region -> shard fold, lookahead derivation, region-local circuit
// admission and cross-shard classical delivery.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <utility>

#include "netsim/network.hpp"
#include "netsim/topology_spec.hpp"

namespace qnetp::netsim {
namespace {

using namespace qnetp::literals;

TopologySpec two_region_chains(double bridge_m = 20000.0) {
  const auto hw = qhw::simulation_preset();
  return TopologySpec::compose_regions(
      {TopologySpec::chain(3, hw, qhw::FiberParams::lab(2.0)),
       TopologySpec::chain(3, hw, qhw::FiberParams::lab(2.0))},
      qhw::FiberParams::telecom(bridge_m));
}

TEST(ComposeRegions, RenumbersTagsAndBridges) {
  const auto spec = two_region_chains();
  spec.validate();
  EXPECT_EQ(spec.node_count(), 6u);
  EXPECT_EQ(spec.region_count(), 2u);
  // Part 1's nodes are renumbered to the contiguous block 4..6 and
  // tagged region 1; part 0 keeps 1..3 in region 0.
  for (const auto& n : spec.nodes) {
    EXPECT_EQ(n.region, n.id.value() <= 3 ? 0u : 1u);
  }
  // 2 + 2 intra-region links plus exactly one bridge, last(0)-first(1).
  EXPECT_EQ(spec.link_count(), 5u);
  const LinkSpec* bridge = spec.link_between(NodeId{3}, NodeId{4});
  ASSERT_NE(bridge, nullptr);
  ASSERT_TRUE(bridge->fiber.has_value());
  EXPECT_DOUBLE_EQ(bridge->fiber->length_m, 20000.0);
  EXPECT_TRUE(spec.connected());
}

TEST(ShardedNetwork, RegionFoldIsContiguous) {
  const auto hw = qhw::simulation_preset();
  const auto part = TopologySpec::chain(2, hw, qhw::FiberParams::lab(2.0));
  const auto spec = TopologySpec::compose_regions(
      {part, part, part, part}, qhw::FiberParams::telecom(20000.0));
  NetworkConfig config;
  config.seed = 1;
  config.sharding.shards = 2;
  auto net = spec.build(config);
  EXPECT_EQ(net->region_count(), 4u);
  EXPECT_EQ(net->sharded_sim().shard_count(), 2u);
  // Regions 0,1 fold onto shard 0 and regions 2,3 onto shard 1.
  for (std::uint64_t id = 1; id <= 8; ++id) {
    const std::size_t region = (id - 1) / 2;
    EXPECT_EQ(net->region_of(NodeId{id}), region);
    EXPECT_EQ(net->shard_of(NodeId{id}), region / 2);
  }
}

TEST(ShardedNetwork, LookaheadIsTheBridgePropagationDelay) {
  NetworkConfig config;
  config.seed = 1;
  config.sharding.shards = 2;
  auto net = two_region_chains().build(config);
  const auto lookahead = net->sharded_sim().lookahead();
  ASSERT_TRUE(lookahead.has_value());
  // 20 km at ~2e8 m/s: the bridge (the only cross-shard channel) bounds
  // the conservative window.
  EXPECT_EQ(*lookahead, qhw::FiberParams::telecom(20000.0).propagation_delay());
  EXPECT_GT(*lookahead, 90_us);
}

TEST(ShardedNetwork, SingleShardMultiRegionStillGatesOnRegions) {
  // shards=1 on a multi-region spec: same region-local admission and
  // forked RNG streams as any sharded run (digests must not depend on
  // the worker count), just no worker threads.
  NetworkConfig config;
  config.seed = 1;
  auto net = two_region_chains().build(config);
  EXPECT_EQ(net->region_count(), 2u);
  EXPECT_EQ(net->sharded_sim().shard_count(), 1u);
  std::string reason;
  const auto plan =
      net->establish_circuit(NodeId{2}, NodeId{5}, EndpointId{1},
                             EndpointId{2}, 0.72, {}, &reason);
  EXPECT_FALSE(plan.has_value());
  EXPECT_NE(reason.find("region"), std::string::npos);
}

TEST(ShardedNetwork, SingleRegionEstablishPollsOnTheQuantum) {
  // A single-region fabric is regions = 1 of the same path: the install
  // wait polls on the 1 ms quantum, so establish_circuit returns with the
  // sharded clock on a whole quantum and the head's loop at that clock.
  NetworkConfig config;
  config.seed = 1;
  auto net = make_chain(3, config, qhw::simulation_preset(),
                        qhw::FiberParams::lab(2.0));
  EXPECT_EQ(net->region_count(), 1u);
  const auto plan = net->establish_circuit(NodeId{1}, NodeId{3}, EndpointId{1},
                                           EndpointId{2}, 0.8);
  ASSERT_TRUE(plan.has_value());
  const TimePoint now = net->sharded_sim().now();
  EXPECT_GT(now, TimePoint::origin());
  EXPECT_EQ(now.count_ps() % Duration::ms(1).count_ps(), 0);
  EXPECT_EQ(net->node_sim(NodeId{1}).now(), now);
}

TEST(ShardedNetwork, CrossRegionCircuitRejectedAndCapacityReleased) {
  NetworkConfig config;
  config.seed = 1;
  config.sharding.shards = 2;
  auto net = two_region_chains().build(config);
  std::string reason;
  const auto rejected =
      net->establish_circuit(NodeId{1}, NodeId{6}, EndpointId{1},
                             EndpointId{2}, 0.72, {}, &reason);
  EXPECT_FALSE(rejected.has_value());
  EXPECT_NE(reason.find("region"), std::string::npos);

  // The rejected attempt must not leak admitted capacity or qubits:
  // an intra-region circuit over the same head still installs.
  const auto ok = net->establish_circuit(NodeId{1}, NodeId{3}, EndpointId{3},
                                         EndpointId{4}, 0.72);
  ASSERT_TRUE(ok.has_value());
  net->teardown_circuit(ok->install.circuit_id, "test done");
  EXPECT_TRUE(net->quiescent());
}

TEST(ShardedNetwork, KeepaliveCrossesTheBridgeAtTwoShards) {
  NetworkConfig config;
  config.seed = 1;
  config.sharding.shards = 2;
  auto net = two_region_chains().build(config);
  ASSERT_NE(net->shard_of(NodeId{3}), net->shard_of(NodeId{4}));
  const auto before = net->classical().stats().total.delivered;
  net->classical().send(NodeId{3}, NodeId{4}, netmsg::KeepaliveMsg{CircuitId{1}});
  net->classical().send(NodeId{4}, NodeId{3}, netmsg::KeepaliveMsg{CircuitId{1}});
  net->sharded_sim().run_until(net->sharded_sim().now() + 10_ms);
  EXPECT_EQ(net->classical().stats().total.delivered, before + 2);
}

TEST(ShardedNetwork, IntraRegionCircuitsRunOnBothShards) {
  // One circuit per region, each driven to completion by the sharded
  // kernel; the fabric must end quiescent with consistent engines.
  NetworkConfig config;
  config.seed = 7;
  config.sharding.shards = 2;
  auto net = two_region_chains().build(config);
  des::ShardedSimulator& ssim = net->sharded_sim();

  struct Probe {
    Network* net;
    NodeId head, tail;
    bool completed = false;
  };
  std::deque<Probe> probes;
  std::size_t installed = 0;
  for (const auto& [head, tail] :
       {std::pair{NodeId{1}, NodeId{3}}, std::pair{NodeId{4}, NodeId{6}}}) {
    const EndpointId head_ep{10 + installed};
    const EndpointId tail_ep{20 + installed};
    const auto plan =
        net->establish_circuit(head, tail, head_ep, tail_ep, 0.72);
    ASSERT_TRUE(plan.has_value());
    Probe& probe = probes.emplace_back(Probe{net.get(), head, tail});

    qnp::EndpointHandlers hh;
    hh.on_pair = [&probe](const qnp::PairDelivery& d) {
      if (d.qubit.valid() && !d.tracking_pending) {
        probe.net->engine(probe.head).release_app_qubit(d.qubit);
      }
    };
    hh.on_tracking = [&probe](const qnp::PairDelivery& d) {
      if (d.qubit.valid()) {
        probe.net->engine(probe.head).release_app_qubit(d.qubit);
      }
    };
    hh.on_complete = [&probe](CircuitId, RequestId) {
      probe.completed = true;
    };
    net->engine(head).register_endpoint(head_ep, std::move(hh));

    qnp::EndpointHandlers th;
    th.on_pair = [&probe](const qnp::PairDelivery& d) {
      if (d.qubit.valid() && !d.tracking_pending) {
        probe.net->engine(probe.tail).release_app_qubit(d.qubit);
      }
    };
    th.on_tracking = [&probe](const qnp::PairDelivery& d) {
      if (d.qubit.valid()) {
        probe.net->engine(probe.tail).release_app_qubit(d.qubit);
      }
    };
    net->engine(tail).register_endpoint(tail_ep, std::move(th));

    qnp::AppRequest req;
    req.id = RequestId{100 + installed};
    req.head_endpoint = head_ep;
    req.tail_endpoint = tail_ep;
    req.type = netmsg::RequestType::keep;
    req.num_pairs = 2;
    req.delta_t = 5_s;
    ASSERT_TRUE(net->engine(head).submit_request(plan->install.circuit_id,
                                                 req));
    ++installed;
  }

  const TimePoint deadline = ssim.now() + 10_s;
  while (ssim.now() < deadline) {
    bool done = true;
    for (const Probe& p : probes) done = done && p.completed;
    if (done) break;
    ssim.run_until(ssim.now() + 50_ms);
  }
  for (const Probe& p : probes) EXPECT_TRUE(p.completed);
  for (const NodeId id : net->node_ids()) {
    EXPECT_EQ(net->engine(id).consistency_check(), "");
  }
}

}  // namespace
}  // namespace qnetp::netsim
