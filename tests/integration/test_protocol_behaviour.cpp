// Protocol-behaviour integration tests: cutoff/EXPIRE handling, early
// delivery, request classes, policing/shaping, aggregation over the
// dumbbell, fidelity test rounds, teardown, and the protocol-mode
// ablations (baseline oracle, blocking tracking).
#include <gtest/gtest.h>

#include <set>

#include "netsim/network.hpp"
#include "netsim/probe.hpp"

namespace qnetp::netsim {
namespace {

using namespace qnetp::literals;
using netmsg::RequestType;

qnp::AppRequest keep_request(std::uint64_t id, std::uint64_t n) {
  qnp::AppRequest r;
  r.id = RequestId{id};
  r.head_endpoint = EndpointId{10};
  r.tail_endpoint = EndpointId{20};
  r.type = RequestType::keep;
  r.num_pairs = n;
  return r;
}

// ---------------------------------------------------------------------------
// Cutoff and EXPIRE.
// ---------------------------------------------------------------------------

TEST(CutoffBehaviour, ShortMemoryCausesDiscardsButDeliveryContinues) {
  NetworkConfig config;
  config.seed = 11;
  auto hw = qhw::simulation_preset();
  hw.phys.electron_t2 = 1_s;  // short memory
  auto net = make_chain(3, config, hw, qhw::FiberParams::lab(2.0));
  DualProbe probe(*net, NodeId{1}, EndpointId{10}, NodeId{3},
                  EndpointId{20});
  std::string reason;
  const auto plan =
      net->establish_circuit(NodeId{1}, NodeId{3}, EndpointId{10},
                             EndpointId{20}, 0.8, {}, &reason);
  ASSERT_TRUE(plan.has_value()) << reason;
  // Cutoff must now be tight (ms scale, not the 60 s memory's ~1 s).
  EXPECT_LT(plan->cutoff, 100_ms);

  // Forty pairs, so that the request spans enough link pairs for a cutoff
  // discard to be near certain at any seed, not only at this one.
  ASSERT_TRUE(net->engine(NodeId{1}).submit_request(plan->install.circuit_id,
                                                    keep_request(1, 40)));
  net->sharded_sim().run_until(net->sharded_sim().now() + 60_s);
  EXPECT_EQ(probe.pair_count(), 40u);
  // With a tight cutoff some pairs must have been discarded along the way.
  const auto& mid = net->engine(NodeId{2}).counters();
  EXPECT_GT(mid.pairs_discarded_cutoff, 0u);
  // And every EXPIRE bounced to an end-node released state: nothing leaks.
  net->sharded_sim().run_until(net->sharded_sim().now() + 5_s);
  EXPECT_TRUE(net->quiescent());
}

TEST(CutoffBehaviour, ExpireReachesEndNodesAndNoHalfPairs) {
  NetworkConfig config;
  config.seed = 13;
  auto hw = qhw::simulation_preset();
  hw.phys.electron_t2 = 0.5_s;
  auto net = make_chain(4, config, hw, qhw::FiberParams::lab(2.0));
  DualProbe probe(*net, NodeId{1}, EndpointId{10}, NodeId{4},
                  EndpointId{20});
  const auto plan = net->establish_circuit(
      NodeId{1}, NodeId{4}, EndpointId{10}, EndpointId{20}, 0.7);
  ASSERT_TRUE(plan.has_value());
  ASSERT_TRUE(net->engine(NodeId{1}).submit_request(plan->install.circuit_id,
                                                    keep_request(1, 8)));
  net->sharded_sim().run_until(net->sharded_sim().now() + 120_s);
  EXPECT_EQ(probe.pair_count(), 8u);
  EXPECT_EQ(probe.unmatched(), 0u);
  const auto& head = net->engine(NodeId{1}).counters();
  const auto& tail = net->engine(NodeId{4}).counters();
  // Discards happened, so EXPIREs must have reached the end-nodes.
  EXPECT_GT(head.expires_received + tail.expires_received, 0u);
}

// ---------------------------------------------------------------------------
// Request classes: EARLY and rate-based MEASURE.
// ---------------------------------------------------------------------------

TEST(RequestClasses, EarlyDeliveryHandsQubitBeforeTracking) {
  NetworkConfig config;
  config.seed = 17;
  auto net = make_chain(3, config, qhw::simulation_preset(),
                        qhw::FiberParams::lab(2.0));
  Probe head(*net, NodeId{1}, EndpointId{10});
  Probe tail(*net, NodeId{3}, EndpointId{20});
  const auto plan = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, 0.85);
  ASSERT_TRUE(plan.has_value());
  qnp::AppRequest r = keep_request(1, 5);
  r.type = RequestType::early;
  ASSERT_TRUE(
      net->engine(NodeId{1}).submit_request(plan->install.circuit_id, r));
  net->sharded_sim().run_until(net->sharded_sim().now() + 30_s);

  // Both ends hand each qubit over before its TRACK; the tail does so
  // before the head's numbering reaches it.
  EXPECT_EQ(head.delivered_count(), 5u);
  EXPECT_EQ(net->engine(NodeId{1}).counters().early_deliveries, 5u);
  ASSERT_GE(tail.delivered_count(), 5u);
  for (const Probe* p : {&head, &tail}) {
    for (const auto& rec : p->deliveries()) {
      EXPECT_TRUE(rec.delivery.tracking_pending);
      EXPECT_TRUE(rec.delivery.qubit.valid());
    }
  }
  for (const auto& rec : tail.deliveries()) {
    EXPECT_EQ(rec.delivery.sequence, 0u);
  }
  // Tracking then names every pair identically at both ends.
  using Key = std::pair<RequestId, std::uint64_t>;
  const auto keys = [](const Probe& p) {
    std::set<Key> out;
    for (const auto& rec : p.tracking_updates()) {
      EXPECT_FALSE(rec.delivery.tracking_pending);
      out.emplace(rec.delivery.request, rec.delivery.sequence);
    }
    return out;
  };
  const std::set<Key> expected = {{RequestId{1}, 1}, {RequestId{1}, 2},
                                  {RequestId{1}, 3}, {RequestId{1}, 4},
                                  {RequestId{1}, 5}};
  EXPECT_EQ(keys(head), expected);
  EXPECT_EQ(keys(tail), expected);
  EXPECT_EQ(head.tracking_updates().size(), 5u);
  EXPECT_EQ(tail.tracking_updates().size(), 5u);
  // Every tail hand-over beyond the five was surplus and got expired.
  EXPECT_EQ(tail.delivered_count(), 5u + tail.expire_count());
  EXPECT_TRUE(net->quiescent());
}

TEST(RequestClasses, EarlyPairsBrokenByCutoffExpireAtBothEnds) {
  NetworkConfig config;
  config.seed = 11;
  auto hw = qhw::simulation_preset();
  hw.phys.electron_t2 = 1_s;  // short memory: cutoffs break chains
  auto net = make_chain(3, config, hw, qhw::FiberParams::lab(2.0));

  // An EARLY application holding each qubit until its tracking update or
  // its expiry, then releasing it.
  struct End {
    std::size_t handed_over = 0;
    std::size_t tracked = 0;
    std::size_t expired = 0;
  };
  End ends[2];
  const auto attach = [&](NodeId node, EndpointId endpoint, End& end) {
    qnp::EndpointHandlers h;
    h.on_pair = [&end](const qnp::PairDelivery& d) {
      EXPECT_TRUE(d.tracking_pending);
      EXPECT_TRUE(d.qubit.valid());
      ++end.handed_over;
    };
    h.on_tracking = [&net, node, &end](const qnp::PairDelivery& d) {
      ++end.tracked;
      net->engine(node).release_app_qubit(d.qubit);
    };
    h.on_expire = [&net, node, &end](CircuitId, RequestId, QubitId qubit) {
      ++end.expired;
      ASSERT_TRUE(qubit.valid());
      net->engine(node).release_app_qubit(qubit);
    };
    net->engine(node).register_endpoint(endpoint, std::move(h));
  };
  attach(NodeId{1}, EndpointId{10}, ends[0]);
  attach(NodeId{3}, EndpointId{20}, ends[1]);

  const auto plan = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, 0.8);
  ASSERT_TRUE(plan.has_value());
  ASSERT_LT(plan->cutoff, 100_ms);
  // Forty pairs, as in the keep-request cutoff test above.
  qnp::AppRequest r = keep_request(1, 40);
  r.type = RequestType::early;
  ASSERT_TRUE(
      net->engine(NodeId{1}).submit_request(plan->install.circuit_id, r));
  net->sharded_sim().run_until(net->sharded_sim().now() + 65_s);

  EXPECT_GT(net->engine(NodeId{2}).counters().pairs_discarded_cutoff, 0u);
  for (const End& end : ends) {
    EXPECT_EQ(end.tracked, 40u);
    EXPECT_GT(end.expired, 0u);
    // Every qubit handed over came back through exactly one of the two.
    EXPECT_EQ(end.handed_over, end.tracked + end.expired);
  }
  EXPECT_TRUE(net->quiescent());
}

TEST(RequestClasses, RateBasedMeasureRequestStreams) {
  NetworkConfig config;
  config.seed = 19;
  auto net = make_chain(3, config, qhw::simulation_preset(),
                        qhw::FiberParams::lab(2.0));
  DualProbe probe(*net, NodeId{1}, EndpointId{10}, NodeId{3},
                  EndpointId{20});
  const auto plan = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, 0.8);
  ASSERT_TRUE(plan.has_value());

  qnp::AppRequest r;
  r.id = RequestId{1};
  r.head_endpoint = EndpointId{10};
  r.tail_endpoint = EndpointId{20};
  r.type = RequestType::measure;
  r.measure_basis = qstate::Basis::z;
  r.num_pairs = 0;           // rate-based: stream
  r.rate = 5.0;              // pairs/s
  std::string reason;
  ASSERT_TRUE(net->engine(NodeId{1}).submit_request(plan->install.circuit_id,
                                                    r, &reason))
      << reason;
  net->sharded_sim().run_until(net->sharded_sim().now() + 10_s);
  // A rate-based request never completes; it must keep producing.
  EXPECT_GT(probe.pair_count(), 10u);
  EXPECT_FALSE(probe.head_completion(RequestId{1}).has_value());
  for (const auto& p : probe.pairs()) {
    EXPECT_GE(p.outcome_head, 0);
    EXPECT_GE(p.outcome_tail, 0);
  }
}

// ---------------------------------------------------------------------------
// Policing and shaping.
// ---------------------------------------------------------------------------

TEST(Policing, RejectsImpossibleDeadline) {
  NetworkConfig config;
  config.seed = 23;
  auto net = make_chain(3, config, qhw::simulation_preset(),
                        qhw::FiberParams::lab(2.0));
  Probe head_probe(*net, NodeId{1}, EndpointId{10});
  Probe tail_probe(*net, NodeId{3}, EndpointId{20});
  const auto plan = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, 0.85);
  ASSERT_TRUE(plan.has_value());

  // 10000 pairs in 1 s vastly exceeds the circuit's max EER.
  qnp::AppRequest r = keep_request(1, 10000);
  r.deadline = 1_s;
  std::string reason;
  EXPECT_FALSE(net->engine(NodeId{1}).submit_request(
      plan->install.circuit_id, r, &reason));
  EXPECT_EQ(reason, "insufficient end-to-end rate for deadline");
  EXPECT_EQ(net->engine(NodeId{1}).counters().requests_rejected, 1u);
}

TEST(Policing, ShapesDeadlinelessRequestsWhenBooked) {
  NetworkConfig config;
  config.seed = 29;
  auto net = make_chain(3, config, qhw::simulation_preset(),
                        qhw::FiberParams::lab(2.0));
  DualProbe probe(*net, NodeId{1}, EndpointId{10}, NodeId{3},
                  EndpointId{20});
  const auto plan = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, 0.85);
  ASSERT_TRUE(plan.has_value());

  // First request books the whole circuit (rate = max EER).
  qnp::AppRequest booked;
  booked.id = RequestId{1};
  booked.head_endpoint = EndpointId{10};
  booked.tail_endpoint = EndpointId{20};
  booked.type = RequestType::keep;
  booked.num_pairs = 5;
  booked.delta_t = Duration::seconds(5.0 / plan->max_eer);
  ASSERT_TRUE(net->engine(NodeId{1}).submit_request(plan->install.circuit_id,
                                                    booked));
  // Second, deadline-less request must be shaped (delayed), not rejected.
  ASSERT_TRUE(net->engine(NodeId{1}).submit_request(plan->install.circuit_id,
                                                    keep_request(2, 3)));
  EXPECT_EQ(net->engine(NodeId{1}).counters().requests_shaped, 1u);

  net->sharded_sim().run_until(net->sharded_sim().now() + 60_s);
  // Both eventually complete: the shaped one starts after the first.
  ASSERT_TRUE(probe.head_completion(RequestId{1}).has_value());
  ASSERT_TRUE(probe.head_completion(RequestId{2}).has_value());
  EXPECT_GT(*probe.head_completion(RequestId{2}),
            *probe.head_completion(RequestId{1}));
}

// ---------------------------------------------------------------------------
// Aggregation over the dumbbell.
// ---------------------------------------------------------------------------

TEST(Aggregation, MultipleRequestsShareOneCircuitConsistently) {
  NetworkConfig config;
  config.seed = 31;
  auto net = make_dumbbell(config, qhw::simulation_preset(),
                           qhw::FiberParams::lab(2.0));
  const DumbbellIds ids;
  DualProbe probe(*net, ids.a0, EndpointId{10}, ids.b0, EndpointId{20});
  const auto plan = net->establish_circuit(ids.a0, ids.b0, EndpointId{10},
                                           EndpointId{20}, 0.8);
  ASSERT_TRUE(plan.has_value());

  for (std::uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(net->engine(ids.a0).submit_request(plan->install.circuit_id,
                                                   keep_request(i, 5)));
  }
  net->sharded_sim().run_until(net->sharded_sim().now() + 120_s);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    EXPECT_TRUE(probe.head_completion(RequestId{i}).has_value())
        << "request " << i;
    EXPECT_EQ(probe.pairs_for(RequestId{i}).size(), 5u);
  }
  EXPECT_EQ(probe.state_mismatches(), 0u);
}

TEST(Aggregation, TwoCircuitsShareTheBottleneck) {
  NetworkConfig config;
  config.seed = 37;
  auto net = make_dumbbell(config, qhw::simulation_preset(),
                           qhw::FiberParams::lab(2.0));
  const DumbbellIds ids;
  DualProbe p0(*net, ids.a0, EndpointId{10}, ids.b0, EndpointId{20});
  DualProbe p1(*net, ids.a1, EndpointId{11}, ids.b1, EndpointId{21});
  const auto plan0 = net->establish_circuit(ids.a0, ids.b0, EndpointId{10},
                                            EndpointId{20}, 0.8);
  const auto plan1 = net->establish_circuit(ids.a1, ids.b1, EndpointId{11},
                                            EndpointId{21}, 0.8);
  ASSERT_TRUE(plan0 && plan1);
  ASSERT_TRUE(net->engine(ids.a0).submit_request(plan0->install.circuit_id,
                                                 keep_request(1, 6)));
  ASSERT_TRUE(net->engine(ids.a1).submit_request(plan1->install.circuit_id,
                                                 keep_request(2, 6)));
  net->sharded_sim().run_until(net->sharded_sim().now() + 120_s);
  EXPECT_EQ(p0.pair_count(), 6u);
  EXPECT_EQ(p1.pair_count(), 6u);
  EXPECT_EQ(p0.state_mismatches() + p1.state_mismatches(), 0u);
}

// ---------------------------------------------------------------------------
// Fidelity test rounds.
// ---------------------------------------------------------------------------

TEST(TestRounds, EstimatorConvergesNearOracle) {
  NetworkConfig config;
  config.seed = 41;
  config.qnp.test_round_interval = 3;  // every 3rd pair is a test
  auto net = make_chain(3, config, qhw::simulation_preset(),
                        qhw::FiberParams::lab(2.0));
  DualProbe probe(*net, NodeId{1}, EndpointId{10}, NodeId{3},
                  EndpointId{20});
  const auto plan = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, 0.85);
  ASSERT_TRUE(plan.has_value());
  ASSERT_TRUE(net->engine(NodeId{1}).submit_request(plan->install.circuit_id,
                                                    keep_request(1, 120)));
  net->sharded_sim().run_until(net->sharded_sim().now() + 200_s);
  ASSERT_EQ(probe.pair_count(), 120u);

  const auto* est =
      net->engine(NodeId{1}).fidelity_estimate(plan->install.circuit_id);
  ASSERT_NE(est, nullptr);
  EXPECT_GT(est->rounds(), 20u);
  // The estimate must agree with the oracle-audited delivered fidelity.
  EXPECT_NEAR(est->estimate(), probe.mean_fidelity(), 0.1);
  EXPECT_GT(est->estimate(), 0.8);
}

// ---------------------------------------------------------------------------
// Teardown.
// ---------------------------------------------------------------------------

TEST(Teardown, ReleasesAllStateAndNotifiesApps) {
  NetworkConfig config;
  config.seed = 43;
  auto net = make_chain(3, config, qhw::simulation_preset(),
                        qhw::FiberParams::lab(2.0));
  Probe head_probe(*net, NodeId{1}, EndpointId{10});
  Probe tail_probe(*net, NodeId{3}, EndpointId{20});
  const auto plan = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, 0.85);
  ASSERT_TRUE(plan.has_value());
  ASSERT_TRUE(net->engine(NodeId{1}).submit_request(plan->install.circuit_id,
                                                    keep_request(1, 1000)));
  net->sharded_sim().run_until(net->sharded_sim().now() + 1_s);  // mid-flight
  net->engine(NodeId{1}).teardown(plan->install.circuit_id, "test teardown");
  net->sharded_sim().run_until(net->sharded_sim().now() + 1_s);

  EXPECT_TRUE(head_probe.circuit_down());
  EXPECT_TRUE(tail_probe.circuit_down());
  for (std::uint64_t n = 1; n <= 3; ++n) {
    EXPECT_FALSE(net->engine(NodeId{n}).has_circuit(plan->install.circuit_id));
  }
  EXPECT_TRUE(net->quiescent());
}

// ---------------------------------------------------------------------------
// Protocol-mode ablations.
// ---------------------------------------------------------------------------

TEST(ProtocolModes, BaselineOracleDiscardsLowFidelityPairs) {
  NetworkConfig config;
  config.seed = 47;
  config.qnp.decoherence = qnp::DecoherencePolicy::oracle_end_discard;
  auto hw = qhw::simulation_preset();
  hw.phys.electron_t2 = 0.8_s;  // strong decoherence
  auto net = make_chain(3, config, hw, qhw::FiberParams::lab(2.0));
  DualProbe probe(*net, NodeId{1}, EndpointId{10}, NodeId{3},
                  EndpointId{20});
  const auto plan = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, 0.8);
  ASSERT_TRUE(plan.has_value());
  ASSERT_TRUE(net->engine(NodeId{1}).submit_request(plan->install.circuit_id,
                                                    keep_request(1, 10)));
  net->sharded_sim().run_until(net->sharded_sim().now() + 120_s);

  // No cutoffs fire in baseline mode...
  EXPECT_EQ(net->engine(NodeId{2}).counters().pairs_discarded_cutoff, 0u);
  // ...and delivered pairs pass the oracle filter.
  for (const auto& p : probe.pairs()) {
    EXPECT_GE(p.fidelity, 0.8 - 0.1);
  }
}

TEST(ProtocolModes, BlockingTrackingStillDeliversButSlower) {
  const auto run = [](bool lazy) {
    NetworkConfig config;
    config.seed = 53;
    config.qnp.lazy_tracking = lazy;
    auto net = make_chain(4, config, qhw::simulation_preset(),
                          qhw::FiberParams::lab(2.0));
    // Meaningful classical latency so blocking hurts.
    net->classical().set_extra_delay(2_ms);
    DualProbe probe(*net, NodeId{1}, EndpointId{10}, NodeId{4},
                    EndpointId{20});
    const auto plan = net->establish_circuit(
        NodeId{1}, NodeId{4}, EndpointId{10}, EndpointId{20}, 0.8);
    EXPECT_TRUE(plan.has_value());
    qnp::AppRequest r;
    r.id = RequestId{1};
    r.head_endpoint = EndpointId{10};
    r.tail_endpoint = EndpointId{20};
    r.type = RequestType::keep;
    r.num_pairs = 10;
    EXPECT_TRUE(
        net->engine(NodeId{1}).submit_request(plan->install.circuit_id, r));
    net->sharded_sim().run_until(net->sharded_sim().now() + 300_s);
    EXPECT_EQ(probe.pair_count(), 10u);
    const auto done = probe.head_completion(RequestId{1});
    EXPECT_TRUE(done.has_value());
    return done.value_or(TimePoint::max());
  };
  const TimePoint lazy_done = run(true);
  const TimePoint blocking_done = run(false);
  // Lazy tracking (the paper's design) completes no later than the
  // blocking alternative.
  EXPECT_LE(lazy_done, blocking_done);
}

}  // namespace
}  // namespace qnetp::netsim
