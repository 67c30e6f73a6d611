// Engine rule-level tests: malformed/unexpected messages, installation
// guards, unassigned-pair handling and counter bookkeeping. Uses a real
// 3-node network but injects synthetic messages directly into engines.
#include <gtest/gtest.h>

#include "netsim/network.hpp"
#include "netsim/probe.hpp"

namespace qnetp::qnp {
namespace {

using namespace qnetp::literals;
using netmsg::ExpireMsg;
using netmsg::ForwardMsg;
using netmsg::HopState;
using netmsg::InstallMsg;
using netmsg::Message;
using netmsg::TeardownMsg;
using netmsg::TrackMsg;

class EngineRules : public ::testing::Test {
 protected:
  EngineRules() {
    netsim::NetworkConfig config;
    config.seed = 5;
    net_ = netsim::make_chain(3, config, qhw::simulation_preset(),
                              qhw::FiberParams::lab(2.0));
    probe_ = std::make_unique<netsim::DualProbe>(
        *net_, NodeId{1}, EndpointId{10}, NodeId{3}, EndpointId{20});
    const auto plan = net_->establish_circuit(
        NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, 0.85);
    EXPECT_TRUE(plan.has_value());
    plan_ = *plan;
  }

  QnpEngine& head() { return net_->engine(NodeId{1}); }
  QnpEngine& mid() { return net_->engine(NodeId{2}); }
  QnpEngine& tail() { return net_->engine(NodeId{3}); }

  std::unique_ptr<netsim::Network> net_;
  std::unique_ptr<netsim::DualProbe> probe_;
  ctrl::CircuitPlan plan_;
};

TEST_F(EngineRules, MessagesForUnknownCircuitsAreIgnored) {
  TrackMsg track;
  track.circuit_id = CircuitId{999};
  head().on_message(NodeId{2}, Message{track});
  ExpireMsg expire;
  expire.circuit_id = CircuitId{999};
  head().on_message(NodeId{2}, Message{expire});
  ForwardMsg fwd;
  fwd.circuit_id = CircuitId{999};
  mid().on_message(NodeId{1}, Message{fwd});
  TeardownMsg td;
  td.circuit_id = CircuitId{999};
  tail().on_message(NodeId{2}, Message{td});
  SUCCEED();  // no crash, no state change
}

TEST_F(EngineRules, TrackFromOutsideTheCircuitAsserts) {
  TrackMsg track;
  track.circuit_id = plan_.install.circuit_id;
  track.link_correlator = PairCorrelator{LinkId{1}, 1};
  // Node 9 is not this circuit's neighbour anywhere.
  EXPECT_THROW(mid().on_message(NodeId{9}, Message{track}), AssertionError);
}

TEST_F(EngineRules, ExpireForUnknownCorrelatorIsIgnored) {
  ExpireMsg expire;
  expire.circuit_id = plan_.install.circuit_id;
  expire.origin_correlator = PairCorrelator{LinkId{1}, 424242};
  head().on_message(NodeId{2}, Message{expire});
  EXPECT_EQ(head().counters().expires_received, 1u);
}

TEST_F(EngineRules, DuplicateInstallAsserts) {
  EXPECT_THROW(
      net_->node(NodeId{1}).engine().install_hop(plan_.install,
                                                 plan_.install.hops[0]),
      AssertionError);
}

TEST_F(EngineRules, InstallForWrongNodeAsserts) {
  InstallMsg install = plan_.install;
  install.circuit_id = CircuitId{777};
  // hops[1] describes node 2, not node 1.
  EXPECT_THROW(
      net_->node(NodeId{1}).engine().install_hop(install, install.hops[1]),
      AssertionError);
}

TEST_F(EngineRules, SubmitOnUnknownCircuitFails) {
  AppRequest r;
  r.id = RequestId{1};
  r.head_endpoint = EndpointId{10};
  r.tail_endpoint = EndpointId{20};
  r.num_pairs = 1;
  std::string reason;
  EXPECT_FALSE(head().submit_request(CircuitId{999}, r, &reason));
  EXPECT_EQ(reason, "no such circuit");
}

TEST_F(EngineRules, SubmitAtNonHeadAsserts) {
  AppRequest r;
  r.id = RequestId{1};
  r.head_endpoint = EndpointId{10};
  r.tail_endpoint = EndpointId{20};
  r.num_pairs = 1;
  EXPECT_THROW(tail().submit_request(plan_.install.circuit_id, r),
               AssertionError);
}

TEST_F(EngineRules, UnassignedPairsAreDiscardedAtBothEnds) {
  // Force link generation for the circuit without any active request:
  // submit the EGP request directly with the circuit's first link label.
  auto* egp = net_->egp(NodeId{1}, NodeId{2});
  ASSERT_NE(egp, nullptr);
  linklayer::LinkRequest req;
  req.label = plan_.install.hops[0].downstream_label;
  req.min_fidelity = plan_.link_fidelity;
  req.continuous = false;
  req.num_pairs = 3;
  egp->submit(req);
  net_->sharded_sim().run_until(net_->sharded_sim().now() + 5_s);

  EXPECT_EQ(head().counters().pairs_discarded_unassigned, 3u);
  EXPECT_EQ(probe_->pair_count(), 0u);
  // The null TRACKs released the partner qubits at the far side: nothing
  // leaks.
  net_->sharded_sim().run_until(net_->sharded_sim().now() + 1_s);
  EXPECT_TRUE(net_->quiescent());
}

TEST_F(EngineRules, CountersTellAConsistentStory) {
  AppRequest r;
  r.id = RequestId{1};
  r.head_endpoint = EndpointId{10};
  r.tail_endpoint = EndpointId{20};
  r.type = netmsg::RequestType::keep;
  r.num_pairs = 6;
  ASSERT_TRUE(head().submit_request(plan_.install.circuit_id, r));
  net_->sharded_sim().run_until(net_->sharded_sim().now() + 30_s);
  ASSERT_EQ(probe_->pair_count(), 6u);

  const auto& h = head().counters();
  const auto& m = mid().counters();
  const auto& t = tail().counters();
  EXPECT_EQ(h.requests_accepted, 1u);
  EXPECT_EQ(h.requests_completed, 1u);
  EXPECT_EQ(h.pairs_delivered, 6u);
  EXPECT_EQ(t.pairs_delivered, 6u);
  // Every delivered pair took one swap at the middle node; discarded or
  // surplus pairs may add more.
  EXPECT_GE(m.swaps_completed, 6u);
  EXPECT_EQ(m.swaps_completed, m.swaps_started);
  // Both ends originated one TRACK per local link-pair.
  EXPECT_GE(h.tracks_originated, 6u);
  EXPECT_GE(t.tracks_originated, 6u);
  // The middle node forwarded TRACKs in both directions.
  EXPECT_GE(m.tracks_forwarded, 12u);
  EXPECT_EQ(h.cross_check_failures, 0u);
}

TEST_F(EngineRules, HasCircuitAndTeardownLifecycle) {
  EXPECT_TRUE(head().has_circuit(plan_.install.circuit_id));
  EXPECT_TRUE(mid().has_circuit(plan_.install.circuit_id));
  EXPECT_TRUE(tail().has_circuit(plan_.install.circuit_id));
  head().teardown(plan_.install.circuit_id, "lifecycle test");
  net_->sharded_sim().run_until(net_->sharded_sim().now() + 100_ms);
  EXPECT_FALSE(head().has_circuit(plan_.install.circuit_id));
  EXPECT_FALSE(mid().has_circuit(plan_.install.circuit_id));
  EXPECT_FALSE(tail().has_circuit(plan_.install.circuit_id));
  // Tearing down again is a no-op.
  head().teardown(plan_.install.circuit_id, "again");
}

TEST_F(EngineRules, FidelityEstimateAccessor) {
  EXPECT_EQ(head().fidelity_estimate(CircuitId{999}), nullptr);
  const auto* est = head().fidelity_estimate(plan_.install.circuit_id);
  ASSERT_NE(est, nullptr);
  EXPECT_EQ(est->rounds(), 0u);  // testing disabled by default
}

TEST_F(EngineRules, ReleaseUnknownAppQubitAsserts) {
  EXPECT_THROW(head().release_app_qubit(QubitId{123456}), AssertionError);
  EXPECT_THROW(head().measure_app_qubit(QubitId{123456}, qstate::Basis::z,
                                        [](int) {}),
               AssertionError);
}

}  // namespace
}  // namespace qnetp::qnp
