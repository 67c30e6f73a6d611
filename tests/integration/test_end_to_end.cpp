// End-to-end integration tests: full stack (controller -> signalling ->
// QNP -> link layer -> devices -> density matrices) on linear chains.
#include <gtest/gtest.h>

#include "netsim/network.hpp"
#include "netsim/probe.hpp"

namespace qnetp::netsim {
namespace {

using namespace qnetp::literals;
using netmsg::RequestType;

class ChainTest : public ::testing::Test {
 protected:
  void build(double fidelity, std::size_t nodes = 3,
             NetworkConfig config = {}) {
    net_ = make_chain(nodes, config, qhw::simulation_preset(),
                      qhw::FiberParams::lab(2.0));
    head_ = NodeId{1};
    tail_ = NodeId{nodes};
    probe_ = std::make_unique<DualProbe>(*net_, head_, EndpointId{10},
                                         tail_, EndpointId{20});
    std::string reason;
    auto plan = net_->establish_circuit(head_, tail_, EndpointId{10},
                                        EndpointId{20}, fidelity, {},
                                        &reason);
    ASSERT_TRUE(plan.has_value()) << reason;
    plan_ = *plan;
  }

  qnp::AppRequest keep_request(std::uint64_t id, std::uint64_t n) {
    qnp::AppRequest r;
    r.id = RequestId{id};
    r.head_endpoint = EndpointId{10};
    r.tail_endpoint = EndpointId{20};
    r.type = RequestType::keep;
    r.num_pairs = n;
    return r;
  }

  std::unique_ptr<Network> net_;
  NodeId head_, tail_;
  std::unique_ptr<DualProbe> probe_;
  ctrl::CircuitPlan plan_;
};

TEST_F(ChainTest, DeliversRequestedPairsAtBothEnds) {
  build(0.85);
  std::string reason;
  ASSERT_TRUE(net_->engine(head_).submit_request(
      plan_.install.circuit_id, keep_request(1, 5), &reason))
      << reason;
  net_->sharded_sim().run_until(net_->sharded_sim().now() + 20_s);

  EXPECT_EQ(probe_->head_delivery_count(), 5u);
  EXPECT_EQ(probe_->tail_delivery_count(), 5u);
  EXPECT_EQ(probe_->pair_count(), 5u);
  EXPECT_EQ(probe_->unmatched(), 0u);
  EXPECT_TRUE(probe_->head_completion(RequestId{1}).has_value());
}

TEST_F(ChainTest, BothEndsAgreeOnPairIdentityAndState) {
  build(0.85);
  ASSERT_TRUE(net_->engine(head_).submit_request(plan_.install.circuit_id,
                                                 keep_request(1, 8)));
  net_->sharded_sim().run_until(net_->sharded_sim().now() + 30_s);

  ASSERT_EQ(probe_->pair_count(), 8u);
  EXPECT_EQ(probe_->unmatched(), 0u);
  EXPECT_EQ(probe_->state_mismatches(), 0u);
  for (const auto& p : probe_->pairs()) {
    // Both ends literally hold the two qubits of the same pair object.
    EXPECT_TRUE(p.same_pair_object);
  }
}

TEST_F(ChainTest, DeliveredFidelityMeetsThreshold) {
  build(0.85);
  ASSERT_TRUE(net_->engine(head_).submit_request(plan_.install.circuit_id,
                                                 keep_request(1, 12)));
  net_->sharded_sim().run_until(net_->sharded_sim().now() + 40_s);
  ASSERT_EQ(probe_->pair_count(), 12u);
  // The routing computation is a worst-case bound, so the average
  // delivered fidelity must clear the target.
  EXPECT_GE(probe_->mean_fidelity(), 0.85);
  for (const auto& p : probe_->pairs()) EXPECT_GT(p.fidelity, 0.6);
}

TEST_F(ChainTest, MemoryIsReclaimedAfterCompletion) {
  build(0.85);
  ASSERT_TRUE(net_->engine(head_).submit_request(plan_.install.circuit_id,
                                                 keep_request(1, 4)));
  net_->sharded_sim().run_until(net_->sharded_sim().now() + 20_s);
  ASSERT_TRUE(probe_->head_completion(RequestId{1}).has_value());
  // Let in-flight link pairs and cutoff discards drain.
  net_->sharded_sim().run_until(net_->sharded_sim().now() + 5_s);
  EXPECT_TRUE(net_->quiescent());
}

TEST_F(ChainTest, FiveNodeChainWorks) {
  build(0.75, 5);
  ASSERT_TRUE(net_->engine(head_).submit_request(plan_.install.circuit_id,
                                                 keep_request(1, 4)));
  net_->sharded_sim().run_until(net_->sharded_sim().now() + 60_s);
  ASSERT_EQ(probe_->pair_count(), 4u);
  EXPECT_EQ(probe_->unmatched(), 0u);
  EXPECT_EQ(probe_->state_mismatches(), 0u);
  EXPECT_GE(probe_->mean_fidelity(), 0.75 - 0.05);
}

TEST_F(ChainTest, MeasureRequestsDeliverCorrelatedOutcomes) {
  build(0.9);
  qnp::AppRequest r = keep_request(1, 40);
  r.type = RequestType::measure;
  r.measure_basis = qstate::Basis::z;
  // Ask for a fixed Bell frame so outcome correlations are deterministic:
  // Psi+ anti-correlates in Z.
  r.final_state = qstate::BellIndex::psi_plus();
  ASSERT_TRUE(
      net_->engine(head_).submit_request(plan_.install.circuit_id, r));
  net_->sharded_sim().run_until(net_->sharded_sim().now() + 60_s);

  ASSERT_EQ(probe_->pair_count(), 40u);
  std::size_t anti = 0;
  for (const auto& p : probe_->pairs()) {
    ASSERT_GE(p.outcome_head, 0);
    ASSERT_GE(p.outcome_tail, 0);
    if (p.outcome_head != p.outcome_tail) ++anti;
  }
  // F=0.9 target: the large majority must anti-correlate.
  EXPECT_GE(anti, 32u);
}

TEST_F(ChainTest, FinalStateCorrectionDeliversRequestedBellState) {
  build(0.9);
  qnp::AppRequest r = keep_request(1, 6);
  r.final_state = qstate::BellIndex::phi_plus();
  ASSERT_TRUE(
      net_->engine(head_).submit_request(plan_.install.circuit_id, r));
  net_->sharded_sim().run_until(net_->sharded_sim().now() + 30_s);
  ASSERT_EQ(probe_->pair_count(), 6u);
  for (const auto& p : probe_->pairs()) {
    EXPECT_EQ(p.state_head, qstate::BellIndex::phi_plus());
    EXPECT_EQ(p.state_tail, qstate::BellIndex::phi_plus());
    // The physical state was rotated into the requested frame.
    EXPECT_GT(p.fidelity, 0.7);
  }
}

TEST_F(ChainTest, TwoNodeCircuitDegeneratesToLinkLayer) {
  build(0.9, 2);
  ASSERT_TRUE(net_->engine(head_).submit_request(plan_.install.circuit_id,
                                                 keep_request(1, 5)));
  net_->sharded_sim().run_until(net_->sharded_sim().now() + 10_s);
  EXPECT_EQ(probe_->pair_count(), 5u);
  EXPECT_EQ(probe_->unmatched(), 0u);
  EXPECT_GT(probe_->mean_fidelity(), 0.85);
}

TEST_F(ChainTest, SequentialRequestsShareTheCircuit) {
  build(0.85);
  ASSERT_TRUE(net_->engine(head_).submit_request(plan_.install.circuit_id,
                                                 keep_request(1, 3)));
  ASSERT_TRUE(net_->engine(head_).submit_request(plan_.install.circuit_id,
                                                 keep_request(2, 3)));
  net_->sharded_sim().run_until(net_->sharded_sim().now() + 30_s);
  EXPECT_TRUE(probe_->head_completion(RequestId{1}).has_value());
  EXPECT_TRUE(probe_->head_completion(RequestId{2}).has_value());
  EXPECT_EQ(probe_->pairs_for(RequestId{1}).size(), 3u);
  EXPECT_EQ(probe_->pairs_for(RequestId{2}).size(), 3u);
  EXPECT_EQ(probe_->unmatched(), 0u);
}

TEST_F(ChainTest, DuplicateRequestIdRejected) {
  build(0.85);
  ASSERT_TRUE(net_->engine(head_).submit_request(plan_.install.circuit_id,
                                                 keep_request(1, 3)));
  std::string reason;
  EXPECT_FALSE(net_->engine(head_).submit_request(
      plan_.install.circuit_id, keep_request(1, 3), &reason));
  EXPECT_EQ(reason, "duplicate request id");
}

}  // namespace
}  // namespace qnetp::netsim
