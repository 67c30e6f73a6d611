// Application-layer tests: QKD, teleportation, layered distillation.
#include <gtest/gtest.h>

#include "apps/distillation.hpp"
#include "apps/qkd.hpp"
#include "apps/teleport.hpp"
#include "netsim/network.hpp"

namespace qnetp::apps {
namespace {

using namespace qnetp::literals;

std::unique_ptr<netsim::Network> chain3(std::uint64_t seed,
                                        std::size_t comm_qubits = 2) {
  netsim::NetworkConfig config;
  config.seed = seed;
  // Distillation holds pairs while waiting for partners, so some
  // scenarios need more buffering memory than the default two
  // communication qubits per link.
  config.comm_qubits_per_link = comm_qubits;
  return netsim::make_chain(3, config, qhw::simulation_preset(),
                            qhw::FiberParams::lab(2.0));
}

TEST(QkdApp, EstablishesLowQberKey) {
  auto net = chain3(61);
  QkdApp qkd(*net, NodeId{1}, EndpointId{10}, NodeId{3}, EndpointId{20}, 4);
  const auto plan = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, 0.9);
  ASSERT_TRUE(plan.has_value());
  std::string reason;
  ASSERT_TRUE(
      qkd.start(plan->install.circuit_id, RequestId{1}, 200, &reason))
      << reason;
  net->sharded_sim().run_until(net->sharded_sim().now() + 120_s);
  ASSERT_TRUE(qkd.finished());

  const auto report = qkd.report();
  EXPECT_EQ(report.pairs_consumed, 200u);
  // ~half the bases match.
  EXPECT_NEAR(report.sift_ratio(), 0.5, 0.12);
  // Delivered fidelity ~0.9 -> QBER well under the 11% QKD threshold.
  EXPECT_LT(report.qber(), 0.11);
  EXPECT_GT(report.key_bits, 40u);
  EXPECT_GT(report.key_agreement(), 0.85);
}

TEST(QkdApp, NoisyNetworkRaisesQber) {
  auto run = [](double fidelity, std::uint64_t seed) {
    auto net = chain3(seed);
    QkdApp qkd(*net, NodeId{1}, EndpointId{10}, NodeId{3}, EndpointId{20},
               3);
    const auto plan = net->establish_circuit(
        NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, fidelity);
    EXPECT_TRUE(plan.has_value());
    EXPECT_TRUE(qkd.start(plan->install.circuit_id, RequestId{1}, 150));
    net->sharded_sim().run_until(net->sharded_sim().now() + 120_s);
    const double qber = qkd.report().qber();
    return qber;
  };
  const double clean = run(0.92, 71);
  const double dirty = run(0.72, 71);
  EXPECT_LT(clean, dirty + 0.02);
  EXPECT_GT(dirty, 0.05);
}

TEST(TeleportApp, BeatsClassicalBound) {
  auto net = chain3(67);
  TeleportApp app(*net, NodeId{1}, EndpointId{10}, NodeId{3},
                  EndpointId{20});
  const auto plan = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, 0.9);
  ASSERT_TRUE(plan.has_value());
  ASSERT_TRUE(app.start(plan->install.circuit_id, RequestId{1}, 15));
  net->sharded_sim().run_until(net->sharded_sim().now() + 60_s);
  ASSERT_EQ(app.records().size(), 15u);
  // Teleportation through F~0.9 pairs: output ~ (2F+1)/3 ~ 0.93.
  EXPECT_GT(app.mean_output_fidelity(), 2.0 / 3.0);
  EXPECT_GT(app.mean_output_fidelity(), 0.8);
  // All four BSM outcomes occur over enough rounds (statistically near
  // certain with 15 rounds, each outcome p=1/4).
  net->sharded_sim().run_until(net->sharded_sim().now() + 1_s);
  EXPECT_TRUE(net->quiescent());
}

TEST(TeleportApp, OutputQualityTracksPairFidelity) {
  auto run = [](double fidelity) {
    auto net = chain3(73);
    TeleportApp app(*net, NodeId{1}, EndpointId{10}, NodeId{3},
                    EndpointId{20});
    const auto plan = net->establish_circuit(
        NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, fidelity);
    EXPECT_TRUE(plan.has_value());
    EXPECT_TRUE(app.start(plan->install.circuit_id, RequestId{1}, 20));
    net->sharded_sim().run_until(net->sharded_sim().now() + 90_s);
    const double out = app.mean_output_fidelity();
    return out;
  };
  EXPECT_GT(run(0.92), run(0.72) - 0.02);
}

TEST(Distillation, TwoRoundPumpingRaisesFidelity) {
  auto net = chain3(79, 8);
  std::vector<DistilledPair> outputs;
  DistillationService distiller(
      *net, NodeId{1}, EndpointId{10}, NodeId{3}, EndpointId{20},
      [&](const DistilledPair& p) {
        outputs.push_back(p);
        net->engine(NodeId{1}).release_app_qubit(p.head_qubit);
        net->engine(NodeId{3}).release_app_qubit(p.tail_qubit);
      },
      /*rounds=*/2);
  // Use a modest raw fidelity so distillation has room to help.
  const auto plan = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, 0.8);
  ASSERT_TRUE(plan.has_value());
  ASSERT_TRUE(distiller.start(plan->install.circuit_id, RequestId{1}, 80));
  net->sharded_sim().run_until(net->sharded_sim().now() + 200_s);

  // 80 raw pairs -> 40 first-round attempts plus the surviving second
  // round attempts.
  EXPECT_GE(distiller.rounds_attempted(), 45u);
  EXPECT_GT(distiller.rounds_succeeded(), 20u);  // DEJMPS p_succ ~ 0.7+
  ASSERT_GE(outputs.size(), 5u);
  // The single-click link's noise is bit-flip dominated: round one
  // converts it to phase noise, round two purifies it. Net gain must be
  // clearly positive.
  EXPECT_GT(distiller.mean_fidelity_gain(), 0.03);
  double mean_after = 0.0, mean_raw = 0.0;
  for (const auto& p : outputs) {
    mean_after += p.fidelity_after;
    mean_raw += p.fidelity_raw;
    EXPECT_EQ(p.level, 2u);
  }
  mean_after /= static_cast<double>(outputs.size());
  mean_raw /= static_cast<double>(outputs.size());
  EXPECT_GT(mean_after, mean_raw + 0.03);
}

TEST(Distillation, AllQubitsReleasedRegardlessOfOutcome) {
  auto net = chain3(83, 8);
  std::size_t consumed = 0;
  DistillationService distiller(
      *net, NodeId{1}, EndpointId{10}, NodeId{3}, EndpointId{20},
      [&](const DistilledPair& p) {
        ++consumed;
        net->engine(NodeId{1}).release_app_qubit(p.head_qubit);
        net->engine(NodeId{3}).release_app_qubit(p.tail_qubit);
      },
      /*rounds=*/2);
  const auto plan = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, 0.75);
  ASSERT_TRUE(plan.has_value());
  ASSERT_TRUE(distiller.start(plan->install.circuit_id, RequestId{1}, 40));
  net->sharded_sim().run_until(net->sharded_sim().now() + 120_s);
  EXPECT_GT(consumed, 0u);
  // Whether rounds succeed or fail, all qubits must be released
  // (remaining held pairs at intermediate levels are allowed, so release
  // them by tearing the circuit down).
  net->engine(NodeId{1}).teardown(plan->install.circuit_id, "done");
  net->sharded_sim().run_until(net->sharded_sim().now() + 5_s);
}

}  // namespace
}  // namespace qnetp::apps
