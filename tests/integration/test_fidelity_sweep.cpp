// Parameterized fidelity-target sweep: the central fidelity/rate
// trade-off (Sec. 2.3 P1 and Sec. 3.2 "class of service") across the
// whole stack — higher requested end-to-end fidelity must be honoured
// and must cost throughput.
#include <gtest/gtest.h>

#include "netsim/network.hpp"
#include "netsim/probe.hpp"

namespace qnetp::netsim {
namespace {

using namespace qnetp::literals;

struct SweepResult {
  double mean_fidelity = 0.0;
  Duration completion = Duration::zero();
};

SweepResult run_target(double target, std::uint64_t seed) {
  NetworkConfig config;
  config.seed = seed;
  auto net = make_chain(3, config, qhw::simulation_preset(),
                        qhw::FiberParams::lab(2.0));
  DualProbe probe(*net, NodeId{1}, EndpointId{10}, NodeId{3},
                  EndpointId{20});
  const auto plan = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, target);
  EXPECT_TRUE(plan.has_value());
  qnp::AppRequest r;
  r.id = RequestId{1};
  r.head_endpoint = EndpointId{10};
  r.tail_endpoint = EndpointId{20};
  r.type = netmsg::RequestType::keep;
  r.num_pairs = 15;
  EXPECT_TRUE(
      net->engine(NodeId{1}).submit_request(plan->install.circuit_id, r));
  const TimePoint start = net->sharded_sim().now();
  net->sharded_sim().run_until(start + 120_s);
  SweepResult out;
  out.mean_fidelity = probe.mean_fidelity();
  const auto done = probe.head_completion(RequestId{1});
  EXPECT_TRUE(done.has_value());
  out.completion = done.value_or(TimePoint::max()) - start;
  return out;
}

class FidelityTarget : public ::testing::TestWithParam<double> {};

TEST_P(FidelityTarget, DeliveredFidelityHonoursTarget) {
  const double target = GetParam();
  const SweepResult r = run_target(target, 404);
  // The worst-case routing computation should leave margin; allow a small
  // statistical tolerance on 15 pairs.
  EXPECT_GE(r.mean_fidelity, target - 0.02) << "target " << target;
  // And not wastefully overshoot into rate-starving territory: delivered
  // quality stays within ~0.1 of the request.
  EXPECT_LE(r.mean_fidelity, std::min(1.0, target + 0.12));
}

INSTANTIATE_TEST_SUITE_P(TargetGrid, FidelityTarget,
                         ::testing::Values(0.75, 0.8, 0.85, 0.9, 0.92));

TEST(FidelityRateTradeoff, HigherTargetsAreSlower) {
  const SweepResult low = run_target(0.75, 505);
  const SweepResult high = run_target(0.92, 505);
  EXPECT_GT(high.completion, low.completion * 1.5);
  EXPECT_GT(high.mean_fidelity, low.mean_fidelity);
}

}  // namespace
}  // namespace qnetp::netsim
