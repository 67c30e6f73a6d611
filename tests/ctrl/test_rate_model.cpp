#include "ctrl/rate_model.hpp"

#include <gtest/gtest.h>

#include "netsim/network.hpp"
#include "netsim/probe.hpp"

namespace qnetp::ctrl {
namespace {

using namespace qnetp::literals;

TEST(RateModel, SingleLinkMatchesGeometricMean) {
  Rng rng(1);
  ChainRateInputs in;
  in.success_prob = {0.01};
  in.attempt_cycle = 10_us;
  in.cutoff = 1_s;
  const auto est = estimate_chain_rate(in, 4000, rng);
  // One link: mean time = cycle / p.
  EXPECT_NEAR(est.mean_time.as_ms(), 1.0, 0.1);
  EXPECT_NEAR(est.rate_per_s, 1000.0, 100.0);
  EXPECT_DOUBLE_EQ(est.discard_ratio, 0.0);
}

TEST(RateModel, TwoLinksSlowerThanOne) {
  Rng rng(2);
  ChainRateInputs one;
  one.success_prob = {0.01};
  one.attempt_cycle = 10_us;
  one.cutoff = 100_ms;
  ChainRateInputs two = one;
  two.success_prob = {0.01, 0.01};
  const auto e1 = estimate_chain_rate(one, 3000, rng);
  const auto e2 = estimate_chain_rate(two, 3000, rng);
  // Two parallel links, max of two geometrics: 1.5x the single-link time
  // when the cutoff is generous.
  EXPECT_GT(e2.mean_time, e1.mean_time * 1.3);
  EXPECT_LT(e2.mean_time, e1.mean_time * 2.0);
}

TEST(RateModel, TightCutoffCausesDiscardsAndSlowdown) {
  Rng rng(3);
  ChainRateInputs in;
  in.success_prob = {0.01, 0.01};
  in.attempt_cycle = 10_us;
  in.cutoff = 1_ms;  // equal to the mean generation time: tight
  const auto tight = estimate_chain_rate(in, 2000, rng);
  in.cutoff = 100_ms;
  const auto loose = estimate_chain_rate(in, 2000, rng);
  EXPECT_GT(tight.discard_ratio, 0.2);
  EXPECT_LT(loose.discard_ratio, 0.05);
  EXPECT_GT(tight.mean_time, loose.mean_time);
}

TEST(RateModel, MoreLinksMonotonicallySlower) {
  Rng rng(4);
  Duration prev = Duration::zero();
  for (std::size_t links : {1u, 2u, 3u, 4u, 5u}) {
    ChainRateInputs in;
    in.success_prob.assign(links, 0.02);
    in.attempt_cycle = 10_us;
    in.cutoff = 20_ms;
    const auto est = estimate_chain_rate(in, 1500, rng);
    EXPECT_GT(est.mean_time, prev);
    prev = est.mean_time;
  }
}

TEST(RateModel, AsymmetricChainLimitedByWeakestLink) {
  Rng rng(5);
  ChainRateInputs in;
  in.success_prob = {0.05, 0.002};  // second link 25x slower
  in.attempt_cycle = 10_us;
  in.cutoff = 200_ms;
  const auto est = estimate_chain_rate(in, 1500, rng);
  // The weak link needs ~5 ms per pair; the chain can't beat that.
  EXPECT_GT(est.mean_time.as_ms(), 4.5);
}

TEST(RateModel, CrossValidatesAgainstFullSimulator) {
  // The MC abstraction should predict the full-stack end-to-end rate for
  // a quiet 3-node chain within a factor ~1.6 (it ignores classical
  // latency, device durations and memory contention).
  netsim::NetworkConfig config;
  config.seed = 1234;
  auto net = netsim::make_chain(3, config, qhw::simulation_preset(),
                                qhw::FiberParams::lab(2.0));
  netsim::DualProbe probe(*net, NodeId{1}, EndpointId{10}, NodeId{3},
                          EndpointId{20});
  const auto plan = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, 0.85);
  ASSERT_TRUE(plan.has_value());
  qnp::AppRequest r;
  r.id = RequestId{1};
  r.head_endpoint = EndpointId{10};
  r.tail_endpoint = EndpointId{20};
  r.num_pairs = 1000000;
  ASSERT_TRUE(
      net->engine(NodeId{1}).submit_request(plan->install.circuit_id, r));
  const Duration horizon = 10_s;
  net->sharded_sim().run_until(TimePoint::origin() + horizon);
  const double measured_rate =
      static_cast<double>(probe.pair_count()) / horizon.as_seconds();

  // Model with the same working point.
  const auto& model = net->egp(NodeId{1}, NodeId{2})->model();
  double alpha = 0.0;
  ASSERT_TRUE(model.solve_alpha(plan->link_fidelity, &alpha));
  Rng rng(6);
  ChainRateInputs in;
  in.success_prob = {model.success_prob(alpha), model.success_prob(alpha)};
  in.attempt_cycle = model.attempt_cycle();
  in.cutoff = plan->cutoff;
  in.swap_duration = qhw::simulation_preset().swap_duration();
  const auto est = estimate_chain_rate(in, 3000, rng);

  EXPECT_GT(measured_rate, est.rate_per_s / 1.6);
  EXPECT_LT(measured_rate, est.rate_per_s * 1.6);
}

TEST(RateModel, InputValidation) {
  Rng rng(7);
  ChainRateInputs bad;
  bad.attempt_cycle = 10_us;
  bad.cutoff = 1_ms;
  EXPECT_THROW(estimate_chain_rate(bad, 10, rng), AssertionError);
  bad.success_prob = {1.5};
  EXPECT_THROW(estimate_chain_rate(bad, 10, rng), AssertionError);
}

}  // namespace
}  // namespace qnetp::ctrl
