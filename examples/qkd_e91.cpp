// Entanglement-based QKD over a repeater chain — the paper's flagship
// "measure directly" use case (Sec. 3.1).
//
// Alice and Bob generate 600 entangled pairs over a 3-node chain,
// measure each in a random basis, sift, estimate the QBER from a
// sacrificed sample and keep the rest as key material.
//
//   $ ./qkd_e91
#include <cstdio>

#include "apps/qkd.hpp"
#include "netsim/network.hpp"

using namespace qnetp;
using namespace qnetp::literals;

int main() {
  netsim::NetworkConfig config;
  config.seed = 7;
  auto net = netsim::make_chain(3, config, qhw::simulation_preset(),
                                qhw::FiberParams::lab(2.0));
  const NodeId alice{1}, bob{3};

  apps::QkdApp qkd(*net, alice, EndpointId{10}, bob, EndpointId{20},
                   /*sample_every=*/4);

  std::string reason;
  const auto plan = net->establish_circuit(alice, bob, EndpointId{10},
                                           EndpointId{20},
                                           /*fidelity=*/0.9, {}, &reason);
  if (!plan) {
    std::fprintf(stderr, "circuit setup failed: %s\n", reason.c_str());
    return 1;
  }
  if (!qkd.start(plan->install.circuit_id, RequestId{1}, 600, &reason)) {
    std::fprintf(stderr, "request rejected: %s\n", reason.c_str());
    return 1;
  }

  net->sharded_sim().run_until(net->sharded_sim().now() + 300_s);
  const auto report = qkd.report();

  std::printf("pairs consumed : %zu\n", report.pairs_consumed);
  std::printf("sifted bits    : %zu (ratio %.2f, expect ~0.5)\n",
              report.sifted_bits, report.sift_ratio());
  std::printf("QBER sample    : %zu bits, %zu errors -> QBER %.2f%%\n",
              report.sampled_bits, report.sample_errors,
              100.0 * report.qber());
  std::printf("key bits       : %zu, agreement %.2f%%\n", report.key_bits,
              100.0 * report.key_agreement());
  std::printf("elapsed        : %.2f s simulated\n",
              net->sharded_sim().now().as_seconds());

  // Basic QKD is viable below ~11% QBER (fidelity ~0.8+, Sec. 2.3).
  if (report.qber() > 0.11) {
    std::printf("RESULT: QBER too high for key distillation\n");
    return 1;
  }
  std::printf("RESULT: key established\n");
  return 0;
}
