// Deterministic qubit transmission by teleportation — the "create and
// keep" use case (Sec. 3.1).
//
// A sender teleports 25 random qubit states to a receiver across a
// 4-node repeater chain, consuming one delivered entangled pair per
// state, and reports the output fidelities.
//
//   $ ./teleport
#include <cstdio>

#include "apps/teleport.hpp"
#include "netsim/network.hpp"

using namespace qnetp;
using namespace qnetp::literals;

int main() {
  netsim::NetworkConfig config;
  config.seed = 99;
  auto net = netsim::make_chain(4, config, qhw::simulation_preset(),
                                qhw::FiberParams::lab(2.0));
  const NodeId sender{1}, receiver{4};

  apps::TeleportApp teleporter(*net, sender, EndpointId{10}, receiver,
                               EndpointId{20});

  std::string reason;
  const auto plan = net->establish_circuit(sender, receiver, EndpointId{10},
                                           EndpointId{20},
                                           /*fidelity=*/0.85, {}, &reason);
  if (!plan) {
    std::fprintf(stderr, "circuit setup failed: %s\n", reason.c_str());
    return 1;
  }
  if (!teleporter.start(plan->install.circuit_id, RequestId{1}, 25,
                        &reason)) {
    std::fprintf(stderr, "request rejected: %s\n", reason.c_str());
    return 1;
  }

  net->sharded_sim().run_until(net->sharded_sim().now() + 120_s);

  std::printf("%-6s %-10s %-12s %-10s\n", "no.", "BSM", "out fidelity",
              "t [ms]");
  for (const auto& r : teleporter.records()) {
    std::printf("%-6llu %-10s %-12.4f %-10.2f\n",
                static_cast<unsigned long long>(r.sequence),
                r.bsm_outcome.to_string().c_str(), r.output_fidelity,
                r.at.as_ms());
  }
  std::printf("\nteleported %zu states, mean output fidelity %.4f\n",
              teleporter.records().size(),
              teleporter.mean_output_fidelity());
  // A classical channel alone caps at 2/3; beating it proves we used
  // entanglement.
  if (teleporter.mean_output_fidelity() <= 2.0 / 3.0) {
    std::printf("RESULT: below classical bound — something is wrong\n");
    return 1;
  }
  std::printf("RESULT: beats the classical bound of 2/3\n");
  return 0;
}
