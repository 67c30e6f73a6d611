// Quickstart: the smallest complete use of the QNP stack.
//
// Builds a three-node repeater chain (Alice - repeater - Bob), lets the
// central controller plan and install a virtual circuit for end-to-end
// fidelity 0.85, requests five entangled pairs, and prints what arrives.
//
//   $ ./quickstart
#include <cstdio>

#include "netsim/network.hpp"
#include "netsim/probe.hpp"

using namespace qnetp;
using namespace qnetp::literals;

int main() {
  // 1. Build the network: 3 nodes, 2 m lab fibre, optimistic NV hardware.
  netsim::NetworkConfig config;
  config.seed = 42;
  auto net = netsim::make_chain(3, config, qhw::simulation_preset(),
                                qhw::FiberParams::lab(2.0));
  const NodeId alice{1}, bob{3};

  // 2. Attach an application spanning both end-points. DualProbe holds
  //    each delivered qubit until the pair exists at both ends, audits
  //    the joint state, then releases the qubits.
  netsim::DualProbe app(*net, alice, EndpointId{10}, bob, EndpointId{20});

  // 3. Plan + install a virtual circuit (routing & signalling protocols).
  std::string reason;
  const auto plan = net->establish_circuit(alice, bob, EndpointId{10},
                                           EndpointId{20},
                                           /*fidelity=*/0.85, {}, &reason);
  if (!plan) {
    std::fprintf(stderr, "circuit setup failed: %s\n", reason.c_str());
    return 1;
  }
  std::printf("circuit %s installed: %zu hops, link fidelity %.4f, "
              "cutoff %s\n",
              plan->install.circuit_id.to_string().c_str(),
              plan->path.size() - 1, plan->link_fidelity,
              plan->cutoff.to_string().c_str());

  // 4. Submit a request: five KEEP pairs, delivered as Phi+.
  qnp::AppRequest request;
  request.id = RequestId{1};
  request.head_endpoint = EndpointId{10};
  request.tail_endpoint = EndpointId{20};
  request.type = netmsg::RequestType::keep;
  request.num_pairs = 5;
  request.final_state = qstate::BellIndex::phi_plus();
  if (!net->engine(alice).submit_request(plan->install.circuit_id, request,
                                         &reason)) {
    std::fprintf(stderr, "request rejected: %s\n", reason.c_str());
    return 1;
  }

  // 5. Run the simulation and report.
  net->sharded_sim().run_until(net->sharded_sim().now() + 30_s);
  std::printf("\n%-6s %-8s %-12s %-10s\n", "pair", "state", "fidelity",
              "t [ms]");
  for (const auto& p : app.pairs()) {
    std::printf("%-6llu %-8s %-12.4f %-10.3f\n",
                static_cast<unsigned long long>(p.sequence),
                p.state_head.to_string().c_str(), p.fidelity,
                p.completed_at.as_ms());
  }
  const auto done = app.head_completion(RequestId{1});
  std::printf("\nrequest completed at %s; mean delivered fidelity %.4f\n",
              done ? TimePoint(*done).to_string().c_str() : "never",
              app.mean_fidelity());
  return done.has_value() ? 0 : 1;
}
