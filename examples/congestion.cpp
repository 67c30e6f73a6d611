// Resource sharing on the dumbbell topology (a miniature of Fig. 8).
//
// Four circuits cross the MA-MB bottleneck link simultaneously, each
// carrying one request. The example prints per-circuit completion times
// and the bottleneck link's scheduling statistics — illustrating both
// the weighted-fair sharing and the memory pressure the paper discusses
// (Sec. 5.1).
//
//   $ ./congestion
#include <cstdio>

#include "netsim/network.hpp"
#include "netsim/probe.hpp"

using namespace qnetp;
using namespace qnetp::literals;

int main() {
  netsim::NetworkConfig config;
  config.seed = 2026;
  auto net = netsim::make_dumbbell(config, qhw::simulation_preset(),
                                   qhw::FiberParams::lab(2.0));
  const netsim::DumbbellIds ids;

  struct CircuitSetup {
    NodeId head, tail;
    EndpointId head_ep, tail_ep;
    const char* name;
  };
  const CircuitSetup setups[] = {
      {ids.a0, ids.b0, EndpointId{10}, EndpointId{20}, "A0-B0"},
      {ids.a1, ids.b1, EndpointId{11}, EndpointId{21}, "A1-B1"},
      {ids.a0, ids.b1, EndpointId{12}, EndpointId{22}, "A0-B1"},
      {ids.a1, ids.b0, EndpointId{13}, EndpointId{23}, "A1-B0"},
  };

  // The paper's "shorter cutoff" configuration relieves the bottleneck
  // (Fig. 8f): pairs that cannot find a partner are discarded quickly.
  ctrl::CircuitPlanOptions options;
  options.cutoff_generation_quantile = 0.85;

  std::vector<std::unique_ptr<netsim::DualProbe>> probes;
  std::vector<CircuitId> circuits;
  for (const auto& s : setups) {
    probes.push_back(std::make_unique<netsim::DualProbe>(
        *net, s.head, s.head_ep, s.tail, s.tail_ep));
    std::string reason;
    const auto plan = net->establish_circuit(s.head, s.tail, s.head_ep,
                                             s.tail_ep, 0.8, options,
                                             &reason);
    if (!plan) {
      std::fprintf(stderr, "%s setup failed: %s\n", s.name, reason.c_str());
      return 1;
    }
    circuits.push_back(plan->install.circuit_id);
  }

  // One 20-pair request per circuit, all issued at t=0.
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    qnp::AppRequest r;
    r.id = RequestId{i + 1};
    r.head_endpoint = setups[i].head_ep;
    r.tail_endpoint = setups[i].tail_ep;
    r.type = netmsg::RequestType::keep;
    r.num_pairs = 20;
    std::string reason;
    if (!net->engine(setups[i].head)
             .submit_request(circuits[i], r, &reason)) {
      std::fprintf(stderr, "request %zu rejected: %s\n", i, reason.c_str());
      return 1;
    }
  }

  net->sharded_sim().run_until(net->sharded_sim().now() + 300_s);

  std::printf("%-8s %-8s %-14s %-12s\n", "circuit", "pairs", "latency [s]",
              "fidelity");
  bool all_done = true;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const auto done = probes[i]->head_completion(RequestId{i + 1});
    all_done = all_done && done.has_value();
    std::printf("%-8s %-8zu %-14.3f %-12.4f\n", setups[i].name,
                probes[i]->pair_count(),
                done ? done->as_seconds() : -1.0,
                probes[i]->mean_fidelity());
  }

  const auto* bottleneck = net->egp(ids.ma, ids.mb);
  std::printf("\nbottleneck MA-MB: %llu pairs generated, %llu stalls "
              "(memory pressure)\n",
              static_cast<unsigned long long>(bottleneck->pairs_delivered()),
              static_cast<unsigned long long>(bottleneck->stalls()));
  std::printf("RESULT: %s\n", all_done ? "all requests completed"
                                       : "requests still pending");
  return all_done ? 0 : 1;
}
