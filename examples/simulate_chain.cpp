// simulate_chain: a command-line driver for exploring the stack without
// writing code. Builds a linear repeater chain, installs a circuit and
// requests pairs; prints delivery statistics.
//
//   $ ./simulate_chain --nodes=4 --length-m=2 --fidelity=0.8 --pairs=20
//   $ ./simulate_chain --near-term --nodes=3 --length-m=25000
//         --fidelity=0.5 --pairs=5
#include <cstdio>
#include <cstring>
#include <string>

#include "netsim/network.hpp"
#include "netsim/probe.hpp"

using namespace qnetp;
using namespace qnetp::literals;

namespace {

struct Options {
  std::size_t nodes = 3;
  double length_m = 2.0;
  double fidelity = 0.85;
  std::uint64_t pairs = 10;
  std::uint64_t seed = 1;
  double horizon_s = 600.0;
  bool near_term = false;
  bool short_cutoff = false;

  static bool parse(int argc, char** argv, Options* out) {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto value = [&a](const char* key) -> const char* {
        const std::size_t n = std::strlen(key);
        return a.rfind(key, 0) == 0 ? a.c_str() + n : nullptr;
      };
      if (const char* v = value("--nodes=")) {
        out->nodes = std::stoul(v);
      } else if (const char* v = value("--length-m=")) {
        out->length_m = std::stod(v);
      } else if (const char* v = value("--fidelity=")) {
        out->fidelity = std::stod(v);
      } else if (const char* v = value("--pairs=")) {
        out->pairs = std::stoull(v);
      } else if (const char* v = value("--seed=")) {
        out->seed = std::stoull(v);
      } else if (const char* v = value("--horizon-s=")) {
        out->horizon_s = std::stod(v);
      } else if (a == "--near-term") {
        out->near_term = true;
      } else if (a == "--short-cutoff") {
        out->short_cutoff = true;
      } else if (a == "--help") {
        return false;
      } else {
        std::fprintf(stderr, "unknown option %s\n", a.c_str());
        return false;
      }
    }
    return out->nodes >= 2 && out->fidelity > 0.25 && out->fidelity < 1.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!Options::parse(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s [--nodes=N] [--length-m=L] [--fidelity=F] "
                 "[--pairs=P] [--seed=S] [--horizon-s=T] [--near-term] "
                 "[--short-cutoff]\n",
                 argv[0]);
    return 2;
  }

  netsim::NetworkConfig config;
  config.seed = opt.seed;
  if (opt.near_term) config.storage_qubits = 2;
  const auto hw =
      opt.near_term ? qhw::near_term_preset() : qhw::simulation_preset();
  const auto fiber = opt.near_term
                         ? qhw::FiberParams::telecom(opt.length_m)
                         : qhw::FiberParams::lab(opt.length_m);
  auto net = netsim::make_chain(opt.nodes, config, hw, fiber);
  const NodeId head{1}, tail{opt.nodes};

  netsim::DualProbe app(*net, head, EndpointId{10}, tail, EndpointId{20});

  ctrl::CircuitPlanOptions options;
  if (opt.short_cutoff) options.cutoff_generation_quantile = 0.85;
  std::string reason;
  const auto plan =
      net->establish_circuit(head, tail, EndpointId{10}, EndpointId{20},
                             opt.fidelity, options, &reason);
  if (!plan) {
    std::fprintf(stderr, "circuit setup failed: %s\n", reason.c_str());
    return 1;
  }
  std::printf("chain: %zu nodes, %.0f m links (%s hardware)\n", opt.nodes,
              opt.length_m, hw.name.c_str());
  std::printf("circuit: link fidelity %.4f, max LPR %.2f pairs/s, cutoff "
              "%s\n",
              plan->link_fidelity, plan->max_lpr,
              plan->cutoff.to_string().c_str());

  qnp::AppRequest request;
  request.id = RequestId{1};
  request.head_endpoint = EndpointId{10};
  request.tail_endpoint = EndpointId{20};
  request.type = netmsg::RequestType::keep;
  request.num_pairs = opt.pairs;
  if (!net->engine(head).submit_request(plan->install.circuit_id, request,
                                        &reason)) {
    std::fprintf(stderr, "request rejected: %s\n", reason.c_str());
    return 1;
  }

  net->sharded_sim().run_until(net->sharded_sim().now() +
                              Duration::seconds(opt.horizon_s));

  const auto done = app.head_completion(RequestId{1});
  std::printf("\ndelivered %zu/%llu pairs", app.pair_count(),
              static_cast<unsigned long long>(opt.pairs));
  if (done) {
    std::printf(" in %.3f s (%.2f pairs/s)", done->as_seconds(),
                static_cast<double>(opt.pairs) / done->as_seconds());
  }
  std::printf("\nmean delivered fidelity: %.4f (target %.2f)\n",
              app.mean_fidelity(), opt.fidelity);
  std::printf("state mismatches: %zu, unmatched deliveries: %zu\n",
              app.state_mismatches(), app.unmatched());
  const auto& mid = net->engine(NodeId{2}).counters();
  std::printf("first repeater: %llu swaps, %llu cutoff discards\n",
              static_cast<unsigned long long>(mid.swaps_completed),
              static_cast<unsigned long long>(mid.pairs_discarded_cutoff));
  return done.has_value() ? 0 : 1;
}
