#include "exp/scenarios.hpp"

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "apps/distillation.hpp"
#include "linklayer/egp.hpp"
#include "netsim/network.hpp"
#include "netsim/probe.hpp"
#include "netsim/topology_spec.hpp"
#include "qbase/assert.hpp"
#include "qbase/stats.hpp"

namespace qnetp::exp {

using namespace qnetp::literals;

qnp::AppRequest keep_request(std::uint64_t id, std::uint64_t pairs,
                             EndpointId head, EndpointId tail) {
  qnp::AppRequest r;
  r.id = RequestId{id};
  r.head_endpoint = head;
  r.tail_endpoint = tail;
  r.type = netmsg::RequestType::keep;
  r.num_pairs = pairs;
  return r;
}

namespace {
/// Standard dumbbell endpoint wiring used by the Fig. 8/9/10 scenarios.
struct CircuitSpec {
  NodeId head, tail;
  EndpointId head_ep, tail_ep;
};
}  // namespace

TrialResult link_cdf_trial(const LinkCdfConfig& cfg, std::uint64_t seed) {
  des::Simulator sim;
  Rng rng(seed);
  qdevice::PairRegistry registry;
  qdevice::QuantumDevice dev_a(sim, rng, registry, qhw::simulation_preset(),
                               NodeId{1});
  qdevice::QuantumDevice dev_b(sim, rng, registry, qhw::simulation_preset(),
                               NodeId{2});
  dev_a.memory().add_link_pool(LinkId{1}, 2);
  dev_b.memory().add_link_pool(LinkId{1}, 2);
  linklayer::EgpLink link(
      sim, rng, LinkId{1}, dev_a, dev_b,
      qhw::PhotonicLinkModel(qhw::simulation_preset(),
                             qhw::FiberParams::lab(cfg.fiber_m)));

  SampleSet gen_ms;
  TimePoint last = TimePoint::origin();
  link.set_delivery_handler(NodeId{1},
                            [&](const linklayer::LinkPairDelivery& d) {
                              gen_ms.add((sim.now() - last).as_ms());
                              last = sim.now();
                              dev_a.discard(d.local_qubit);
                            });
  link.set_delivery_handler(NodeId{2},
                            [&](const linklayer::LinkPairDelivery& d) {
                              dev_b.discard(d.local_qubit);
                              link.poke();
                            });

  linklayer::LinkRequest req;
  req.label = LinkLabel{1};
  req.min_fidelity = cfg.min_fidelity;
  req.continuous = true;
  link.submit(req);

  while (gen_ms.count() < cfg.target_pairs && sim.step()) {
  }

  TrialResult r;
  for (double v : gen_ms.samples()) r.add_sample("gen_ms", v);
  r.set("pairs", static_cast<double>(gen_ms.count()));
  r.set("mean_ms", gen_ms.mean());
  r.set("p95_ms", gen_ms.quantile(0.95));
  r.set("events", static_cast<double>(sim.events_executed()));
  return r;
}

TrialResult latency_throughput_trial(const LatencyThroughputConfig& cfg,
                                     std::uint64_t seed) {
  TrialResult result;
  result.set("ok", 0.0);

  netsim::NetworkConfig config;
  config.seed = seed;
  auto net = netsim::make_dumbbell(config, qhw::simulation_preset(),
                                   qhw::FiberParams::lab(2.0));
  const netsim::DumbbellIds ids;

  ctrl::CircuitPlanOptions options;
  options.cutoff_generation_quantile = 0.85;  // the short cutoff

  netsim::DualProbe probe(*net, ids.a0, EndpointId{10}, ids.b0,
                          EndpointId{20});
  const auto plan = net->establish_circuit(ids.a0, ids.b0, EndpointId{10},
                                           EndpointId{20}, 0.85, options);
  if (!plan) return result;

  std::unique_ptr<netsim::DualProbe> bg_probe;
  if (cfg.congested) {
    bg_probe = std::make_unique<netsim::DualProbe>(
        *net, ids.a1, EndpointId{11}, ids.b1, EndpointId{21});
    const auto bg_plan = net->establish_circuit(
        ids.a1, ids.b1, EndpointId{11}, EndpointId{21}, 0.85, options);
    if (!bg_plan) return result;
    // Long-running flow: one huge request.
    auto bg = keep_request(9999, 1000000, EndpointId{11}, EndpointId{21});
    if (!net->engine(ids.a1).submit_request(bg_plan->install.circuit_id,
                                            bg)) {
      return result;
    }
  }

  // Issue 3-pair requests at fixed intervals over the issue window.
  std::map<RequestId, TimePoint> issued;
  std::uint64_t next_id = 1;
  std::function<void()> pump = [&] {
    auto req = keep_request(next_id, 3, EndpointId{10}, EndpointId{20});
    issued[req.id] = net->sim().now();
    // Unadmittable requests (policing) just count as saturation pressure.
    net->engine(ids.a0).submit_request(plan->install.circuit_id, req);
    ++next_id;
    if (net->sim().now() < TimePoint::origin() + cfg.issue_window) {
      net->sim().schedule(cfg.request_interval, pump);
    }
  };
  net->sim().schedule(Duration::zero(), pump);
  net->sim().run_until(TimePoint::origin() + cfg.horizon);

  // Measure over the saturated-equilibrium window.
  const TimePoint window_start = TimePoint::origin() + cfg.measure_from;
  const TimePoint window_end = TimePoint::origin() + cfg.measure_until;
  SampleSet latency_s;
  for (const auto& [id, t_issue] : issued) {
    if (t_issue < window_start || t_issue >= window_end) continue;
    const auto done = probe.head_completion(id);
    if (!done.has_value()) continue;  // still queued: saturated
    latency_s.add((*done - t_issue).as_seconds());
  }
  double delivered = 0;
  for (const auto& p : probe.pairs()) {
    if (p.completed_at >= window_start && p.completed_at < window_end) {
      delivered += 1.0;
    }
  }
  result.set("events", static_cast<double>(net->sim().events_executed()));
  net->sim().stop();

  result.set("ok", latency_s.empty() ? 0.0 : 1.0);
  result.set("throughput",
             delivered / (window_end - window_start).as_seconds());
  if (!latency_s.empty()) {
    result.set("latency_mean", latency_s.mean());
    result.set("latency_p5", latency_s.quantile(0.05));
    result.set("latency_p95", latency_s.quantile(0.95));
    for (double v : latency_s.samples()) result.add_sample("latency_s", v);
  }
  return result;
}

TrialResult sharing_trial(const SharingConfig& cfg, std::uint64_t seed) {
  TrialResult result;
  result.set("ok", 0.0);
  result.set("timeout", 0.0);

  netsim::NetworkConfig config;
  config.seed = seed;
  auto net = netsim::make_dumbbell(config, qhw::simulation_preset(),
                                   qhw::FiberParams::lab(2.0));
  const netsim::DumbbellIds ids;
  const CircuitSpec specs[4] = {
      {ids.a0, ids.b0, EndpointId{10}, EndpointId{20}},
      {ids.a1, ids.b1, EndpointId{11}, EndpointId{21}},
      {ids.a0, ids.b1, EndpointId{12}, EndpointId{22}},
      {ids.a1, ids.b0, EndpointId{13}, EndpointId{23}},
  };

  ctrl::CircuitPlanOptions options;
  if (cfg.short_cutoff) options.cutoff_generation_quantile = 0.85;

  std::vector<std::unique_ptr<netsim::DualProbe>> probes;
  std::vector<CircuitId> circuits;
  for (std::size_t c = 0; c < cfg.n_circuits; ++c) {
    probes.push_back(std::make_unique<netsim::DualProbe>(
        *net, specs[c].head, specs[c].head_ep, specs[c].tail,
        specs[c].tail_ep));
    const auto plan = net->establish_circuit(specs[c].head, specs[c].tail,
                                             specs[c].head_ep,
                                             specs[c].tail_ep, cfg.fidelity,
                                             options);
    if (!plan) return result;
    circuits.push_back(plan->install.circuit_id);
  }

  // Round-robin request placement (Sec. 5.1), all issued simultaneously.
  const TimePoint issue_at = net->sim().now();
  std::vector<std::size_t> request_circuit(cfg.n_requests);
  for (std::size_t r = 0; r < cfg.n_requests; ++r) {
    const std::size_t c = r % cfg.n_circuits;
    request_circuit[r] = c;
    auto req = keep_request(r + 1, cfg.pairs_per_request, specs[c].head_ep,
                            specs[c].tail_ep);
    if (!net->engine(specs[c].head).submit_request(circuits[c], req)) {
      return result;
    }
  }

  net->sim().run_until(issue_at + cfg.horizon);
  result.set("events", static_cast<double>(net->sim().events_executed()));

  // Average latency of the requests on circuit 0 (A0-B0).
  RunningStats latency;
  for (std::size_t r = 0; r < cfg.n_requests; ++r) {
    if (request_circuit[r] != 0) continue;
    const auto done = probes[0]->head_completion(RequestId{r + 1});
    if (!done.has_value()) {
      result.set("timeout", 1.0);  // did not finish in the horizon
      net->sim().stop();
      return result;
    }
    latency.add((*done - issue_at).as_seconds());
  }
  net->sim().stop();
  result.set("ok", 1.0);
  result.set("latency_s", latency.mean());
  return result;
}

TrialResult decoherence_trial(const DecoherenceConfig& cfg,
                              std::uint64_t seed) {
  TrialResult result;
  result.set("ok", 0.0);

  netsim::NetworkConfig config;
  config.seed = seed;
  if (!cfg.use_cutoff) {
    config.qnp.decoherence = qnp::DecoherencePolicy::oracle_end_discard;
  }
  auto hw = qhw::simulation_preset();
  hw.phys.electron_t2 = Duration::seconds(cfg.t2_seconds);
  auto net = netsim::make_dumbbell(config, hw, qhw::FiberParams::lab(2.0));
  const netsim::DumbbellIds ids;

  netsim::DualProbe p_high(*net, ids.a0, EndpointId{10}, ids.b0,
                           EndpointId{20});
  netsim::DualProbe p_low(*net, ids.a1, EndpointId{11}, ids.b1,
                          EndpointId{21});
  const auto plan_high = net->establish_circuit(ids.a0, ids.b0,
                                                EndpointId{10},
                                                EndpointId{20}, 0.9);
  const auto plan_low = net->establish_circuit(ids.a1, ids.b1,
                                               EndpointId{11},
                                               EndpointId{21}, 0.8);
  if (!plan_high || !plan_low) return result;

  // One long-running request per circuit (paper Sec. 5.2).
  if (!net->engine(ids.a0).submit_request(
          plan_high->install.circuit_id,
          keep_request(1, 1000000, EndpointId{10}, EndpointId{20}))) {
    return result;
  }
  if (!net->engine(ids.a1).submit_request(
          plan_low->install.circuit_id,
          keep_request(2, 1000000, EndpointId{11}, EndpointId{21}))) {
    return result;
  }
  net->sim().run_until(TimePoint::origin() + cfg.horizon);
  result.set("events", static_cast<double>(net->sim().events_executed()));
  net->sim().stop();

  result.set("ok", 1.0);
  result.set("tput_high", static_cast<double>(p_high.pair_count()) /
                              cfg.horizon.as_seconds());
  result.set("tput_low", static_cast<double>(p_low.pair_count()) /
                             cfg.horizon.as_seconds());
  result.set("fid_high", p_high.mean_fidelity());
  result.set("fid_low", p_low.mean_fidelity());
  return result;
}

TrialResult message_delay_trial(const MessageDelayConfig& cfg,
                                std::uint64_t seed) {
  TrialResult result;
  result.set("ok", 0.0);

  netsim::NetworkConfig config;
  config.seed = seed;
  auto hw = qhw::simulation_preset();
  hw.phys.electron_t2 = 1600_ms;  // achievable lifetime (paper Sec. 5.2)
  auto net = netsim::make_dumbbell(config, hw, qhw::FiberParams::lab(2.0));
  net->classical().set_extra_delay(cfg.extra_delay);
  const netsim::DumbbellIds ids;

  netsim::DualProbe p_high(*net, ids.a0, EndpointId{10}, ids.b0,
                           EndpointId{20});
  netsim::DualProbe p_low(*net, ids.a1, EndpointId{11}, ids.b1,
                          EndpointId{21});
  const auto plan_high = net->establish_circuit(
      ids.a0, ids.b0, EndpointId{10}, EndpointId{20}, 0.9, {}, nullptr,
      10_s);
  const auto plan_low = net->establish_circuit(
      ids.a1, ids.b1, EndpointId{11}, EndpointId{21}, 0.8, {}, nullptr,
      10_s);
  if (!plan_high || !plan_low) return result;

  net->engine(ids.a0).submit_request(
      plan_high->install.circuit_id,
      keep_request(1, 1000000, EndpointId{10}, EndpointId{20}));
  net->engine(ids.a1).submit_request(
      plan_low->install.circuit_id,
      keep_request(2, 1000000, EndpointId{11}, EndpointId{21}));
  const TimePoint start = net->sim().now();
  net->sim().run_until(start + cfg.horizon);
  result.set("events", static_cast<double>(net->sim().events_executed()));
  net->sim().stop();

  auto goodput = [&](const netsim::DualProbe& p, double threshold) {
    double good = 0;
    for (const auto& rec : p.pairs()) {
      if (rec.fidelity >= threshold) good += 1.0;
    }
    return good / cfg.horizon.as_seconds();
  };

  result.set("ok", 1.0);
  result.set("cutoff_ms", plan_high->cutoff.as_ms());
  result.set("tput_high", static_cast<double>(p_high.pair_count()) /
                              cfg.horizon.as_seconds());
  result.set("good_high", goodput(p_high, 0.9));
  result.set("tput_low", static_cast<double>(p_low.pair_count()) /
                             cfg.horizon.as_seconds());
  result.set("good_low", goodput(p_low, 0.8));
  return result;
}

TrialResult near_term_trial(const NearTermConfig& cfg, std::uint64_t seed) {
  TrialResult result;
  result.set("ok", 0.0);

  netsim::NetworkConfig config;
  config.seed = seed;
  config.storage_qubits = cfg.storage_qubits;  // carbon memories per node
  auto net = netsim::make_chain(3, config, qhw::near_term_preset(),
                                qhw::FiberParams::telecom(25000.0));

  // Manual circuit: link fidelity close to the hardware ceiling, cutoff
  // hand-tuned to meet F=0.5 end-to-end (Sec. 5.3).
  const auto& model = net->egp(NodeId{1}, NodeId{2})->model();
  const double link_fidelity = model.max_fidelity() - 0.02;

  netmsg::InstallMsg install;
  install.circuit_id = CircuitId{1};
  install.head_end_identifier = EndpointId{10};
  install.tail_end_identifier = EndpointId{20};
  install.end_to_end_fidelity = 0.5;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    netmsg::HopState hop;
    hop.node = NodeId{i};
    hop.upstream = (i > 1) ? NodeId{i - 1} : NodeId{};
    hop.downstream = (i < 3) ? NodeId{i + 1} : NodeId{};
    hop.upstream_label = (i > 1) ? LinkLabel{i - 1} : LinkLabel{};
    hop.downstream_label = (i < 3) ? LinkLabel{i} : LinkLabel{};
    hop.downstream_min_fidelity = (i < 3) ? link_fidelity : 0.0;
    hop.downstream_max_lpr = 5.0;
    hop.circuit_max_eer = 1.0;
    hop.cutoff = cfg.cutoff;
    install.hops.push_back(hop);
  }
  net->install_manual_circuit(install);

  netsim::DualProbe probe(*net, NodeId{1}, EndpointId{10}, NodeId{3},
                          EndpointId{20});
  if (!net->engine(NodeId{1}).submit_request(
          CircuitId{1},
          keep_request(1, cfg.pairs, EndpointId{10}, EndpointId{20}))) {
    return result;
  }

  net->sim().run_until(TimePoint::origin() + cfg.horizon);
  result.set("events", static_cast<double>(net->sim().events_executed()));
  net->sim().stop();

  for (const auto& p : probe.pairs()) {
    result.add_sample("arrival_s", p.completed_at.as_seconds());
    result.add_sample("pair_fidelity", p.fidelity);
  }
  const auto& mid = net->engine(NodeId{2}).counters();
  result.set("ok", 1.0);
  result.set("delivered", static_cast<double>(probe.pair_count()));
  result.set("mean_fidelity",
             probe.pair_count() > 0 ? probe.mean_fidelity() : 0.0);
  result.set("swaps", static_cast<double>(mid.swaps_completed));
  result.set("cutoff_discards",
             static_cast<double>(mid.pairs_discarded_cutoff));
  result.set("link_fidelity", link_fidelity);
  result.set("max_fidelity", model.max_fidelity());
  return result;
}

TrialResult aggregation_trial(const AggregationConfig& cfg,
                              std::uint64_t seed) {
  TrialResult result;
  result.set("ok", 0.0);

  netsim::NetworkConfig config;
  config.seed = seed;
  auto net = netsim::make_chain(3, config, qhw::simulation_preset(),
                                qhw::FiberParams::lab(2.0));
  ctrl::CircuitPlanOptions options;
  options.cutoff_generation_quantile = 0.85;

  const std::size_t n_circuits = cfg.aggregate ? 1 : cfg.k_requests;
  std::vector<std::unique_ptr<netsim::DualProbe>> probes;
  std::vector<CircuitId> circuits;
  for (std::size_t c = 0; c < n_circuits; ++c) {
    const EndpointId he{10 + c};
    const EndpointId te{200 + c};
    probes.push_back(std::make_unique<netsim::DualProbe>(
        *net, NodeId{1}, he, NodeId{3}, te));
    const auto plan = net->establish_circuit(NodeId{1}, NodeId{3}, he, te,
                                             0.85, options);
    if (!plan) return result;
    circuits.push_back(plan->install.circuit_id);
  }

  const TimePoint start = net->sim().now();
  for (std::size_t r = 0; r < cfg.k_requests; ++r) {
    const std::size_t c = cfg.aggregate ? 0 : r;
    const EndpointId he{10 + c};
    const EndpointId te{200 + c};
    if (!net->engine(NodeId{1}).submit_request(
            circuits[c], keep_request(r + 1, cfg.pairs_each, he, te))) {
      return result;
    }
  }
  net->sim().run_until(start + cfg.horizon);
  result.set("events", static_cast<double>(net->sim().events_executed()));

  TimePoint last = start;
  for (std::size_t r = 0; r < cfg.k_requests; ++r) {
    const std::size_t c = cfg.aggregate ? 0 : r;
    const auto done = probes[c]->head_completion(RequestId{r + 1});
    if (!done.has_value()) {
      net->sim().stop();
      return result;  // >horizon
    }
    last = std::max(last, *done);
  }
  net->sim().stop();
  result.set("ok", 1.0);
  result.set("makespan_s", (last - start).as_seconds());
  result.set("circuits", static_cast<double>(n_circuits));
  return result;
}

TrialResult cutoff_sweep_trial(const CutoffSweepConfig& cfg,
                               std::uint64_t seed) {
  TrialResult result;
  result.set("ok", 0.0);

  netsim::NetworkConfig config;
  config.seed = seed;
  auto hw = qhw::simulation_preset();
  hw.phys.electron_t2 = Duration::seconds(cfg.t2_seconds);
  auto net = netsim::make_chain(3, config, hw, qhw::FiberParams::lab(2.0));

  // Manual circuit with a FIXED link fidelity so the sweep varies only
  // the cutoff (the automatic planner would re-derive the link fidelity
  // from the cutoff and confound the ablation).
  netmsg::InstallMsg install;
  install.circuit_id = CircuitId{1};
  install.head_end_identifier = EndpointId{10};
  install.tail_end_identifier = EndpointId{20};
  install.end_to_end_fidelity = 0.85;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    netmsg::HopState hop;
    hop.node = NodeId{i};
    hop.upstream = (i > 1) ? NodeId{i - 1} : NodeId{};
    hop.downstream = (i < 3) ? NodeId{i + 1} : NodeId{};
    hop.upstream_label = (i > 1) ? LinkLabel{i - 1} : LinkLabel{};
    hop.downstream_label = (i < 3) ? LinkLabel{i} : LinkLabel{};
    hop.downstream_min_fidelity = (i < 3) ? cfg.link_fidelity : 0.0;
    hop.downstream_max_lpr = 100.0;
    hop.circuit_max_eer = 50.0;
    hop.cutoff = cfg.cutoff;
    install.hops.push_back(hop);
  }
  net->install_manual_circuit(install);

  netsim::DualProbe probe(*net, NodeId{1}, EndpointId{10}, NodeId{3},
                          EndpointId{20});
  net->engine(NodeId{1}).submit_request(
      CircuitId{1},
      keep_request(1, 1000000, EndpointId{10}, EndpointId{20}));
  net->sim().run_until(TimePoint::origin() + cfg.horizon);
  result.set("events", static_cast<double>(net->sim().events_executed()));
  net->sim().stop();

  result.set("ok", 1.0);
  result.set("tput", static_cast<double>(probe.pair_count()) /
                         cfg.horizon.as_seconds());
  result.set("fidelity",
             probe.pair_count() > 0 ? probe.mean_fidelity() : 0.0);
  result.set("discards_per_s",
             static_cast<double>(
                 net->engine(NodeId{2}).counters().pairs_discarded_cutoff) /
                 cfg.horizon.as_seconds());
  return result;
}

TrialResult tracking_trial(const TrackingConfig& cfg, std::uint64_t seed) {
  TrialResult result;
  result.set("ok", 0.0);

  netsim::NetworkConfig config;
  config.seed = seed;
  config.qnp.lazy_tracking = cfg.lazy;
  auto hw = qhw::simulation_preset();
  hw.phys.electron_t2 = 5_s;
  auto net = netsim::make_chain(4, config, hw, qhw::FiberParams::lab(2.0));
  net->classical().set_extra_delay(cfg.extra_delay);

  netsim::DualProbe probe(*net, NodeId{1}, EndpointId{10}, NodeId{4},
                          EndpointId{20});
  const auto plan =
      net->establish_circuit(NodeId{1}, NodeId{4}, EndpointId{10},
                             EndpointId{20}, 0.8, {}, nullptr, 10_s);
  if (!plan) return result;
  const TimePoint start = net->sim().now();
  net->engine(NodeId{1}).submit_request(
      plan->install.circuit_id,
      keep_request(1, cfg.pairs, EndpointId{10}, EndpointId{20}));
  net->sim().run_until(start + cfg.horizon);
  result.set("events", static_cast<double>(net->sim().events_executed()));
  net->sim().stop();

  const auto done = probe.head_completion(RequestId{1});
  if (!done.has_value()) return result;
  result.set("ok", 1.0);
  result.set("latency_s", (*done - start).as_seconds());
  result.set("fidelity", probe.mean_fidelity());
  return result;
}

const char* to_string(TopologyFamily family) {
  switch (family) {
    case TopologyFamily::grid: return "grid";
    case TopologyFamily::ring: return "ring";
    case TopologyFamily::star: return "star";
    case TopologyFamily::hetero_chain: return "hetero_chain";
    case TopologyFamily::waxman: return "waxman";
  }
  return "?";
}

netsim::TopologySpec family_topology_spec(TopologyFamily family,
                                          std::size_t size,
                                          std::uint64_t seed) {
  const auto hw = qhw::simulation_preset();
  const auto fiber = qhw::FiberParams::lab(2.0);
  switch (family) {
    case TopologyFamily::grid:
      return netsim::TopologySpec::grid(size, size, hw, fiber);
    case TopologyFamily::ring:
      return netsim::TopologySpec::ring(size, hw, fiber);
    case TopologyFamily::star:
      return netsim::TopologySpec::star(size, hw, fiber);
    case TopologyFamily::hetero_chain: {
      auto spec = netsim::TopologySpec::chain(size, hw, fiber);
      // Alternate short and long fibers so links differ in rate.
      for (std::size_t i = 1; i + 1 <= size; i += 2) {
        spec.with_link_fiber(NodeId{i}, NodeId{i + 1},
                             qhw::FiberParams::lab(6.0));
      }
      return spec;
    }
    case TopologyFamily::waxman: {
      netsim::WaxmanParams params;
      params.nodes = size;
      return netsim::TopologySpec::waxman(seed, params, hw);
    }
  }
  QNETP_ASSERT_MSG(false, "unknown topology family");
  return netsim::TopologySpec::chain(2, hw, fiber);
}

std::vector<std::pair<NodeId, NodeId>> family_flow_endpoints(
    TopologyFamily family, std::size_t size, std::size_t n_flows) {
  std::vector<std::pair<NodeId, NodeId>> flows;
  const std::size_t n = size;
  switch (family) {
    case TopologyFamily::grid: {
      const auto at = [n](std::size_t r, std::size_t c) {
        return NodeId{r * n + c + 1};
      };
      // Diagonals first (cross at the centre), then row and column
      // crossings.
      flows.emplace_back(at(0, 0), at(n - 1, n - 1));
      flows.emplace_back(at(0, n - 1), at(n - 1, 0));
      for (std::size_t r = 0; flows.size() < n_flows && r < n; ++r) {
        flows.emplace_back(at(r, 0), at(r, n - 1));
      }
      for (std::size_t c = 0; flows.size() < n_flows && c < n; ++c) {
        flows.emplace_back(at(0, c), at(n - 1, c));
      }
      break;
    }
    case TopologyFamily::ring:
      for (std::size_t i = 0; i < n_flows; ++i) {
        const std::size_t head = (2 * i) % n;
        const std::size_t tail = (head + n / 2) % n;
        flows.emplace_back(NodeId{head + 1}, NodeId{tail + 1});
      }
      break;
    case TopologyFamily::star:
      // Leaves are ids 2..n+1; every flow crosses the hub.
      for (std::size_t i = 0; i < n_flows; ++i) {
        const std::size_t head = (2 * i) % n;
        const std::size_t tail = (2 * i + 1) % n;
        flows.emplace_back(NodeId{head + 2}, NodeId{tail + 2});
      }
      break;
    case TopologyFamily::hetero_chain:
    case TopologyFamily::waxman:
      for (std::size_t i = 0; i < n_flows; ++i) {
        const std::size_t head = i % n;
        const std::size_t tail = (head + n / 2) % n;
        flows.emplace_back(NodeId{head + 1}, NodeId{tail + 1});
      }
      break;
  }
  flows.resize(std::min<std::size_t>(flows.size(), n_flows));
  // Drop degenerate pairs (possible for tiny sizes).
  std::erase_if(flows, [](const auto& f) { return f.first == f.second; });
  return flows;
}

netsim::TopologySpec region_grid_spec(std::size_t regions, std::size_t rows,
                                      std::size_t cols) {
  QNETP_ASSERT(regions >= 1);
  QNETP_ASSERT(rows >= 1);
  QNETP_ASSERT(cols >= 2);
  const auto hw = qhw::simulation_preset();
  std::vector<netsim::TopologySpec> parts;
  parts.reserve(regions);
  for (std::size_t r = 0; r < regions; ++r) {
    parts.push_back(
        netsim::TopologySpec::grid(rows, cols, hw, qhw::FiberParams::lab(2.0)));
  }
  return netsim::TopologySpec::compose_regions(
      parts, qhw::FiberParams::telecom(20000.0));
}

std::vector<std::pair<NodeId, NodeId>> region_flow_endpoints(
    std::size_t regions, std::size_t rows, std::size_t cols,
    std::size_t per_region) {
  const std::size_t span = std::min<std::size_t>(3, cols - 1);
  const std::size_t starts = cols - span;
  const auto node = [rows, cols](std::size_t r, std::size_t row,
                                 std::size_t col) {
    return NodeId{r * rows * cols + row * cols + col + 1};
  };
  std::vector<std::pair<NodeId, NodeId>> flows;
  for (std::size_t r = 0; r < regions; ++r) {
    for (std::size_t i = 0; i < per_region; ++i) {
      const std::size_t row = i % rows;
      const std::size_t start = ((i / rows) * 2) % starts;
      flows.emplace_back(node(r, row, start), node(r, row, start + span));
    }
  }
  return flows;
}

TrialResult multiflow_trial(const MultiflowConfig& cfg, std::uint64_t seed) {
  TrialResult result;
  result.set("ok", 0.0);

  netsim::NetworkConfig config;
  config.seed = seed;
  config.admission.max_circuits_per_link = cfg.max_circuits_per_link;
  auto net =
      family_topology_spec(cfg.family, cfg.size, seed).build(config);

  ctrl::CircuitPlanOptions options;
  if (cfg.short_cutoff) options.cutoff_generation_quantile = 0.85;
  options.requested_eer = cfg.requested_eer;

  const auto flows =
      family_flow_endpoints(cfg.family, cfg.size, cfg.n_circuits);
  struct Flow {
    std::unique_ptr<netsim::DualProbe> probe;
    CircuitId circuit;
    EndpointId head_ep, tail_ep;
    NodeId head;
    RequestId request;
  };
  std::vector<Flow> admitted;
  double rejected = 0.0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const EndpointId head_ep{10 + i};
    const EndpointId tail_ep{200 + i};
    const auto plan =
        net->establish_circuit(flows[i].first, flows[i].second, head_ep,
                               tail_ep, cfg.fidelity, options);
    if (!plan.has_value()) {
      rejected += 1.0;
      continue;
    }
    // Probe only after admission: a rejected flow must not leave
    // endpoint handlers registered for a probe that no longer exists.
    auto probe = std::make_unique<netsim::DualProbe>(
        *net, flows[i].first, head_ep, flows[i].second, tail_ep);
    admitted.push_back(Flow{std::move(probe), plan->install.circuit_id,
                            head_ep, tail_ep, flows[i].first,
                            RequestId{i + 1}});
  }

  const TimePoint start = net->sim().now();
  for (const auto& flow : admitted) {
    qnp::AppRequest req;
    req.id = flow.request;
    req.head_endpoint = flow.head_ep;
    req.tail_endpoint = flow.tail_ep;
    req.type = netmsg::RequestType::keep;
    req.num_pairs = cfg.pairs_per_request;
    net->engine(flow.head).submit_request(flow.circuit, req);
  }
  net->sim().run_until(start + cfg.horizon);
  result.set("events", static_cast<double>(net->sim().events_executed()));

  double delivered = 0.0;
  double completed = 0.0;
  double mismatches = 0.0;
  RunningStats fidelity;
  for (const auto& flow : admitted) {
    delivered += static_cast<double>(flow.probe->pair_count());
    mismatches += static_cast<double>(flow.probe->state_mismatches());
    for (const auto& p : flow.probe->pairs()) fidelity.add(p.fidelity);
    const auto done = flow.probe->head_completion(flow.request);
    if (done.has_value()) {
      completed += 1.0;
      result.add_sample("flow_latency_s", (*done - start).as_seconds());
    }
  }
  net->sim().stop();

  result.set("ok", admitted.empty() ? 0.0 : 1.0);
  result.set("admitted", static_cast<double>(admitted.size()));
  result.set("rejected", rejected);
  result.set("delivered", delivered);
  result.set("completed", completed);
  result.set("mean_fidelity", fidelity.count() > 0 ? fidelity.mean() : 0.0);
  result.set("mismatches", mismatches);
  return result;
}

TrialResult distillation_trial(const DistillationConfig& cfg,
                               std::uint64_t seed) {
  TrialResult result;
  result.set("ok", 0.0);

  netsim::NetworkConfig config;
  config.seed = seed;
  config.comm_qubits_per_link = 8;  // distillation buffers pairs
  auto net = netsim::make_chain(3, config, qhw::simulation_preset(),
                                qhw::FiberParams::lab(2.0));

  double raw_fidelity = 0.0, out_fidelity = 0.0;
  std::size_t out_pairs = 0;
  apps::DistillationService distiller(
      *net, NodeId{1}, EndpointId{10}, NodeId{3}, EndpointId{20},
      [&](const apps::DistilledPair& p) {
        raw_fidelity += p.fidelity_raw;
        out_fidelity += p.fidelity_after;
        ++out_pairs;
        net->engine(NodeId{1}).release_app_qubit(p.head_qubit);
        net->engine(NodeId{3}).release_app_qubit(p.tail_qubit);
      },
      cfg.rounds);
  const auto plan = net->establish_circuit(
      NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, cfg.target);
  if (!plan) return result;
  distiller.start(plan->install.circuit_id, RequestId{1}, cfg.raw_pairs);
  net->sim().run_until(TimePoint::origin() + cfg.horizon);
  result.set("events", static_cast<double>(net->sim().events_executed()));
  net->sim().stop();

  result.set("ok", 1.0);
  result.set("out_pairs", static_cast<double>(out_pairs));
  result.set("raw_pairs", static_cast<double>(cfg.raw_pairs));
  result.set("success_ratio", distiller.success_ratio());
  if (out_pairs > 0) {
    result.set("raw_fidelity",
               raw_fidelity / static_cast<double>(out_pairs));
    result.set("out_fidelity",
               out_fidelity / static_cast<double>(out_pairs));
  }
  return result;
}

}  // namespace qnetp::exp
