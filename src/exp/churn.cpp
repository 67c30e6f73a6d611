#include "exp/churn.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <utility>

#include "netsim/network.hpp"
#include "netsim/probe.hpp"
#include "qbase/assert.hpp"
#include "qbase/fnv.hpp"

namespace qnetp::exp {

using namespace qnetp::literals;

std::vector<ChurnEvent> default_churn_timeline(TopologyFamily family,
                                               std::size_t size) {
  using K = ChurnEventKind;
  switch (family) {
    case TopologyFamily::grid: {
      QNETP_ASSERT(size >= 3);
      const auto at = [size](std::size_t r, std::size_t c) {
        return NodeId{r * size + c + 1};
      };
      return {{.kind = K::sever, .at = 5_s, .a = at(0, 0), .b = at(0, 1)},
              {.kind = K::degrade, .at = 10_s, .a = at(0, 0), .b = at(1, 0),
               .cost_factor = 6.0},
              {.kind = K::heal, .at = 15_s, .a = at(0, 0), .b = at(0, 1)},
              {.kind = K::flash_crowd, .at = 20_s},
              {.kind = K::fail_node, .at = 25_s, .node = at(1, 1)}};
    }
    case TopologyFamily::ring:
      QNETP_ASSERT(size >= 5);
      return {{.kind = K::sever, .at = 5_s, .a = NodeId{1}, .b = NodeId{2}},
              {.kind = K::degrade, .at = 10_s, .a = NodeId{2}, .b = NodeId{3},
               .cost_factor = 6.0},
              {.kind = K::heal, .at = 15_s, .a = NodeId{1}, .b = NodeId{2}},
              {.kind = K::flash_crowd, .at = 20_s},
              {.kind = K::fail_node, .at = 25_s, .node = NodeId{size / 2 + 1}}};
    case TopologyFamily::star:
      // Hub is node 1, leaves 2..size+1.
      QNETP_ASSERT(size >= 4);
      return {{.kind = K::sever, .at = 5_s, .a = NodeId{1}, .b = NodeId{2}},
              {.kind = K::degrade, .at = 10_s, .a = NodeId{1}, .b = NodeId{3},
               .cost_factor = 6.0},
              {.kind = K::heal, .at = 15_s, .a = NodeId{1}, .b = NodeId{2}},
              {.kind = K::flash_crowd, .at = 20_s},
              {.kind = K::fail_node, .at = 25_s, .node = NodeId{size + 1}}};
    case TopologyFamily::hetero_chain:
      // A chain has no redundancy: any sever partitions it, so the
      // timeline cuts one edge link and heals it before the crowd.
      QNETP_ASSERT(size >= 3);
      return {{.kind = K::sever, .at = 5_s, .a = NodeId{1}, .b = NodeId{2}},
              {.kind = K::heal, .at = 12_s, .a = NodeId{1}, .b = NodeId{2}},
              {.kind = K::flash_crowd, .at = 20_s}};
    case TopologyFamily::waxman:
      // The edge set depends on the trial seed; only node-level and
      // load events are safe to script statically.
      return {{.kind = K::flash_crowd, .at = 5_s},
              {.kind = K::fail_node, .at = 10_s, .node = NodeId{size}}};
  }
  return {};
}

ChurnConfig chaos_config() {
  ChurnConfig cfg;
  cfg.faults.drop = 0.02;
  cfg.faults.duplicate = 0.02;
  cfg.faults.reorder = 0.05;
  cfg.faults.corrupt = 0.01;
  cfg.faults.jitter = Duration::ms(1);
  cfg.transport.enabled = true;
  return cfg;
}

namespace {

struct Flow {
  std::unique_ptr<netsim::DualProbe> probe;
  CircuitId circuit;
  EndpointId head_ep, tail_ep;
  NodeId head;
  RequestId request;
};

/// A finished run: the drained fabric and the driver's tallies, for the
/// two trials to export.
struct ChurnRun {
  std::unique_ptr<netsim::Network> net;
  std::deque<Flow> admitted;
  double rejected = 0.0;
  double crowd_admitted = 0.0;
  double crowd_rejected = 0.0;
  double torn_down = 0.0;  ///< flows and crowd circuits gone at the horizon
};

/// Control-plane servicing cadence during traffic.
constexpr Duration kStride = Duration::ms(250);

/// The one driver behind churn_trial and chaos_trial: build the fabric,
/// warm up link-state, establish circuits on slots, submit one KEEP
/// request per flow, walk the event timeline on strides, tear down and
/// drain.
ChurnRun run_churn(const ChurnConfig& cfg, std::uint64_t seed) {
  QNETP_ASSERT(cfg.n_guaranteed <= cfg.n_circuits);

  netsim::NetworkConfig config;
  config.admission.max_circuits_per_link = cfg.max_circuits_per_link;
  config.transport = cfg.transport;
  config.faults = cfg.faults;
  // Every trial gets its own fault pattern; the per-channel streams are
  // forked from this seed inside the channel layer.
  config.faults.seed = derive_stream_seed(seed, 1);

  ChurnRun run;
  BuiltFabric built = build_fabric(cfg.fabric, cfg.n_circuits, config, seed);
  run.net = std::move(built.net);
  const auto& endpoints = built.endpoints;
  netsim::Network& net = *run.net;
  des::ShardedSimulator& ssim = net.sharded_sim();

  // Routers first: admission happens against the routed view, so give
  // the flooding a convergence warm-up before the first circuit.
  net.enable_linkstate();
  ssim.run_until(ssim.now() + cfg.warmup);
  net.service_control_plane();

  const auto requested_eer = [&cfg](std::size_t i) {
    const bool guaranteed =
        cfg.n_guaranteed > 0 &&
        (i % cfg.n_circuits) >= cfg.n_circuits - cfg.n_guaranteed;
    return guaranteed ? cfg.requested_eer : 0.0;
  };
  establish_circuits(net, endpoints, requested_eer, [&](const Circuit& c) {
    auto probe = std::make_unique<netsim::DualProbe>(net, c.head, c.head_ep,
                                                     c.tail, c.tail_ep);
    run.admitted.push_back(Flow{std::move(probe), c.id, c.head_ep, c.tail_ep,
                                c.head, RequestId{c.index + 1}});
  });
  run.rejected = static_cast<double>(endpoints.size() - run.admitted.size());
  net.service_control_plane();

  const TimePoint traffic_start = ssim.now();
  const TimePoint traffic_end = traffic_start + cfg.horizon;
  for (const auto& flow : run.admitted) {
    qnp::AppRequest req = keep_request(flow.request.value(),
                                       cfg.pairs_per_request, flow.head_ep,
                                       flow.tail_ep);
    net.engine(flow.head).submit_request(flow.circuit, req);
  }

  // Drive the fabric on the stride grid, landing every scripted event at
  // its exact absolute time and servicing the control plane after each
  // stride (teardown releases, routed-view refresh, residual UPDATEs,
  // and the dead-peer verdicts a silent partition surfaces through).
  std::vector<ChurnEvent> events = cfg.events;
  std::stable_sort(events.begin(), events.end(),
                   [](const ChurnEvent& x, const ChurnEvent& y) {
                     return x.at < y.at;
                   });
  std::size_t next_event = 0;
  std::size_t crowd_count = 0;
  std::vector<std::pair<CircuitId, NodeId>> crowd_circuits;

  const auto apply_event = [&](const ChurnEvent& e) {
    switch (e.kind) {
      case ChurnEventKind::sever:
        net.sever_link(e.a, e.b);
        break;
      case ChurnEventKind::partition:
        net.partition_link(e.a, e.b);
        break;
      case ChurnEventKind::degrade:
        net.degrade_link(e.a, e.b, e.cost_factor);
        break;
      case ChurnEventKind::heal:
        net.heal_link(e.a, e.b);
        break;
      case ChurnEventKind::fail_node:
        net.fail_node(e.node);
        break;
      case ChurnEventKind::flash_crowd:
        for (std::size_t j = 0; j < e.crowd && !endpoints.empty(); ++j) {
          const auto& ep = endpoints[j % endpoints.size()];
          const EndpointId head_ep{3000 + crowd_count};
          const EndpointId tail_ep{4000 + crowd_count};
          ++crowd_count;
          const auto plan = net.establish_circuit(
              ep.first, ep.second, head_ep, tail_ep, kCircuitFidelity,
              circuit_options(), nullptr, kEstablishSlot);
          if (plan.has_value()) {
            run.crowd_admitted += 1.0;
            crowd_circuits.emplace_back(plan->install.circuit_id, ep.first);
          } else {
            run.crowd_rejected += 1.0;
          }
        }
        break;
    }
  };

  TimePoint reached = traffic_start;
  while (reached < traffic_end) {
    TimePoint next_stride = reached + kStride;
    if (next_stride > traffic_end) next_stride = traffic_end;
    while (next_event < events.size() &&
           traffic_start + events[next_event].at <= next_stride) {
      ssim.run_until(traffic_start + events[next_event].at);
      net.service_control_plane();
      apply_event(events[next_event]);
      ++next_event;
    }
    ssim.run_until(next_stride);
    net.service_control_plane();
    reached = next_stride;
  }

  // Audit the survivors before the cleanup teardown.
  for (const auto& flow : run.admitted) {
    if (!net.engine(flow.head).circuit_rates(flow.circuit).has_value()) {
      run.torn_down += 1.0;
    }
  }
  for (const auto& [circuit, head] : crowd_circuits) {
    if (!net.engine(head).circuit_rates(circuit).has_value()) {
      run.torn_down += 1.0;
    }
  }

  for (const auto& flow : run.admitted) {
    net.teardown_circuit(flow.circuit, "end of trial");
  }
  for (const auto& [circuit, head] : crowd_circuits) {
    net.teardown_circuit(circuit, "end of trial");
  }
  ssim.run_until(traffic_end + cfg.drain);
  net.service_control_plane();
  return run;
}

/// The metrics both trials export.
TrialResult common_metrics(const ChurnRun& run) {
  netsim::Network& net = *run.net;
  TrialResult result;
  double delivered = 0.0;
  double completed = 0.0;
  for (const auto& flow : run.admitted) {
    const double pairs = static_cast<double>(flow.probe->pair_count());
    delivered += pairs;
    result.add_sample("flow_delivered", pairs);
    if (flow.probe->head_completion(flow.request).has_value()) {
      completed += 1.0;
    }
  }

  double consistency_ok = 1.0;
  double updates_applied = 0.0;
  for (const NodeId id : net.node_ids()) {
    if (!net.engine(id).consistency_check().empty()) consistency_ok = 0.0;
    updates_applied +=
        static_cast<double>(net.engine(id).counters().updates_applied);
  }

  result.set("ok", run.admitted.empty() ? 0.0 : 1.0);
  result.set("admitted", static_cast<double>(run.admitted.size()));
  result.set("rejected", run.rejected);
  result.set("torn_down", run.torn_down);
  result.set("delivered", delivered);
  result.set("completed", completed);
  result.set("updates_applied", updates_applied);
  result.set("consistency_ok", consistency_ok);
  result.set("leak_free", net.controller() == nullptr ||
                                  net.controller()->planned_circuits() == 0
                              ? 1.0
                              : 0.0);
  result.set("quiescent", net.quiescent() ? 1.0 : 0.0);
  result.set("events",
             static_cast<double>(net.sharded_sim().events_executed()));
  return result;
}

/// Per-channel conservation with unsigned-safe comparisons:
/// sent + duplicated == delivered + dropped() + in_flight() and no
/// counter ran ahead of the copies actually put on the wire.
bool conserved(const netmsg::ChannelStats& s) {
  if (s.dropped_down + s.dropped_fault > s.sent) return false;
  return s.delivered + s.dropped_no_handler + s.decode_errors <=
         s.transmissions();
}

/// FNV-1a over the reference router's converged view, sorted by link id:
/// the comparable fingerprint behind the partition-vs-sever equivalence
/// gate in bench/chaos_soak.
std::uint64_t view_digest(ctrl::LinkStateRouter& reference) {
  auto links = reference.view_links();
  std::sort(links.begin(), links.end(),
            [](const auto& x, const auto& y) { return x.id < y.id; });
  std::uint64_t h = kFnvOffsetBasis;
  for (const auto& l : links) {
    fnv1a_u64(h, l.id.value());
    fnv1a_u64(h, l.a.value());
    fnv1a_u64(h, l.b.value());
    std::uint64_t cost_bits;
    static_assert(sizeof cost_bits == sizeof l.cost);
    std::memcpy(&cost_bits, &l.cost, sizeof cost_bits);
    fnv1a_u64(h, cost_bits);
  }
  return h;
}

}  // namespace

TrialResult churn_trial(const ChurnConfig& cfg, std::uint64_t seed) {
  const ChurnRun run = run_churn(cfg, seed);
  TrialResult result = common_metrics(run);
  const auto ls = run.net->linkstate_totals();
  result.set("crowd_admitted", run.crowd_admitted);
  result.set("crowd_rejected", run.crowd_rejected);
  result.set("lsas_received", static_cast<double>(ls.lsas_received));
  result.set("lsas_aged_out", static_cast<double>(ls.lsas_aged_out));
  result.set("spf_runs", static_cast<double>(ls.spf_runs));
  return result;
}

TrialResult chaos_trial(const ChurnConfig& cfg, std::uint64_t seed) {
  const ChurnRun run = run_churn(cfg, seed);
  netsim::Network& net = *run.net;
  TrialResult result = common_metrics(run);
  const double admitted = result.scalars.at("admitted");
  result.set("slo", admitted == 0.0
                        ? 0.0
                        : result.scalars.at("completed") / admitted);

  netmsg::ReliableStats transport;
  if (net.transport_enabled()) {
    for (const NodeId id : net.node_ids()) {
      const auto& s = net.transport(id).stats();
      transport.retransmits += s.retransmits;
      transport.delivered += s.delivered;
      transport.duplicates_filtered += s.duplicates_filtered;
      transport.payload_decode_errors += s.payload_decode_errors;
      transport.dead_verdicts += s.dead_verdicts;
    }
  }
  result.set("retransmits", static_cast<double>(transport.retransmits));
  result.set("dead_verdicts", static_cast<double>(transport.dead_verdicts));
  result.set("duplicates_filtered",
             static_cast<double>(transport.duplicates_filtered));
  result.set("transport_delivered",
             static_cast<double>(transport.delivered));
  result.set("payload_decode_errors",
             static_cast<double>(transport.payload_decode_errors));

  const auto stats = net.classical().stats();
  double conservation_ok = conserved(stats.total) ? 1.0 : 0.0;
  for (const auto& [key, s] : stats.channels) {
    if (!conserved(s)) conservation_ok = 0.0;
  }
  result.set("net_sent", static_cast<double>(stats.total.sent));
  result.set("net_duplicated", static_cast<double>(stats.total.duplicated));
  result.set("net_delivered", static_cast<double>(stats.total.delivered));
  result.set("fault_dropped", static_cast<double>(stats.total.dropped_fault));
  result.set("corrupted", static_cast<double>(stats.total.corrupted));
  result.set("reordered", static_cast<double>(stats.total.reordered));
  result.set("net_decode_errors",
             static_cast<double>(stats.total.decode_errors));
  result.set("conservation_ok", conservation_ok);

  const std::uint64_t view = view_digest(net.router(net.node_ids().front()));
  result.set("view_digest_lo", static_cast<double>(view & 0xffffffffull));
  result.set("view_digest_hi", static_cast<double>(view >> 32));
  return result;
}

}  // namespace qnetp::exp
