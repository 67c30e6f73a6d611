#include "exp/shard_scaling.hpp"

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "netsim/network.hpp"
#include "qbase/assert.hpp"

namespace qnetp::exp {

namespace {

/// Cross-bridge keepalive chatter period (both directions per bridge):
/// the cross-shard traffic the mailbox merge has to canonicalize.
constexpr Duration kBridgePingInterval = Duration::ms(25);

/// Per-flow runtime state. Everything in here is touched only by the
/// head shard's event loop (pump + completion handlers) once traffic
/// starts, so flows on different shards never share mutable state.
struct FlowRt {
  CircuitId circuit;
  NodeId head, tail;
  EndpointId head_ep, tail_ep;
  des::Simulator* hsim = nullptr;  ///< the head node's shard loop
  std::unique_ptr<ArrivalProcess> arrivals;
  bool down = false;
  std::uint64_t req_base = 0;
  std::uint64_t next_req = 0;
  std::map<RequestId, TimePoint> pending;
  double offered = 0.0, accepted = 0.0, shaped = 0.0, rejected = 0.0;
  double completed = 0.0;
  std::vector<double> latency_s;  ///< per-flow completion order
};

/// A cross-bridge keepalive pump; lives on the source node's shard.
struct Ping {
  NodeId from, to;
  des::Simulator* sim = nullptr;
};

}  // namespace

TrialResult shard_scaling_trial(const ShardScalingConfig& cfg,
                                std::uint64_t seed) {
  TrialResult result;
  result.set("ok", 0.0);
  QNETP_ASSERT(cfg.pairs_per_request > 0);
  QNETP_ASSERT(cfg.occupancy_samples > 0);
  QNETP_ASSERT(cfg.latency_budget > Duration::zero());
  QNETP_ASSERT(cfg.establish_slot > Duration::zero());
  QNETP_ASSERT_MSG(cfg.shards >= 1 && cfg.shards <= cfg.regions,
                   "shards must fold onto the regions");

  const auto spec =
      region_grid_spec(cfg.regions, cfg.region_rows, cfg.region_cols);
  netsim::NetworkConfig config;
  config.seed = derive_stream_seed(seed, 0);
  config.sharding.shards = cfg.shards;
  auto net = spec.build(config);
  des::ShardedSimulator& ssim = net->sharded_sim();

  // Deliberately no "shards" scalar: every metric in the result is part
  // of the cross-shard-count digest gate.
  result.set("nodes", static_cast<double>(spec.node_count()));
  result.set("regions", static_cast<double>(cfg.regions));

  ctrl::CircuitPlanOptions options;
  if (cfg.short_cutoff) options.cutoff_generation_quantile = 0.85;

  // Establish circuits on a fixed slot grid: one circuit per slot, the
  // slot also bounding the install wait, so every establishment instant
  // is an absolute time independent of the shard count.
  std::deque<FlowRt> flows;  // deque: handlers capture stable addresses
  const auto endpoints =
      region_flow_endpoints(cfg.regions, cfg.region_rows, cfg.region_cols,
                            cfg.circuits_per_region);
  TimePoint slot = ssim.now();
  for (std::size_t candidate = 0; candidate < endpoints.size(); ++candidate) {
    ssim.run_until(slot);
    slot = slot + cfg.establish_slot;
    const auto [head, tail] = endpoints[candidate];
    const EndpointId head_ep{1000 + candidate};
    const EndpointId tail_ep{5000 + candidate};
    const auto plan =
        net->establish_circuit(head, tail, head_ep, tail_ep, cfg.fidelity,
                               options, nullptr, cfg.establish_slot);
    if (!plan.has_value()) continue;

    FlowRt& f = flows.emplace_back();
    f.circuit = plan->install.circuit_id;
    f.head = head;
    f.tail = tail;
    f.head_ep = head_ep;
    f.tail_ep = tail_ep;
    f.hsim = &ssim.shard(net->shard_of(head));
    f.arrivals = std::make_unique<ArrivalProcess>(
        cfg.arrivals, derive_stream_seed(seed, 1000 + candidate));
    f.req_base = (candidate + 1) * 1000000;

    // Head handlers: latency accounting + sink every delivered qubit.
    qnp::QnpEngine& head_engine = net->engine(head);
    qnp::EndpointHandlers hh;
    hh.on_pair = [&net, &f](const qnp::PairDelivery& d) {
      if (d.tracking_pending) return;
      if (d.qubit.valid()) net->engine(f.head).release_app_qubit(d.qubit);
    };
    hh.on_tracking = [&net, &f](const qnp::PairDelivery& d) {
      if (d.qubit.valid()) net->engine(f.head).release_app_qubit(d.qubit);
    };
    hh.on_expire = [&net, &f](CircuitId, RequestId, QubitId qubit) {
      if (qubit.valid()) net->engine(f.head).release_app_qubit(qubit);
    };
    hh.on_complete = [&f](CircuitId, RequestId id) {
      const auto it = f.pending.find(id);
      if (it == f.pending.end()) return;
      f.completed += 1.0;
      f.latency_s.push_back((f.hsim->now() - it->second).as_seconds());
      f.pending.erase(it);
    };
    hh.on_circuit_down = [&f](CircuitId, const std::string&) {
      f.down = true;
    };
    head_engine.register_endpoint(head_ep, std::move(hh));

    qnp::EndpointHandlers th;
    th.on_pair = [&net, &f](const qnp::PairDelivery& d) {
      if (d.qubit.valid() && !d.tracking_pending) {
        net->engine(f.tail).release_app_qubit(d.qubit);
      }
    };
    th.on_tracking = [&net, &f](const qnp::PairDelivery& d) {
      if (d.qubit.valid()) net->engine(f.tail).release_app_qubit(d.qubit);
    };
    th.on_expire = [&net, &f](CircuitId, RequestId, QubitId qubit) {
      if (qubit.valid()) net->engine(f.tail).release_app_qubit(qubit);
    };
    net->engine(tail).register_endpoint(tail_ep, std::move(th));
  }
  result.set("admitted", static_cast<double>(flows.size()));
  if (flows.empty()) return result;

  ssim.run_until(slot);
  const TimePoint traffic_start = slot;
  const TimePoint traffic_end = traffic_start + cfg.horizon;

  // Per-flow open-loop pumps, each a self-rescheduling event on the head
  // node's shard: arrival instants are a pure function of the flow's
  // seed, submissions and completions stay shard-local. The pump closure
  // outlives every scheduled invocation (the whole trial runs inside
  // this scope), so rescheduling captures it by reference — a shared_ptr
  // captured by its own target would cycle and leak.
  std::function<void(FlowRt&)> pump;
  pump = [&cfg, &net, traffic_end, &pump](FlowRt& f) {
    const TimePoint now = f.hsim->now();
    f.offered += 1.0;
    if (!f.down) {
      qnp::AppRequest req;
      req.id = RequestId{f.req_base + f.next_req++};
      req.head_endpoint = f.head_ep;
      req.tail_endpoint = f.tail_ep;
      req.type = netmsg::RequestType::keep;
      req.num_pairs = cfg.pairs_per_request;
      // Budget as keep-window AND deadline: the request books circuit
      // rate and overload is policed (rejected), never queued.
      req.delta_t = cfg.latency_budget;
      req.deadline = cfg.latency_budget;
      qnp::QnpEngine& engine = net->engine(f.head);
      const std::uint64_t shaped_before = engine.counters().requests_shaped;
      const bool ok = engine.submit_request(f.circuit, req);
      if (!ok) {
        f.rejected += 1.0;
      } else if (engine.counters().requests_shaped > shaped_before) {
        f.shaped += 1.0;
      } else {
        f.accepted += 1.0;
      }
      if (ok) f.pending[req.id] = now;
    }
    const TimePoint next = f.arrivals->next_after(now);
    if (next < traffic_end) {
      f.hsim->schedule_at(next, [&f, &pump] { pump(f); });
    }
  };
  for (FlowRt& f : flows) {
    const TimePoint first = f.arrivals->next_after(traffic_start);
    if (first < traffic_end) {
      f.hsim->schedule_at(first, [&f, &pump] { pump(f); });
    }
  }

  // Keepalive chatter in both directions over every inter-region bridge:
  // the cross-shard traffic whose mailbox merge order the digest checks.
  std::deque<Ping> pings;
  std::function<void(Ping&)> ping_fn;
  ping_fn = [&net, traffic_end, &ping_fn](Ping& p) {
    net->classical().send(p.from, p.to, netmsg::KeepaliveMsg{CircuitId{1}});
    const TimePoint next = p.sim->now() + kBridgePingInterval;
    if (next < traffic_end) {
      p.sim->schedule_at(next, [&p, &ping_fn] { ping_fn(p); });
    }
  };
  const std::size_t per_region = cfg.region_rows * cfg.region_cols;
  for (std::size_t r = 0; r + 1 < cfg.regions; ++r) {
    const NodeId left{(r + 1) * per_region};    // last node of region r
    const NodeId right{(r + 1) * per_region + 1};  // first of region r+1
    for (const auto& [from, to] :
         {std::pair{left, right}, std::pair{right, left}}) {
      Ping& p = pings.emplace_back();
      p.from = from;
      p.to = to;
      p.sim = &ssim.shard(net->shard_of(from));
      p.sim->schedule_at(traffic_start + kBridgePingInterval,
                         [&p, &ping_fn] { ping_fn(p); });
    }
  }

  // Drive the horizon in fixed sample strides; between strides all
  // shards are at the barrier, so fabric-wide occupancy reads are safe
  // and taken at identical instants for every shard count.
  const auto node_ids = net->node_ids();
  for (std::size_t s = 1; s <= cfg.occupancy_samples; ++s) {
    const double frac = static_cast<double>(s) /
                        static_cast<double>(cfg.occupancy_samples);
    ssim.run_until(traffic_start + cfg.horizon * frac);
    double live = 0.0;
    for (const NodeId id : node_ids) {
      live += static_cast<double>(net->engine(id).occupancy().live);
    }
    result.add_sample("occ_live", live);
  }

  // Drain: no new arrivals past traffic_end; let in-flight requests
  // complete or expire their keep-windows.
  ssim.run_until(traffic_end + cfg.latency_budget + Duration::seconds(1));

  double consistency_ok = 1.0;
  for (const NodeId id : node_ids) {
    if (!net->engine(id).consistency_check().empty()) consistency_ok = 0.0;
  }

  // Merge in flow order (candidate order), never completion-race order.
  double offered = 0.0, accepted = 0.0, shaped = 0.0, rejected = 0.0;
  double completed = 0.0, latency_sum = 0.0;
  for (const FlowRt& f : flows) {
    offered += f.offered;
    accepted += f.accepted;
    shaped += f.shaped;
    rejected += f.rejected;
    completed += f.completed;
    for (const double l : f.latency_s) {
      latency_sum += l;
      result.add_sample("latency_s", l);
    }
  }
  result.set("offered", offered);
  result.set("accepted", accepted);
  result.set("shaped", shaped);
  result.set("rejected", rejected);
  result.set("completed", completed);
  if (completed > 0.0) result.set("latency_mean_s", latency_sum / completed);
  result.set("classical_msgs",
             static_cast<double>(net->classical().messages_delivered()));
  result.set("consistency_ok", consistency_ok);
  result.set("events", static_cast<double>(ssim.events_executed()));
  result.set("ok", 1.0);
  return result;
}

}  // namespace qnetp::exp
