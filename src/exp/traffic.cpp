#include "exp/traffic.hpp"

#include <cmath>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "netsim/network.hpp"
#include "qbase/assert.hpp"
#include "qbase/stats.hpp"

namespace qnetp::exp {

const char* to_string(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::poisson: return "poisson";
    case ArrivalKind::mmpp: return "mmpp";
    case ArrivalKind::diurnal: return "diurnal";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// ArrivalProcess
// ---------------------------------------------------------------------------

ArrivalProcess::ArrivalProcess(const ArrivalConfig& cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed) {
  switch (cfg_.kind) {
    case ArrivalKind::poisson:
      QNETP_ASSERT_MSG(cfg_.rate > 0.0, "poisson rate must be positive");
      break;
    case ArrivalKind::mmpp:
      QNETP_ASSERT_MSG(cfg_.burst_rate > 0.0, "burst rate must be positive");
      QNETP_ASSERT(cfg_.idle_rate >= 0.0);
      QNETP_ASSERT(cfg_.burst_dwell > Duration::zero());
      QNETP_ASSERT(cfg_.idle_dwell > Duration::zero());
      break;
    case ArrivalKind::diurnal:
      QNETP_ASSERT_MSG(cfg_.peak_rate > 0.0, "peak rate must be positive");
      QNETP_ASSERT(cfg_.trough_rate >= 0.0);
      QNETP_ASSERT(cfg_.trough_rate <= cfg_.peak_rate);
      QNETP_ASSERT(cfg_.period > Duration::zero());
      break;
  }
}

double ArrivalProcess::rate_at(TimePoint t) const {
  switch (cfg_.kind) {
    case ArrivalKind::poisson:
      return cfg_.rate;
    case ArrivalKind::mmpp:
      return phase_burst_ ? cfg_.burst_rate : cfg_.idle_rate;
    case ArrivalKind::diurnal: {
      const double x =
          (t - TimePoint::origin()).as_seconds() / cfg_.period.as_seconds();
      const double swing = cfg_.peak_rate - cfg_.trough_rate;
      constexpr double kTwoPi = 6.283185307179586476925286766559;
      return cfg_.trough_rate + swing * 0.5 * (1.0 - std::cos(kTwoPi * x));
    }
  }
  return 0.0;
}

TimePoint ArrivalProcess::next_after(TimePoint now) {
  switch (cfg_.kind) {
    case ArrivalKind::poisson: return next_poisson(now);
    case ArrivalKind::mmpp: return next_mmpp(now);
    case ArrivalKind::diurnal: return next_diurnal(now);
  }
  QNETP_ASSERT_MSG(false, "unknown arrival kind");
  return now;
}

TimePoint ArrivalProcess::next_poisson(TimePoint now) {
  return now + rng_.exponential_duration(Duration::seconds(1.0 / cfg_.rate));
}

TimePoint ArrivalProcess::next_mmpp(TimePoint now) {
  if (!phase_init_) {
    // Anchor the phase clock at the first query; start idle so ramp-up
    // is part of the observed process.
    phase_init_ = true;
    phase_burst_ = false;
    const Duration dwell = rng_.exponential_duration(cfg_.idle_dwell);
    phase_end_ = now + dwell;
    debug_.idle_time += dwell;
    ++debug_.idles;
  }
  TimePoint t = now;
  for (;;) {
    const double rate = phase_burst_ ? cfg_.burst_rate : cfg_.idle_rate;
    if (rate > 0.0) {
      const TimePoint candidate =
          t + rng_.exponential_duration(Duration::seconds(1.0 / rate));
      if (candidate <= phase_end_) return candidate;
    }
    // No arrival inside this phase: jump to the boundary and draw the
    // next dwell. Restarting the interarrival draw is exact for an
    // exponential (memorylessness), so the process stays a true MMPP.
    t = phase_end_;
    phase_burst_ = !phase_burst_;
    const Duration dwell = rng_.exponential_duration(
        phase_burst_ ? cfg_.burst_dwell : cfg_.idle_dwell);
    phase_end_ = t + dwell;
    if (phase_burst_) {
      debug_.burst_time += dwell;
      ++debug_.bursts;
    } else {
      debug_.idle_time += dwell;
      ++debug_.idles;
    }
  }
}

TimePoint ArrivalProcess::next_diurnal(TimePoint now) {
  // Thinning (Lewis & Shedler): draw from a Poisson at the peak rate
  // and accept each candidate with probability rate(t)/peak.
  const double lambda_max = cfg_.peak_rate;
  TimePoint t = now;
  for (;;) {
    t = t + rng_.exponential_duration(Duration::seconds(1.0 / lambda_max));
    if (rng_.uniform() * lambda_max <= rate_at(t)) return t;
  }
}

// ---------------------------------------------------------------------------
// traffic_trial
// ---------------------------------------------------------------------------

namespace {

/// Fabric-wide occupancy samples, at fixed strides of the horizon.
constexpr std::size_t kOccupancySamples = 16;
/// Per-trial cap on exported latency samples ("latency_res_s").
constexpr std::size_t kLatencyReservoir = 512;
/// Cross-bridge keepalive period (both directions per bridge): the
/// cross-shard traffic whose mailbox merge order the digest checks.
constexpr Duration kBridgePingInterval = Duration::ms(25);

/// Per-request bookkeeping at the head end, erased on completion so the
/// live map tracks only in-flight requests.
struct PendingRequest {
  TimePoint submitted;
  /// Carries the latency SLO and its budget expires within the horizon.
  bool eligible = false;
};

/// One circuit's open-loop stream and tallies. Once traffic starts, only
/// the head node's event loop touches it (its pump and its completion
/// handlers), so circuits on different shards never share mutable state.
struct Flow {
  Circuit circuit;
  des::Simulator* sim = nullptr;  ///< the head node's loop
  ArrivalProcess arrivals;
  Rng classify;  ///< best-effort or SLO, per arrival
  bool down = false;
  /// Starts at (index + 1) * 10^6, so request ids differ across circuits.
  std::uint64_t next_request = 0;
  std::map<RequestId, PendingRequest> pending{};
  double offered = 0.0, accepted = 0.0, shaped = 0.0, rejected = 0.0;
  double slo_eligible = 0.0, slo_met = 0.0;
  std::vector<double> latency_s{};  ///< completion order
};

/// A keepalive pump over one bridge direction, on the source node's loop.
struct Ping {
  NodeId from, to;
  des::Simulator* sim = nullptr;
};

/// Endpoint handlers that release every delivered qubit at `node`: the
/// application is a sink.
qnp::EndpointHandlers sink(netsim::Network& net, NodeId node) {
  qnp::QnpEngine* engine = &net.engine(node);
  qnp::EndpointHandlers h;
  h.on_pair = [engine](const qnp::PairDelivery& d) {
    // EARLY deliveries wait for tracking.
    if (d.qubit.valid() && !d.tracking_pending) {
      engine->release_app_qubit(d.qubit);
    }
  };
  h.on_tracking = [engine](const qnp::PairDelivery& d) {
    if (d.qubit.valid()) engine->release_app_qubit(d.qubit);
  };
  h.on_expire = [engine](CircuitId, RequestId, QubitId qubit) {
    if (qubit.valid()) engine->release_app_qubit(qubit);
  };
  return h;
}

}  // namespace

TrialResult traffic_trial(const TrafficConfig& cfg, std::uint64_t seed) {
  TrialResult result;
  result.set("ok", 0.0);
  QNETP_ASSERT(cfg.pairs_per_request > 0);
  QNETP_ASSERT(cfg.latency_budget > Duration::zero());
  QNETP_ASSERT(cfg.best_effort_fraction >= 0.0 &&
               cfg.best_effort_fraction <= 1.0);

  // Independent seeded streams: world construction, each circuit's
  // arrival times and request classification never perturb each other,
  // so e.g. changing the best-effort fraction does not reshuffle arrival
  // instants.
  const BuiltFabric built = build_fabric(cfg.fabric, cfg.n_circuits, {}, seed);
  netsim::Network& net = *built.net;
  des::ShardedSimulator& ssim = net.sharded_sim();

  std::deque<Flow> flows;  // deque: handlers capture stable addresses
  const TimePoint start = establish_circuits(
      net, built.endpoints, [](std::size_t) { return 0.0; },
      [&](const Circuit& c) {
        Flow& f = flows.emplace_back(Flow{
            .circuit = c,
            .sim = &net.node_sim(c.head),
            .arrivals = ArrivalProcess(
                cfg.arrivals, derive_stream_seed(seed, 1000 + c.index)),
            .classify = Rng(derive_stream_seed(seed, 2000 + c.index)),
            .next_request = (c.index + 1) * 1000000});
        qnp::EndpointHandlers head = sink(net, c.head);
        head.on_complete = [&f, &cfg](CircuitId, RequestId id) {
          const auto it = f.pending.find(id);
          if (it == f.pending.end()) return;
          const Duration latency = f.sim->now() - it->second.submitted;
          f.latency_s.push_back(latency.as_seconds());
          if (it->second.eligible && latency <= cfg.latency_budget) {
            f.slo_met += 1.0;
          }
          f.pending.erase(it);
        };
        head.on_circuit_down = [&f](CircuitId, const std::string&) {
          f.down = true;
        };
        net.engine(c.head).register_endpoint(c.head_ep, std::move(head));
        net.engine(c.tail).register_endpoint(c.tail_ep, sink(net, c.tail));
      });
  result.set("admitted", static_cast<double>(flows.size()));
  if (flows.empty()) return result;
  const TimePoint end = start + cfg.horizon;

  // The open-loop pumps: one self-rescheduling event per circuit on its
  // head's loop submits an AppRequest per arrival, independent of
  // completions. The pump outlives every scheduled invocation (the trial
  // runs inside this scope), so rescheduling captures it by reference.
  std::function<void(Flow&)> pump = [&](Flow& f) {
    const TimePoint at = f.sim->now();
    f.offered += 1.0;
    const bool best_effort = f.classify.bernoulli(cfg.best_effort_fraction);
    qnp::AppRequest req =
        keep_request(f.next_request++, cfg.pairs_per_request,
                     f.circuit.head_ep, f.circuit.tail_ep);
    // The SLO budget doubles as the keep-window (so min_eer() > 0 and
    // the request books circuit rate). SLO requests also carry it as the
    // deadline, which makes overload REJECT them (policing); best-effort
    // requests omit the deadline, so overload queues them in the shaping
    // deque instead.
    req.delta_t = cfg.latency_budget;
    if (!best_effort) req.deadline = cfg.latency_budget;

    qnp::QnpEngine& engine = net.engine(f.circuit.head);
    const std::uint64_t shaped_before = engine.counters().requests_shaped;
    if (f.down || !engine.submit_request(f.circuit.id, req)) {
      f.rejected += 1.0;
    } else {
      if (engine.counters().requests_shaped > shaped_before) {
        f.shaped += 1.0;
      } else {
        f.accepted += 1.0;
      }
      const bool eligible = !best_effort && at + cfg.latency_budget <= end;
      f.pending[req.id] = PendingRequest{at, eligible};
      if (eligible) f.slo_eligible += 1.0;
    }

    const TimePoint next = f.arrivals.next_after(at);
    if (next < end) f.sim->schedule_at(next, [&f, &pump] { pump(f); });
  };
  for (Flow& f : flows) {
    const TimePoint first = f.arrivals.next_after(start);
    if (first < end) f.sim->schedule_at(first, [&f, &pump] { pump(f); });
  }

  // Keepalive chatter both ways over every inter-region bridge (a single
  // region has none): the cross-shard traffic of the sharded kernel.
  std::deque<Ping> pings;
  std::function<void(Ping&)> ping = [&](Ping& p) {
    net.classical().send(p.from, p.to, netmsg::KeepaliveMsg{CircuitId{1}});
    const TimePoint next = p.sim->now() + kBridgePingInterval;
    if (next < end) p.sim->schedule_at(next, [&p, &ping] { ping(p); });
  };
  for (const auto& link : net.topology().links()) {
    if (net.region_of(link.a) == net.region_of(link.b)) continue;
    for (const auto& [from, to] :
         {std::pair{link.a, link.b}, std::pair{link.b, link.a}}) {
      Ping& p = pings.emplace_back(Ping{from, to, &net.node_sim(from)});
      p.sim->schedule_at(start + kBridgePingInterval, [&p, &ping] { ping(p); });
    }
  }

  // Drive the horizon in fixed strides. Between strides every shard is at
  // the barrier, so the fabric-wide occupancy reads are safe and taken at
  // the same instants at every shard count.
  const auto node_ids = net.node_ids();
  std::vector<double> occupancy;  // post-warmup samples
  for (std::size_t s = 1; s <= kOccupancySamples; ++s) {
    const Duration offset =
        cfg.horizon * (static_cast<double>(s) / kOccupancySamples);
    ssim.run_until(start + offset);
    if (offset < cfg.warmup) continue;
    double live = 0.0;
    for (const NodeId id : node_ids) {
      live += static_cast<double>(net.engine(id).occupancy().live);
    }
    occupancy.push_back(live);
  }
  // Drain: no arrivals past the horizon; in-flight requests complete or
  // expire their keep-windows.
  ssim.run_until(end + cfg.latency_budget + Duration::seconds(1));
  result.set("events", static_cast<double>(ssim.events_executed()));

  // Engine-internal invariants: every engine must account for all of its
  // requests and records (bench asserts consistency_ok == 1).
  double consistency_ok = 1.0;
  double expired_wholesale = 0.0;
  for (const NodeId id : node_ids) {
    if (!net.engine(id).consistency_check().empty()) consistency_ok = 0.0;
    expired_wholesale +=
        static_cast<double>(net.engine(id).occupancy().expired_wholesale);
  }

  // Post-warmup occupancy trend. occ_steady is the median sample and
  // occ_peak the largest; "flat" compares the mean level of the late
  // half of the horizon against the early half (plus a small absolute
  // allowance for near-empty fabrics), so bursty arrival processes —
  // where single samples legitimately swing — still pass, while
  // monotonic record growth (a GC leak) fails.
  double occ_steady = 0.0, occ_peak = 0.0, occ_early = 0.0, occ_late = 0.0;
  bool occ_flat = true;
  if (!occupancy.empty()) {
    SampleSet occ;
    for (const double v : occupancy) occ.add(v);
    occ_steady = occ.median();
    occ_peak = occ.max();
  }
  if (occupancy.size() >= 2) {
    const std::size_t half = occupancy.size() / 2;
    for (std::size_t i = 0; i < occupancy.size(); ++i) {
      (i < half ? occ_early : occ_late) += occupancy[i];
    }
    occ_early /= static_cast<double>(half);
    occ_late /= static_cast<double>(occupancy.size() - half);
    occ_flat = occ_late <= 2.0 * occ_early + 16.0;
  }

  // Merge in circuit order, never in completion-race order.
  double offered = 0.0, accepted = 0.0, shaped = 0.0, rejected = 0.0;
  double slo_met = 0.0, slo_eligible = 0.0;
  SampleSet latency_s;
  ReservoirSampler latency_res(kLatencyReservoir, derive_stream_seed(seed, 3));
  for (const Flow& f : flows) {
    offered += f.offered;
    accepted += f.accepted;
    shaped += f.shaped;
    rejected += f.rejected;
    slo_met += f.slo_met;
    slo_eligible += f.slo_eligible;
    for (const double l : f.latency_s) {
      latency_s.add(l);
      latency_res.add(l);
    }
  }

  result.set("ok", 1.0);
  result.set("offered", offered);
  result.set("accepted", accepted);
  result.set("shaped", shaped);
  result.set("rejected", rejected);
  result.set("completed", static_cast<double>(latency_s.count()));
  result.set("slo_met", slo_met);
  result.set("slo_eligible", slo_eligible);
  result.set("slo_attainment",
             slo_eligible > 0.0 ? slo_met / slo_eligible : 0.0);
  if (!latency_s.empty()) {
    result.set("latency_p50_s", latency_s.quantile(0.50));
    result.set("latency_p99_s", latency_s.quantile(0.99));
    result.set("latency_p999_s", latency_s.quantile(0.999));
  }
  result.set("occ_steady", occ_steady);
  result.set("occ_peak", occ_peak);
  result.set("occ_early", occ_early);
  result.set("occ_late", occ_late);
  result.set("occ_expired_wholesale", expired_wholesale);
  result.set("occ_flat", occ_flat ? 1.0 : 0.0);
  result.set("consistency_ok", consistency_ok);
  for (const double v : occupancy) result.add_sample("occ_live", v);
  for (const double v : latency_res.sorted_reservoir()) {
    result.add_sample("latency_res_s", v);
  }
  return result;
}

}  // namespace qnetp::exp
