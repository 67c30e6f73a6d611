#include "exp/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
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

/// Fixed occupancy windows over the horizon.
constexpr std::size_t kOccupancyWindows = 16;
/// Per-trial cap on exported latency samples ("latency_res_s").
constexpr std::size_t kLatencyReservoir = 512;

/// Per-request bookkeeping at the head end, erased on completion so the
/// live map tracks only in-flight requests.
struct PendingRequest {
  TimePoint submitted;
  bool slo = false;       ///< carries the latency/fidelity SLO
  bool eligible = false;  ///< budget expires within the horizon
  double fidelity_sum = 0.0;
  std::uint64_t fidelity_n = 0;
};

struct OccupancyWindow {
  double max = 0.0;
  double sum = 0.0;
  std::uint64_t n = 0;
};

double median_of(std::vector<double> xs) {
  QNETP_ASSERT(!xs.empty());
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

}  // namespace

TrialResult traffic_trial(const TrafficConfig& cfg, std::uint64_t seed) {
  TrialResult result;
  result.set("ok", 0.0);
  QNETP_ASSERT(cfg.pairs_per_request > 0);
  QNETP_ASSERT(cfg.slo.latency_budget > Duration::zero());
  QNETP_ASSERT(cfg.best_effort_fraction >= 0.0 &&
               cfg.best_effort_fraction <= 1.0);

  // Independent seeded streams: world construction, arrival times, and
  // request classification never perturb each other, so e.g. changing
  // the best-effort fraction does not reshuffle arrival instants.
  netsim::NetworkConfig config;
  config.seed = derive_stream_seed(seed, 0);
  auto net = family_topology_spec(cfg.family, cfg.size, seed).build(config);
  ArrivalProcess arrivals(cfg.arrivals, derive_stream_seed(seed, 1));
  Rng classify_rng(derive_stream_seed(seed, 2));
  ReservoirSampler latency_res(kLatencyReservoir, derive_stream_seed(seed, 3));

  ctrl::CircuitPlanOptions options;
  if (cfg.short_cutoff) options.cutoff_generation_quantile = 0.85;

  // Establish the concurrent circuits the stream round-robins over.
  struct Flow {
    CircuitId circuit;
    NodeId head, tail;
    EndpointId head_ep, tail_ep;
    bool down = false;
  };
  std::vector<Flow> flows;
  std::map<RequestId, PendingRequest> pending;
  SampleSet latency_s;
  double offered = 0.0, accepted = 0.0, shaped = 0.0, rejected = 0.0;
  double completed = 0.0, slo_met = 0.0, slo_eligible = 0.0;

  const auto endpoints =
      family_flow_endpoints(cfg.family, cfg.size, cfg.n_circuits);
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    const EndpointId head_ep{10 + i};
    const EndpointId tail_ep{200 + i};
    const auto plan = net->establish_circuit(
        endpoints[i].first, endpoints[i].second, head_ep, tail_ep,
        cfg.fidelity, options);
    if (!plan.has_value()) continue;
    const std::size_t flow_idx = flows.size();
    flows.push_back(Flow{plan->install.circuit_id, endpoints[i].first,
                         endpoints[i].second, head_ep, tail_ep});

    // Head-end handlers: per-request latency/fidelity accounting. Pairs
    // are consumed (released) immediately — the application is a sink.
    qnp::QnpEngine& head_engine = net->engine(endpoints[i].first);
    qnp::EndpointHandlers head;
    head.on_pair = [&, flow_idx](const qnp::PairDelivery& d) {
      if (d.tracking_pending) return;  // EARLY: wait for tracking
      const auto it = pending.find(d.request);
      if (it != pending.end() && d.pair != nullptr) {
        it->second.fidelity_sum +=
            d.pair->oracle_fidelity(d.state, net->sim().now());
        ++it->second.fidelity_n;
      }
      if (d.qubit.valid()) {
        net->engine(flows[flow_idx].head).release_app_qubit(d.qubit);
      }
    };
    head.on_tracking = [&, flow_idx](const qnp::PairDelivery& d) {
      const auto it = pending.find(d.request);
      if (it != pending.end() && d.pair != nullptr) {
        it->second.fidelity_sum +=
            d.pair->oracle_fidelity(d.state, net->sim().now());
        ++it->second.fidelity_n;
      }
      if (d.qubit.valid()) {
        net->engine(flows[flow_idx].head).release_app_qubit(d.qubit);
      }
    };
    head.on_expire = [&, flow_idx](CircuitId, RequestId, QubitId qubit) {
      if (qubit.valid()) {
        net->engine(flows[flow_idx].head).release_app_qubit(qubit);
      }
    };
    head.on_complete = [&](CircuitId, RequestId id) {
      const auto it = pending.find(id);
      if (it == pending.end()) return;
      const double lat =
          (net->sim().now() - it->second.submitted).as_seconds();
      completed += 1.0;
      latency_s.add(lat);
      latency_res.add(lat);
      if (it->second.slo && it->second.eligible) {
        const bool in_budget =
            lat <= cfg.slo.latency_budget.as_seconds();
        const bool fidelity_ok =
            cfg.slo.fidelity_floor <= 0.0 ||
            (it->second.fidelity_n > 0 &&
             it->second.fidelity_sum /
                     static_cast<double>(it->second.fidelity_n) >=
                 cfg.slo.fidelity_floor);
        if (in_budget && fidelity_ok) slo_met += 1.0;
      }
      pending.erase(it);
    };
    head.on_circuit_down = [&, flow_idx](CircuitId, const std::string&) {
      flows[flow_idx].down = true;
    };
    head_engine.register_endpoint(head_ep, std::move(head));

    // Tail-end handlers: pure sink, release every delivered qubit.
    qnp::EndpointHandlers tail;
    tail.on_pair = [&, flow_idx](const qnp::PairDelivery& d) {
      if (d.qubit.valid() && !d.tracking_pending) {
        net->engine(flows[flow_idx].tail).release_app_qubit(d.qubit);
      }
    };
    tail.on_tracking = [&, flow_idx](const qnp::PairDelivery& d) {
      if (d.qubit.valid()) {
        net->engine(flows[flow_idx].tail).release_app_qubit(d.qubit);
      }
    };
    tail.on_expire = [&, flow_idx](CircuitId, RequestId, QubitId qubit) {
      if (qubit.valid()) {
        net->engine(flows[flow_idx].tail).release_app_qubit(qubit);
      }
    };
    net->engine(endpoints[i].second)
        .register_endpoint(tail_ep, std::move(tail));
  }
  result.set("admitted", static_cast<double>(flows.size()));
  if (flows.empty()) return result;

  const TimePoint start = net->sim().now();
  const TimePoint end = start + cfg.horizon;
  const auto node_ids = net->node_ids();

  // Fabric-wide flow-table occupancy, sampled at arrival instants and
  // bucketed into fixed windows over the horizon.
  std::vector<OccupancyWindow> windows(kOccupancyWindows);
  const auto sample_occupancy = [&](TimePoint t) {
    double live = 0.0;
    for (const NodeId id : node_ids) {
      live += static_cast<double>(net->engine(id).occupancy().live);
    }
    const double frac = (t - start).as_seconds() / cfg.horizon.as_seconds();
    auto idx = static_cast<std::size_t>(
        frac * static_cast<double>(kOccupancyWindows));
    idx = std::min(idx, kOccupancyWindows - 1);
    windows[idx].max = std::max(windows[idx].max, live);
    windows[idx].sum += live;
    ++windows[idx].n;
  };

  // The open-loop pump: submit an AppRequest per arrival, independent of
  // completions. Requests cycle over admitted circuits.
  std::uint64_t next_id = 1;
  std::size_t next_flow = 0;
  std::function<void(TimePoint)> pump = [&](TimePoint at) {
    sample_occupancy(at);
    offered += 1.0;
    const bool best_effort = classify_rng.bernoulli(cfg.best_effort_fraction);

    // Round-robin over circuits that are still up.
    std::size_t probes = 0;
    while (flows[next_flow].down && probes < flows.size()) {
      next_flow = (next_flow + 1) % flows.size();
      ++probes;
    }
    const Flow& flow = flows[next_flow];
    next_flow = (next_flow + 1) % flows.size();
    if (!flow.down) {
      qnp::AppRequest req;
      req.id = RequestId{next_id++};
      req.head_endpoint = flow.head_ep;
      req.tail_endpoint = flow.tail_ep;
      req.type = netmsg::RequestType::keep;
      req.num_pairs = cfg.pairs_per_request;
      // The SLO budget doubles as the keep-window (so min_eer() > 0 and
      // the request books circuit rate). SLO requests also carry it as
      // the deadline, which makes overload REJECT them (policing);
      // best-effort requests omit the deadline, so overload queues them
      // in the shaping deque instead.
      req.delta_t = cfg.slo.latency_budget;
      if (!best_effort) req.deadline = cfg.slo.latency_budget;

      qnp::QnpEngine& engine = net->engine(flow.head);
      const std::uint64_t shaped_before = engine.counters().requests_shaped;
      const bool ok = engine.submit_request(flow.circuit, req);
      if (!ok) {
        rejected += 1.0;
      } else if (engine.counters().requests_shaped > shaped_before) {
        shaped += 1.0;
      } else {
        accepted += 1.0;
      }
      if (ok) {
        PendingRequest p;
        p.submitted = at;
        p.slo = !best_effort;
        p.eligible = !best_effort && at + cfg.slo.latency_budget <= end;
        if (p.eligible) slo_eligible += 1.0;
        pending[req.id] = p;
      }
    }

    const TimePoint next = arrivals.next_after(at);
    if (next < end) {
      net->sim().schedule(next - net->sim().now(),
                          [&pump, next] { pump(next); });
    }
  };
  const TimePoint first = arrivals.next_after(start);
  if (first < end) {
    net->sim().schedule(first - start, [&pump, first] { pump(first); });
  }

  net->sim().run_until(end);
  result.set("events", static_cast<double>(net->sim().events_executed()));

  // Engine-internal invariants: every engine must account for all of its
  // requests and records (bench asserts consistency_ok == 1).
  double consistency_ok = 1.0;
  double expired_wholesale = 0.0;
  for (const NodeId id : node_ids) {
    if (!net->engine(id).consistency_check().empty()) consistency_ok = 0.0;
    expired_wholesale +=
        static_cast<double>(net->engine(id).occupancy().expired_wholesale);
  }
  net->sim().stop();

  // Post-warmup occupancy trend. occ_steady is the median window mean
  // and occ_peak the largest single sample; "flat" compares the mean
  // level of the late half of the horizon against the early half (plus
  // a small absolute allowance for near-empty fabrics), so bursty
  // arrival processes — where individual windows legitimately swing —
  // still pass, while monotonic record growth (a GC leak) fails.
  std::vector<double> window_means;
  double occ_peak = 0.0;
  const double warmup_frac =
      cfg.warmup.as_seconds() / cfg.horizon.as_seconds();
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const double w_start = static_cast<double>(w) /
                           static_cast<double>(kOccupancyWindows);
    if (w_start < warmup_frac || windows[w].n == 0) continue;
    window_means.push_back(windows[w].sum /
                           static_cast<double>(windows[w].n));
    occ_peak = std::max(occ_peak, windows[w].max);
  }
  const double occ_steady =
      window_means.empty() ? 0.0 : median_of(window_means);
  double occ_early = 0.0, occ_late = 0.0;
  bool occ_flat = true;
  if (window_means.size() >= 2) {
    const std::size_t half = window_means.size() / 2;
    for (std::size_t w = 0; w < window_means.size(); ++w) {
      (w < half ? occ_early : occ_late) += window_means[w];
    }
    occ_early /= static_cast<double>(half);
    occ_late /= static_cast<double>(window_means.size() - half);
    occ_flat = occ_late <= 2.0 * occ_early + 16.0;
  }

  result.set("ok", 1.0);
  result.set("offered", offered);
  result.set("accepted", accepted);
  result.set("shaped", shaped);
  result.set("rejected", rejected);
  result.set("completed", completed);
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
  for (double v : window_means) result.add_sample("occ_win_mean", v);
  for (double v : latency_res.sorted_reservoir()) {
    result.add_sample("latency_res_s", v);
  }
  return result;
}

}  // namespace qnetp::exp
