// qnetp_bench: the repo benchmark program (see benchmark/README.md).
//
// Runs one workload as repetitions ("reps") of identical work generated
// from --seed, checks the program's outputs, and prints every end-to-end
// metric with its unit. With --trace 1 it adds one rep with host-time
// spans recorded around its own calls into each layer and prints
// the per-layer table. The last line of stdout is one JSON object with the
// keys correct, attempted, failed and metrics.
//
// It uses only the library's public API: TopologySpec::build,
// Network::{establish_circuit, service_control_plane, sharded_sim,
// node_sim}, QnpEngine::{register_endpoint, submit_request,
// release_app_qubit} and the stats accessors. It never calls exp::,
// netsim::DualProbe or Network::sim(), so scenario and clock-API
// refactors inside the library land without touching the benchmark.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "netsim/network.hpp"
#include "netsim/topology_spec.hpp"
#include "qbase/rng.hpp"
#include "qhw/fiber.hpp"
#include "qhw/params.hpp"

namespace {

using namespace qnetp;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

double host_s() { return static_cast<double>(host_ns()) * 1e-9; }

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded around the benchmark's calls into each layer.
// ---------------------------------------------------------------------------

/// A closed span. self_ns is the duration minus the child spans closed
/// inside it on the same thread.
struct SpanRecord {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t self_ns;
  std::uint64_t id;
  std::uint64_t parent;  ///< 0 = no enclosing span on this thread
  std::uint64_t request;
  std::uint32_t thread;
};

/// One per thread that ever records a span: the pumps and handlers run on
/// the shard worker threads, so spans never cross a lock on the hot path.
struct ThreadBuffer {
  struct Open {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  std::uint32_t thread = 0;
  std::uint64_t next_seq = 1;
  std::vector<Open> stack;
  std::vector<SpanRecord> done;
};

std::atomic<bool> g_tracing{false};
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by mu
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& thread_buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    auto& buf = g_buffers.emplace_back(std::make_unique<ThreadBuffer>());
    buf->thread = static_cast<std::uint32_t>(g_buffers.size() - 1);
    t_buffer = buf.get();
  }
  return *t_buffer;
}

/// RAII span; a no-op unless tracing is on.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0) {
    if (!g_tracing.load(std::memory_order_relaxed)) return;
    buf_ = &thread_buffer();
    const std::uint64_t parent =
        buf_->stack.empty() ? 0 : buf_->stack.back().id;
    const std::uint64_t id =
        (static_cast<std::uint64_t>(buf_->thread) << 40) | buf_->next_seq++;
    buf_->stack.push_back({name, id, parent, request, host_ns(), 0});
  }
  ~Span() {
    if (buf_ == nullptr) return;
    const ThreadBuffer::Open open = buf_->stack.back();
    buf_->stack.pop_back();
    const std::int64_t end = host_ns();
    const std::int64_t duration = end - open.start_ns;
    if (!buf_->stack.empty()) buf_->stack.back().child_ns += duration;
    buf_->done.push_back({open.name, open.start_ns, end,
                          duration - open.child_ns, open.id, open.parent,
                          open.request, buf_->thread});
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadBuffer* buf_ = nullptr;
};

/// Moves every recorded span out of the per-thread buffers. Call only
/// while no other thread records (between reps).
std::vector<SpanRecord> take_spans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<SpanRecord> all;
  for (auto& buf : g_buffers) {
    all.insert(all.end(), buf->done.begin(), buf->done.end());
    buf->done.clear();
  }
  return all;
}

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint8_t>(v >> (8 * i));
    h *= 1099511628211ull;
  }
}

void mix_double(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  mix(h, bits);
}

/// Linear-interpolated quantile of an ascending sample (0 when empty).
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return quantile(xs, 0.5);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// Full-precision JSON number (non-finite values never reach here).
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

enum class Arrival { none, periodic, poisson };

struct FlowSpec {
  NodeId head, tail;
  Arrival arrival = Arrival::none;
  double rate = 0.0;                 ///< poisson: requests per sim-second
  Duration interval = Duration::zero();  ///< periodic
  std::uint64_t background_pairs = 0;  ///< one long request at traffic start
};

/// One workload: open-loop in simulated time. Each request is submitted
/// at its due instant by an event on the head node's shard, so the
/// generator is never late and latency is COMPLETE time minus due time.
struct WorkloadSpec {
  std::string name;
  netsim::TopologySpec topology;
  netsim::NetworkConfig config;  ///< seed filled per rep
  std::size_t shards = 1;
  bool linkstate = false;
  Duration warmup;          ///< link-state convergence before establishing
  Duration establish_slot;  ///< zero: establish back to back
  double fidelity = 0.0;
  ctrl::CircuitPlanOptions options;
  std::vector<FlowSpec> flows;
  std::uint64_t pairs_per_request = 0;
  Duration budget;  ///< deadline and keep-window; zero = neither
  Duration latency_limit;
  Duration horizon;  ///< measured phase, simulated
  Duration stride;   ///< control-loop period of the measured phase
  std::vector<std::pair<NodeId, NodeId>> keepalives;
  Duration keepalive_interval;
  std::optional<std::pair<NodeId, NodeId>> churn_link;
  Duration churn_half_period;  ///< sever, then heal, each this long
};

/// `scale` divides the measured horizon (smoke mode).
std::optional<WorkloadSpec> make_workload(const std::string& name,
                                          double scale) {
  const auto hw = qhw::simulation_preset();
  const auto lab = qhw::FiberParams::lab(2.0);
  WorkloadSpec w;
  w.name = name;
  w.options.cutoff_generation_quantile = 0.85;  // the paper's short cutoff
  if (name == "dumbbell_fig9") {
    // Fig. 9: 3-pair KEEP requests A0->B0 every 150 ms while A1->B1
    // carries one long background request. Per-pair work dominates.
    w.topology = netsim::TopologySpec::dumbbell(hw, lab);
    const netsim::DumbbellIds ids;
    w.fidelity = 0.85;
    w.flows = {{.head = ids.a0, .tail = ids.b0, .arrival = Arrival::periodic,
                .interval = Duration::ms(150)},
               {.head = ids.a1, .tail = ids.b1, .background_pairs = 1000000}};
    w.pairs_per_request = 3;
    w.latency_limit = Duration::ms(500);
    w.horizon = Duration::seconds(1200);
    w.stride = Duration::seconds(1);
  } else if (name == "grid_overload") {
    // Overload of a 3x3 grid: admission policing, the FlowTable and the
    // request path dominate.
    w.topology = netsim::TopologySpec::grid(3, 3, hw, lab);
    w.fidelity = 0.72;
    for (const auto& [head, tail] :
         {std::pair{NodeId{1}, NodeId{9}}, std::pair{NodeId{3}, NodeId{7}}}) {
      // 40 req/s offered in total.
      w.flows.push_back({.head = head,
                         .tail = tail,
                         .arrival = Arrival::poisson,
                         .rate = 20.0});
    }
    w.pairs_per_request = 4;
    w.budget = Duration::seconds(5);
    // Admission books the circuits' planned end-to-end rate, about twice
    // what this grid delivers under the load, so accepted requests finish
    // in about twice their budget (req_latency_p50_s shows it). The limit
    // sits above that so slo_attainment measures service, not that gap.
    w.latency_limit = Duration::seconds(15);
    w.horizon = Duration::seconds(400);
    w.stride = Duration::seconds(1);
  } else if (name == "regions4_sharded") {
    // Four 3x9 grid regions bridged by 20 km of classical fibre, one shard
    // per region: the only workload on the sharded kernel's windows,
    // mailboxes and cross-shard channels.
    constexpr std::size_t kRegions = 4, kRows = 3, kCols = 9, kCircuits = 13;
    std::vector<netsim::TopologySpec> parts(
        kRegions, netsim::TopologySpec::grid(kRows, kCols, hw, lab));
    w.topology = netsim::TopologySpec::compose_regions(
        parts, qhw::FiberParams::telecom(20000.0));
    w.shards = std::min<std::size_t>(kRegions, nproc());
    w.fidelity = 0.72;
    w.establish_slot = Duration::ms(50);
    constexpr std::size_t kPerRegion = kRows * kCols, kSpan = 3;
    for (std::size_t r = 0; r < kRegions; ++r) {
      for (std::size_t i = 0; i < kCircuits; ++i) {
        const std::size_t row = i % kRows;
        const std::size_t start = ((i / kRows) * 2) % (kCols - kSpan);
        const std::size_t first = r * kPerRegion + row * kCols + start + 1;
        w.flows.push_back({.head = NodeId{first},
                           .tail = NodeId{first + kSpan},
                           .arrival = Arrival::poisson,
                           .rate = 4.0});
      }
      if (r + 1 < kRegions) {
        const NodeId left{(r + 1) * kPerRegion};
        const NodeId right{(r + 1) * kPerRegion + 1};
        w.keepalives.emplace_back(left, right);
        w.keepalives.emplace_back(right, left);
      }
    }
    w.keepalive_interval = Duration::ms(25);
    w.pairs_per_request = 2;
    w.budget = Duration::seconds(2);
    w.latency_limit = w.budget;
    w.horizon = Duration::seconds(40);
    w.stride = Duration::ms(500);
  } else if (name == "chaos_linkstate") {
    // A 6x6 grid under link-state routing with a faulty classical fabric
    // and the reliable transport: netmsg and ctrl do most of the work.
    w.topology = netsim::TopologySpec::grid(6, 6, hw, lab);
    w.linkstate = true;
    w.warmup = Duration::seconds(3);
    w.config.faults.drop = 0.02;
    w.config.faults.duplicate = 0.02;
    w.config.faults.reorder = 0.05;
    w.config.faults.corrupt = 0.01;
    w.config.faults.jitter = Duration::ms(1);
    w.config.transport.enabled = true;
    w.establish_slot = Duration::ms(100);
    w.fidelity = 0.72;
    // Straight 3-hop circuits on rows 0, 1, 4 and 5; the churned link
    // 15-16 sits in row 2 and carries none of them.
    for (const auto& [head, tail] :
         {std::pair{NodeId{1}, NodeId{4}}, std::pair{NodeId{7}, NodeId{10}},
          std::pair{NodeId{25}, NodeId{28}},
          std::pair{NodeId{31}, NodeId{34}}}) {
      w.flows.push_back({.head = head,
                         .tail = tail,
                         .arrival = Arrival::poisson,
                         .rate = 4.0});
    }
    w.churn_link = std::pair{NodeId{15}, NodeId{16}};
    w.churn_half_period = Duration::seconds(5);
    w.pairs_per_request = 2;
    w.budget = Duration::seconds(5);
    w.latency_limit = w.budget;
    w.horizon = Duration::seconds(200);
    w.stride = Duration::ms(250);
  } else {
    return std::nullopt;
  }
  // Smoke mode keeps the horizon a whole number of strides.
  const auto strides = static_cast<std::int64_t>(
      std::max(1.0, std::floor(w.horizon / w.stride / scale)));
  w.horizon = Duration::ps(w.stride.count_ps() * strides);
  return w;
}

// ---------------------------------------------------------------------------
// One rep.
// ---------------------------------------------------------------------------

/// Per-layer counts read from the public stats (deterministic per seed).
using Counts = std::map<std::string, double>;

/// The measured phase is timed in this many equal sim-time blocks; the
/// host-time metrics use, per block, the median over the reps, so a burst
/// of host noise that hits one rep's block is filtered out.
constexpr std::size_t kBlocks = 20;

struct RepResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  /// Host seconds of each of (up to) kBlocks equal sim-time blocks of the
  /// measured phase.
  std::vector<double> block_s;
  double run_cpu_s = 0.0;
  double sim_s = 0.0;
  std::uint64_t offered = 0, policed = 0, aborted = 0, unfinished = 0;
  std::uint64_t completed = 0, completed_in_window = 0, slo_met = 0;
  std::uint64_t pairs_in_window = 0;
  double fidelity_sum = 0.0;
  std::vector<double> latency_s;  ///< ascending
  std::uint64_t digest = kFnvOffset;
  Counts counts;
  std::vector<std::string> failures;
  std::int64_t run_start_ns = 0, run_end_ns = 0;

  double pairs_per_sim_s() const {
    return ratio(static_cast<double>(pairs_in_window), sim_s);
  }
  double fidelity_mean() const {
    return ratio(fidelity_sum, static_cast<double>(pairs_in_window));
  }
  double slo_attainment() const {
    return ratio(static_cast<double>(slo_met), static_cast<double>(offered));
  }
  double op_fail_ratio() const {
    return ratio(static_cast<double>(policed + aborted + unfinished),
                 static_cast<double>(offered));
  }
};

class Rep {
 public:
  Rep(const WorkloadSpec& w, std::uint64_t seed, std::size_t shards)
      : w_(w), seed_(seed), shards_(shards) {}

  RepResult run();
  /// Set-up alone (build, warm-up, establishment), in host seconds.
  double time_setup();

 private:
  /// Per-flow state. After setup it is touched only by the head node's
  /// shard (head and tail of a circuit share a region), so flows on
  /// different shards never share mutable state.
  struct Flow {
    const FlowSpec* spec = nullptr;
    CircuitId circuit;
    EndpointId head_ep, tail_ep;
    qnp::QnpEngine* head = nullptr;
    qnp::QnpEngine* tail = nullptr;
    des::Simulator* sim = nullptr;  ///< the head node's event loop
    Rng arrivals{0};
    std::uint64_t request_base = 0;
    std::uint64_t next_request = 0;
    bool down = false;
    std::map<RequestId, TimePoint> pending;  ///< accepted, by due time
    /// Oracle fidelity of pairs one end has received, by (request,
    /// sequence), until the other end receives its half.
    std::map<std::pair<std::uint64_t, std::uint64_t>, double> halves;
    std::uint64_t offered = 0, policed = 0, aborted = 0;
    std::uint64_t completed = 0, completed_in_window = 0, slo_met = 0;
    std::uint64_t pairs_in_window = 0;
    std::uint64_t oracle_calls = 0, submit_calls = 0;
    double fidelity_sum = 0.0;
    std::vector<double> latency_s;
    std::uint64_t digest = kFnvOffset;
  };
  struct Ping {
    NodeId from, to;
    des::Simulator* sim = nullptr;
  };
  struct Peaks {
    double pending = 0, qubits = 0, pairs = 0, records = 0;
  };

  void setup(RepResult& r);
  void establish(RepResult& r);
  qnp::EndpointHandlers handlers(Flow& f, bool at_head);
  void pump(Flow& f);
  void ping(Ping& p);
  void on_half(Flow& f, bool at_head, const qnp::PairDelivery& d);
  void on_complete(Flow& f, RequestId id);
  void on_circuit_down(Flow& f);
  void release(Flow& f, bool at_head, QubitId qubit, RequestId request);
  void measured_phase(RepResult& r);
  void sample();
  void read_counts(RepResult& r);
  void check(RepResult& r, const char* when);

  const WorkloadSpec& w_;
  std::uint64_t seed_;
  std::size_t shards_;
  TimePoint traffic_start_, traffic_end_;
  Peaks peaks_;
  std::size_t service_actions_ = 0;
  std::size_t establish_calls_ = 0, admit_rejects_ = 0;
  // Declared before net_ so the network (and its shard threads, which run
  // the handlers that reference these) is destroyed first.
  std::deque<Flow> flows_;
  std::deque<Ping> pings_;
  std::unique_ptr<netsim::Network> net_;
};

void Rep::setup(RepResult& r) {
  netsim::NetworkConfig config = w_.config;
  config.seed = derive_stream_seed(seed_, 0);
  config.faults.seed = derive_stream_seed(seed_, 1);
  config.sharding.shards = shards_;
  {
    Span s("netsim.build");
    net_ = w_.topology.build(config);
  }
  des::ShardedSimulator& ssim = net_->sharded_sim();
  if (w_.linkstate) {
    net_->enable_linkstate();
    Span s("des.warmup");
    ssim.run_until(ssim.now() + w_.warmup);
  }
  {
    Span s("ctrl.service");
    service_actions_ += net_->service_control_plane();
  }
  establish(r);
}

void Rep::establish(RepResult& r) {
  des::ShardedSimulator& ssim = net_->sharded_sim();
  TimePoint slot = ssim.now();
  for (std::size_t i = 0; i < w_.flows.size(); ++i) {
    const FlowSpec& spec = w_.flows[i];
    const EndpointId head_ep{1000 + i}, tail_ep{5000 + i};
    std::optional<ctrl::CircuitPlan> plan;
    {
      Span s("ctrl.establish");
      ++establish_calls_;
      if (w_.establish_slot > Duration::zero()) {
        // A fixed slot grid keeps every establishment instant independent
        // of the shard count.
        ssim.run_until(slot);
        slot = slot + w_.establish_slot;
        plan = net_->establish_circuit(spec.head, spec.tail, head_ep, tail_ep,
                                       w_.fidelity, w_.options, nullptr,
                                       w_.establish_slot);
      } else {
        plan = net_->establish_circuit(spec.head, spec.tail, head_ep, tail_ep,
                                       w_.fidelity, w_.options);
      }
    }
    mix(r.digest, plan.has_value() ? plan->install.circuit_id.value() : 0);
    if (!plan.has_value()) {
      ++admit_rejects_;
      continue;
    }
    Flow& f = flows_.emplace_back();
    f.spec = &spec;
    f.circuit = plan->install.circuit_id;
    f.head_ep = head_ep;
    f.tail_ep = tail_ep;
    f.head = &net_->engine(spec.head);
    f.tail = &net_->engine(spec.tail);
    f.sim = &net_->node_sim(spec.head);
    f.arrivals = Rng(derive_stream_seed(seed_, 1000 + i));
    f.request_base = (i + 1) * 1000000;
    f.head->register_endpoint(head_ep, handlers(f, true));
    f.tail->register_endpoint(tail_ep, handlers(f, false));
  }
  if (w_.establish_slot > Duration::zero()) {
    Span s("ctrl.establish");
    ssim.run_until(slot);
  }
  if (admit_rejects_ > 0) {
    r.failures.push_back(std::to_string(admit_rejects_) +
                         " circuit(s) refused at setup");
  }
}

qnp::EndpointHandlers Rep::handlers(Flow& f, bool at_head) {
  // The application is a sink: each end hands its qubit back as soon as
  // it receives it. The first end to receive a pair reads its oracle
  // fidelity (both qubits are still alive then); the pair counts as
  // delivered once the second end has received it too. Holding a qubit
  // until the partner arrives would let a half whose partner was expired
  // by the network pin a communication qubit forever.
  qnp::EndpointHandlers h;
  h.on_pair = [this, &f, at_head](const qnp::PairDelivery& d) {
    if (d.tracking_pending) return;  // EARLY: wait for tracking
    Span s("bench.handler", d.request.value());
    on_half(f, at_head, d);
  };
  h.on_tracking = [this, &f, at_head](const qnp::PairDelivery& d) {
    Span s("bench.handler", d.request.value());
    on_half(f, at_head, d);
  };
  h.on_expire = [this, &f, at_head](CircuitId, RequestId id, QubitId qubit) {
    Span s("bench.handler", id.value());
    release(f, at_head, qubit, id);
  };
  if (at_head) {
    h.on_complete = [this, &f](CircuitId, RequestId id) {
      Span s("bench.handler", id.value());
      on_complete(f, id);
    };
    h.on_circuit_down = [this, &f](CircuitId, const std::string&) {
      Span s("bench.handler");
      on_circuit_down(f);
    };
  }
  return h;
}

void Rep::release(Flow& f, bool at_head, QubitId qubit, RequestId request) {
  if (!qubit.valid()) return;
  Span s("qnp.release", request.value());
  (at_head ? f.head : f.tail)->release_app_qubit(qubit);
}

void Rep::on_half(Flow& f, bool at_head, const qnp::PairDelivery& d) {
  const std::pair key{d.request.value(), d.sequence};
  const TimePoint now = f.sim->now();
  const auto it = f.halves.find(key);
  if (it == f.halves.end()) {
    double fidelity = 0.0;
    if (d.pair != nullptr) {
      Span s("qstate.oracle", d.request.value());
      fidelity = d.pair->oracle_fidelity(d.state, now);
      ++f.oracle_calls;
    }
    f.halves.emplace(key, fidelity);
  } else {
    const double fidelity = it->second;
    f.halves.erase(it);
    mix(f.digest, key.first);
    mix(f.digest, key.second);
    mix(f.digest, static_cast<std::uint64_t>(now.count_ps()));
    mix_double(f.digest, fidelity);
    if (now <= traffic_end_) {
      ++f.pairs_in_window;
      f.fidelity_sum += fidelity;
    }
  }
  release(f, at_head, d.qubit, d.request);
}

void Rep::on_complete(Flow& f, RequestId id) {
  const auto it = f.pending.find(id);
  if (it == f.pending.end()) return;  // the background request
  const TimePoint now = f.sim->now();
  const Duration latency = now - it->second;
  f.pending.erase(it);
  ++f.completed;
  if (now <= traffic_end_) ++f.completed_in_window;
  if (latency <= w_.latency_limit) ++f.slo_met;
  f.latency_s.push_back(latency.as_seconds());
  mix(f.digest, id.value());
  mix(f.digest, static_cast<std::uint64_t>(latency.count_ps()));
}

void Rep::on_circuit_down(Flow& f) {
  f.down = true;
  f.aborted += f.pending.size();
  f.pending.clear();
}

void Rep::pump(Flow& f) {
  const TimePoint now = f.sim->now();
  {
    Span s("bench.handler");
    ++f.offered;
    const RequestId id{f.request_base + f.next_request++};
    if (f.down) {
      ++f.aborted;
    } else {
      qnp::AppRequest req;
      req.id = id;
      req.head_endpoint = f.head_ep;
      req.tail_endpoint = f.tail_ep;
      req.type = netmsg::RequestType::keep;
      req.num_pairs = w_.pairs_per_request;
      // The budget is both keep-window and deadline: the request books
      // circuit rate, and overload is policed (refused), never queued.
      req.delta_t = w_.budget;
      req.deadline = w_.budget;
      bool ok = false;
      {
        Span submit("qnp.submit", id.value());
        ok = f.head->submit_request(f.circuit, req);
      }
      ++f.submit_calls;
      if (ok) {
        f.pending.emplace(id, now);
      } else {
        ++f.policed;
      }
      mix(f.digest, id.value());
      mix(f.digest, ok ? 1 : 2);
    }
  }
  const Duration gap = f.spec->arrival == Arrival::periodic
                           ? f.spec->interval
                           : f.arrivals.exponential_duration(
                                 Duration::seconds(1.0 / f.spec->rate));
  const TimePoint next = now + gap;
  if (next < traffic_end_) {
    f.sim->schedule_at(next, [this, &f] { pump(f); });
  }
}

void Rep::ping(Ping& p) {
  {
    Span s("netmsg.send");
    net_->classical().send(p.from, p.to, netmsg::KeepaliveMsg{CircuitId{1}});
  }
  const TimePoint next = p.sim->now() + w_.keepalive_interval;
  if (next < traffic_end_) {
    p.sim->schedule_at(next, [this, &p] { ping(p); });
  }
}

void Rep::sample() {
  Span s("bench.sample");
  des::ShardedSimulator& ssim = net_->sharded_sim();
  double qubits = 0, records = 0;
  std::map<std::size_t, const qdevice::PairRegistry*> registries;  // by shard
  for (const NodeId id : net_->node_ids()) {
    qubits += static_cast<double>(net_->device(id).memory().in_use_count());
    records += static_cast<double>(net_->engine(id).occupancy().live);
    registries.emplace(net_->shard_of(id), &net_->device(id).registry());
  }
  double bindings = 0;
  for (const auto& [shard, reg] : registries) {
    bindings += static_cast<double>(reg->size());
  }
  peaks_.pending =
      std::max(peaks_.pending, static_cast<double>(ssim.events_pending()));
  peaks_.qubits = std::max(peaks_.qubits, qubits);
  peaks_.pairs = std::max(peaks_.pairs, bindings / 2.0);
  peaks_.records = std::max(peaks_.records, records);
}

void Rep::measured_phase(RepResult& r) {
  des::ShardedSimulator& ssim = net_->sharded_sim();
  // On a single-region fabric establish_circuit steps the one event loop
  // directly, past the sharded kernel's committed clock: catch it up.
  traffic_start_ =
      std::max(ssim.now(), net_->node_sim(w_.flows.front().head).now());
  ssim.run_until(traffic_start_);
  traffic_end_ = traffic_start_ + w_.horizon;
  for (Flow& f : flows_) {
    if (f.spec->background_pairs > 0) {
      qnp::AppRequest bg;
      bg.id = RequestId{f.request_base};
      bg.head_endpoint = f.head_ep;
      bg.tail_endpoint = f.tail_ep;
      bg.type = netmsg::RequestType::keep;
      bg.num_pairs = f.spec->background_pairs;
      if (!f.head->submit_request(f.circuit, bg)) {
        r.failures.push_back("background request refused");
      }
      f.next_request = 1;
    }
    if (f.spec->arrival == Arrival::none) continue;
    const TimePoint first =
        f.spec->arrival == Arrival::periodic
            ? traffic_start_
            : traffic_start_ + f.arrivals.exponential_duration(
                                   Duration::seconds(1.0 / f.spec->rate));
    if (first < traffic_end_) {
      f.sim->schedule_at(first, [this, &f] { pump(f); });
    }
  }
  for (const auto& [from, to] : w_.keepalives) {
    Ping& p = pings_.emplace_back(Ping{from, to, &net_->node_sim(from)});
    p.sim->schedule_at(traffic_start_ + w_.keepalive_interval,
                       [this, &p] { ping(p); });
  }

  const std::uint64_t events_before = ssim.events_executed();
  const double cpu_before = cpu_s();
  const auto strides =
      static_cast<std::size_t>(w_.horizon.count_ps() / w_.stride.count_ps());
  r.run_start_ns = host_ns();
  {
    Span run("bench.run");
    bool severed = false;
    TimePoint reached = traffic_start_;
    std::int64_t block_start_ns = r.run_start_ns;
    for (std::size_t i = 1; reached < traffic_end_; ++i) {
      const TimePoint next = std::min(reached + w_.stride, traffic_end_);
      {
        Span s("des.run_until");
        ssim.run_until(next);
      }
      reached = next;
      {
        Span s("ctrl.service");
        service_actions_ += net_->service_control_plane();
      }
      if (w_.churn_link.has_value() && reached < traffic_end_ &&
          (reached - traffic_start_).count_ps() %
                  w_.churn_half_period.count_ps() ==
              0) {
        Span s("ctrl.churn");
        const auto [a, b] = *w_.churn_link;
        if (severed) {
          net_->heal_link(a, b);
        } else {
          net_->sever_link(a, b);
        }
        severed = !severed;
      }
      sample();
      if (i * kBlocks / strides != (i - 1) * kBlocks / strides) {
        const std::int64_t now = host_ns();
        r.block_s.push_back(static_cast<double>(now - block_start_ns) * 1e-9);
        block_start_ns = now;
      }
    }
  }
  r.run_end_ns = host_ns();
  r.run_s = static_cast<double>(r.run_end_ns - r.run_start_ns) * 1e-9;
  r.run_cpu_s = cpu_s() - cpu_before;
  r.sim_s = w_.horizon.as_seconds();
  r.counts["des.events"] =
      static_cast<double>(ssim.events_executed() - events_before);
}

void Rep::read_counts(RepResult& r) {
  Counts& c = r.counts;
  qnp::QnpCounters q;
  double expired = 0;
  for (const NodeId id : net_->node_ids()) {
    const auto& e = net_->engine(id).counters();
    q.requests_accepted += e.requests_accepted;
    q.requests_rejected += e.requests_rejected;
    q.requests_shaped += e.requests_shaped;
    q.requests_completed += e.requests_completed;
    q.requests_aborted += e.requests_aborted;
    q.link_pairs_received += e.link_pairs_received;
    q.swaps_completed += e.swaps_completed;
    q.pairs_delivered += e.pairs_delivered;
    q.pairs_discarded_cutoff += e.pairs_discarded_cutoff;
    q.pairs_discarded_unassigned += e.pairs_discarded_unassigned;
    q.expires_sent += e.expires_sent;
    expired += static_cast<double>(
        net_->engine(id).occupancy().expired_wholesale);
  }
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  std::uint64_t submit_calls = 0, oracle_calls = 0;
  for (const Flow& f : flows_) {
    submit_calls += f.submit_calls;
    oracle_calls += f.oracle_calls;
  }
  c["qnp.submit_calls"] = d(submit_calls);
  c["qnp.requests_accepted"] = d(q.requests_accepted);
  c["qnp.requests_rejected"] = d(q.requests_rejected);
  c["qnp.requests_shaped"] = d(q.requests_shaped);
  c["qnp.requests_completed"] = d(q.requests_completed);
  c["qnp.requests_aborted"] = d(q.requests_aborted);
  c["qnp.link_pairs_received"] = d(q.link_pairs_received);
  c["qnp.swaps_completed"] = d(q.swaps_completed);
  c["qnp.pairs_delivered"] = d(q.pairs_delivered);
  c["qnp.pairs_discarded_cutoff"] = d(q.pairs_discarded_cutoff);
  c["qnp.pairs_discarded_unassigned"] = d(q.pairs_discarded_unassigned);
  c["qnp.expires_sent"] = d(q.expires_sent);
  c["qnp.occupancy_peak"] = peaks_.records;
  c["qnp.expired_wholesale"] = expired;
  c["qnp.link_pair_yield"] =
      ratio(d(q.pairs_delivered), d(q.link_pairs_received));

  std::uint64_t pairs = 0, attempts = 0, stalls = 0;
  for (const auto& link : net_->topology().links()) {
    const linklayer::EgpLink* egp = net_->egp(link.a, link.b);
    pairs += egp->pairs_delivered();
    attempts += egp->attempts_total();
    stalls += egp->stalls();
  }
  c["linklayer.pairs"] = d(pairs);
  c["linklayer.attempts"] = d(attempts);
  c["linklayer.stalls"] = d(stalls);
  c["linklayer.attempts_per_pair"] = ratio(d(attempts), d(pairs));

  c["qstate.oracle_calls"] = d(oracle_calls);
  c["qdevice.qubits_in_use_peak"] = peaks_.qubits;
  c["qdevice.pairs_live_peak"] = peaks_.pairs;
  c["des.pending_peak"] = peaks_.pending;

  const netmsg::ChannelStats total = net_->classical().stats().total;
  const double events = d(net_->sharded_sim().events_executed());
  c["netmsg.sent"] = d(total.sent);
  c["netmsg.delivered"] = d(total.delivered);
  c["netmsg.bytes"] = d(total.bytes);
  c["netmsg.dropped"] = d(total.dropped());
  c["netmsg.decode_errors"] = d(total.decode_errors);
  c["netmsg.msgs_per_event"] = ratio(d(total.delivered), events);
  netmsg::ReliableStats rel;
  if (net_->transport_enabled()) {
    for (const NodeId id : net_->node_ids()) {
      const auto& s = net_->transport(id).stats();
      rel.data_sent += s.data_sent;
      rel.retransmits += s.retransmits;
      rel.acks_sent += s.acks_sent;
      rel.duplicates_filtered += s.duplicates_filtered;
    }
  }
  c["netmsg.retransmits"] = d(rel.retransmits);
  c["netmsg.acks_sent"] = d(rel.acks_sent);
  c["netmsg.duplicates_filtered"] = d(rel.duplicates_filtered);
  c["netmsg.retransmit_ratio"] = ratio(d(rel.retransmits), d(rel.data_sent));

  const ctrl::LinkStateStats ls = net_->linkstate_totals();
  c["ctrl.establish_calls"] = d(establish_calls_);
  c["ctrl.admit_rejects"] = d(admit_rejects_);
  c["ctrl.service_actions"] = d(service_actions_);
  c["ctrl.lsas_flooded"] = d(ls.lsas_flooded);
  c["ctrl.lsas_duplicate"] = d(ls.lsas_duplicate);
  c["ctrl.spf_runs"] = d(ls.spf_runs);
  c["ctrl.lsa_dup_ratio"] = ratio(d(ls.lsas_duplicate), d(ls.lsas_received));

  for (const auto& [name, value] : c) mix_double(r.digest, value);
}

void Rep::check(RepResult& r, const char* when) {
  Span s("netsim.check");
  for (const NodeId id : net_->node_ids()) {
    const std::string why = net_->engine(id).consistency_check();
    if (!why.empty()) {
      r.failures.push_back(std::string(when) + ": engine " + id.to_string() +
                           " inconsistent: " + why);
    }
  }
  // Per-channel conservation, sent + duplicated == delivered + dropped() +
  // in_flight(), checked in signed arithmetic so that no counter may run
  // ahead of the copies actually put on the wire.
  for (const auto& [key, ch] : net_->classical().stats().channels) {
    const auto v = [](std::uint64_t x) { return static_cast<__int128>(x); };
    const __int128 on_wire = v(ch.sent) + v(ch.duplicated) -
                             v(ch.dropped_down) - v(ch.dropped_fault);
    const __int128 in_flight = on_wire - v(ch.delivered) -
                               v(ch.dropped_no_handler) - v(ch.decode_errors);
    if (on_wire < 0 || in_flight < 0) {
      r.failures.push_back(std::string(when) + ": channel " +
                           key.first.to_string() + "->" +
                           key.second.to_string() + " breaks conservation");
    }
  }
}

double Rep::time_setup() {
  RepResult r;
  const double t0 = host_s();
  setup(r);
  return host_s() - t0;
}

RepResult Rep::run() {
  RepResult r;
  const double t0 = host_s();
  setup(r);
  r.setup_s = host_s() - t0;

  measured_phase(r);

  des::ShardedSimulator& ssim = net_->sharded_sim();
  // Drain: no new arrivals; a request still open a second past its
  // latency limit counts as unfinished.
  {
    Span s("des.drain");
    ssim.run_until(traffic_end_ + w_.latency_limit + Duration::seconds(1));
  }
  {
    Span s("ctrl.service");
    service_actions_ += net_->service_control_plane();
  }
  std::uint64_t unfinished = 0;
  for (Flow& f : flows_) {
    unfinished += f.pending.size();
    f.pending.clear();
  }
  check(r, "after drain");
  read_counts(r);

  // Teardown: every circuit down, every qubit and every admitted
  // capacity returned.
  {
    Span s("ctrl.teardown");
    for (const Flow& f : flows_) {
      net_->teardown_circuit(f.circuit, "end of run");
    }
    ssim.run_until(ssim.now() + Duration::seconds(2));
    service_actions_ += net_->service_control_plane();
  }
  check(r, "after teardown");
  {
    Span s("netsim.check");
    if (!net_->quiescent()) {
      r.failures.push_back("not quiescent after teardown");
    }
    if (net_->controller() != nullptr &&
        net_->controller()->planned_circuits() != 0) {
      r.failures.push_back("controller still holds planned circuits");
    }
  }

  r.unfinished = unfinished;
  for (const Flow& f : flows_) {
    r.offered += f.offered;
    r.policed += f.policed;
    r.aborted += f.aborted;
    r.completed += f.completed;
    r.completed_in_window += f.completed_in_window;
    r.slo_met += f.slo_met;
    r.pairs_in_window += f.pairs_in_window;
    r.fidelity_sum += f.fidelity_sum;
    r.latency_s.insert(r.latency_s.end(), f.latency_s.begin(),
                       f.latency_s.end());
    mix(r.digest, f.digest);
  }
  if (r.offered != r.policed + r.aborted + r.completed + r.unfinished) {
    r.failures.push_back("request accounting does not add up");
  }
  std::sort(r.latency_s.begin(), r.latency_s.end());
  for (const std::uint64_t v : {r.offered, r.policed, r.aborted, r.unfinished,
                                r.completed, r.completed_in_window, r.slo_met,
                                r.pairs_in_window}) {
    mix(r.digest, v);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Metrics, tables and output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  double min = 0.0, max = 0.0;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
  std::string out = "build-bench";
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "qnetp_bench: %s\n", msg.c_str());
  std::fprintf(stderr,
               "usage: qnetp_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke] [--out DIR]\n"
               "workloads: dumbbell_fig9 grid_overload regions4_sharded "
               "chaos_linkstate\n");
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& v) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos ||
      v.size() > 19) {
    usage_error("bad value for " + flag + ": '" + v + "'");
  }
  return std::stoull(v);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::optional<std::string> value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    }
    const auto take = [&]() -> std::string {
      if (value.has_value()) return *value;
      if (i + 1 >= argc) usage_error("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = take();
    } else if (flag == "--seed") {
      a.seed = parse_uint(flag, take());
    } else if (flag == "--seconds") {
      const std::string v = take();
      char* end = nullptr;
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !std::isfinite(a.seconds) ||
          a.seconds < 0.0 ||
          v.find_first_not_of("0123456789.") != std::string::npos) {
        usage_error("bad value for --seconds: '" + v + "'");
      }
    } else if (flag == "--trace") {
      const std::string v = take();
      if (v != "0" && v != "1") {
        usage_error("bad value for --trace: '" + v + "'");
      }
      a.trace = v == "1";
    } else if (flag == "--smoke" && !value.has_value()) {
      a.smoke = true;
    } else if (flag == "--out") {
      a.out = take();
    } else {
      usage_error("unknown argument: " + std::string(argv[i]));
    }
  }
  if (a.workload.empty()) usage_error("--workload is required");
  return a;
}

/// Host-time self totals of the traced rep, by span name.
struct SpanTotals {
  std::uint64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

struct LayerTable {
  std::map<std::string, SpanTotals> main;     ///< run phase, main thread
  std::map<std::string, SpanTotals> workers;  ///< run phase, shard workers
  std::map<std::string, SpanTotals> outside;  ///< setup and teardown
  double run_s = 0.0;
  double covered = 0.0;  ///< share of the run phase inside child spans
};

/// Thread 0 is the main thread, which also runs shard 0.
LayerTable tabulate(const std::vector<SpanRecord>& spans, const RepResult& r) {
  LayerTable t;
  t.run_s = static_cast<double>(r.run_end_ns - r.run_start_ns) * 1e-9;
  double root_self = t.run_s;
  for (const SpanRecord& s : spans) {
    const bool in_run =
        s.start_ns >= r.run_start_ns && s.end_ns <= r.run_end_ns;
    if (std::strcmp(s.name, "bench.run") == 0) {
      root_self = static_cast<double>(s.self_ns) * 1e-9;
      continue;
    }
    auto& bucket = !in_run ? t.outside : s.thread == 0 ? t.main : t.workers;
    SpanTotals& tot = bucket[s.name];
    ++tot.calls;
    tot.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    tot.self_s += static_cast<double>(s.self_ns) * 1e-9;
  }
  t.covered = ratio(t.run_s - root_self, t.run_s);
  return t;
}

double self_of(const LayerTable& t, const char* name) {
  double v = 0.0;
  for (const auto* m : {&t.main, &t.workers}) {
    if (const auto it = m->find(name); it != m->end()) v += it->second.self_s;
  }
  return v;
}

double total_of(const std::map<std::string, SpanTotals>& m, const char* name) {
  const auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second.total_s;
}

void print_layer_table(const LayerTable& t) {
  std::printf("\nper-layer host time of the traced rep's run phase "
              "(%.3f s wall)\n", t.run_s);
  std::printf("  %-22s %10s %10s %10s %8s\n", "span (main thread)", "calls",
              "total_s", "self_s", "self_%");
  for (const auto& [name, s] : t.main) {
    std::printf("  %-22s %10" PRIu64 " %10.4f %10.4f %8.2f\n", name.c_str(),
                s.calls, s.total_s, s.self_s, 100.0 * ratio(s.self_s, t.run_s));
  }
  std::printf("  %-22s %10s %10s %10s %8.2f\n", "covered by spans", "", "", "",
              100.0 * t.covered);
  if (!t.workers.empty()) {
    std::printf("  %-22s %10s %10s %10s   (thread-seconds)\n",
                "span (shard workers)", "calls", "total_s", "self_s");
    for (const auto& [name, s] : t.workers) {
      std::printf("  %-22s %10" PRIu64 " %10.4f %10.4f\n", name.c_str(),
                  s.calls, s.total_s, s.self_s);
    }
  }
  std::printf("  %-22s %10s %10s %10s   (outside the run phase)\n",
              "span (setup/teardown)", "calls", "total_s", "self_s");
  for (const auto& [name, s] : t.outside) {
    std::printf("  %-22s %10" PRIu64 " %10.4f %10.4f\n", name.c_str(), s.calls,
                s.total_s, s.self_s);
  }
}

void write_trace(const std::string& path, const std::vector<SpanRecord>& spans,
                 std::int64_t origin_ns) {
  std::ofstream out(path);
  for (const SpanRecord& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"thread\":" << s.thread
        << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request
        << ",\"start_ns\":" << (s.start_ns - origin_ns)
        << ",\"end_ns\":" << (s.end_ns - origin_ns)
        << ",\"self_ns\":" << s.self_ns << "}\n";
  }
}

std::string metrics_json(const std::vector<Metric>& ms, bool with_range) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"";
    if (with_range) {
      s += ", \"min\": " + num(ms[i].min) + ", \"max\": " + num(ms[i].max);
    }
    s += "}";
  }
  return s + "}";
}

std::string json_string(const std::string& v) {
  std::string s = "\"";
  for (const char c : v) {
    if (c == '"' || c == '\\') s += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) s += c;
  }
  return s + "\"";
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("\n%s\n  %-30s %16s %16s %16s  %s\n", title, "metric", "median",
              "min", "max", "unit");
  for (const Metric& m : ms) {
    std::printf("  %-30s %16.6g %16.6g %16.6g  %s\n", m.name.c_str(), m.value,
                m.min, m.max, m.unit.c_str());
  }
}

/// Median with range of host-time samples.
Metric median_metric(const std::string& name, const std::string& unit,
                     const std::vector<double>& xs) {
  return Metric{name, unit, median(xs), *std::min_element(xs.begin(), xs.end()),
                *std::max_element(xs.begin(), xs.end())};
}

/// `amount` (identical in every rep) per host second of the measured
/// phase; the range is over the reps' plain wall times.
Metric rate_metric(const std::string& name, const std::string& unit,
                   double amount, double wall_s,
                   const std::vector<RepResult>& reps) {
  const auto [lo, hi] = std::minmax_element(
      reps.begin(), reps.end(),
      [](const RepResult& a, const RepResult& b) { return a.run_s < b.run_s; });
  return Metric{name, unit, amount / wall_s, amount / hi->run_s,
                amount / lo->run_s};
}

Metric exact_metric(const std::string& name, const std::string& unit,
                    double v) {
  return Metric{name, unit, v, v, v};
}

/// The per-layer metrics of the traced rep. `solo_run_s` is the measured
/// phase's wall time at one shard, `run_wall_s` the untraced one.
std::vector<Metric> layer_metrics(const RepResult& traced, const LayerTable& t,
                                  double solo_run_s, double run_wall_s) {
  std::vector<Metric> layer;
  const Counts& c = traced.counts;
  const double des_self = self_of(t, "des.run_until");
  const auto count = [&](const char* name, const char* unit) {
    layer.push_back(exact_metric(name, unit, c.at(name)));
  };
  const auto value = [&](const char* name, const char* unit, double v) {
    layer.push_back(exact_metric(name, unit, v));
  };
  count("des.events", "count");
  value("des.run_s", "s", total_of(t.main, "des.run_until"));
  value("des.self_s", "s", des_self);
  value("des.ns_per_event", "ns", 1e9 * ratio(des_self, c.at("des.events")));
  count("des.pending_peak", "count");
  value("des.cpu_per_wall", "1", ratio(traced.run_cpu_s, traced.run_s));
  value("des.shard_speedup", "1", ratio(solo_run_s, run_wall_s));
  count("qnp.submit_calls", "count");
  value("qnp.submit_s", "s", self_of(t, "qnp.submit"));
  value("qnp.release_s", "s", self_of(t, "qnp.release"));
  for (const char* n :
       {"qnp.requests_accepted", "qnp.requests_rejected",
        "qnp.requests_shaped", "qnp.requests_completed",
        "qnp.requests_aborted", "qnp.link_pairs_received",
        "qnp.swaps_completed", "qnp.pairs_delivered",
        "qnp.pairs_discarded_cutoff", "qnp.pairs_discarded_unassigned",
        "qnp.expires_sent", "qnp.occupancy_peak", "qnp.expired_wholesale"}) {
    count(n, "count");
  }
  count("qnp.link_pair_yield", "1");
  count("linklayer.pairs", "count");
  count("linklayer.attempts", "count");
  count("linklayer.stalls", "count");
  count("linklayer.attempts_per_pair", "1");
  count("qstate.oracle_calls", "count");
  value("qstate.oracle_s", "s", self_of(t, "qstate.oracle"));
  count("qdevice.qubits_in_use_peak", "count");
  count("qdevice.pairs_live_peak", "count");
  count("netmsg.sent", "count");
  count("netmsg.delivered", "count");
  count("netmsg.bytes", "B");
  count("netmsg.dropped", "count");
  count("netmsg.decode_errors", "count");
  count("netmsg.msgs_per_event", "1");
  count("netmsg.retransmits", "count");
  count("netmsg.acks_sent", "count");
  count("netmsg.duplicates_filtered", "count");
  count("netmsg.retransmit_ratio", "1");
  count("ctrl.establish_calls", "count");
  value("ctrl.establish_s", "s", total_of(t.outside, "ctrl.establish"));
  count("ctrl.admit_rejects", "count");
  value("ctrl.service_s", "s", self_of(t, "ctrl.service"));
  count("ctrl.service_actions", "count");
  count("ctrl.lsas_flooded", "count");
  count("ctrl.lsas_duplicate", "count");
  count("ctrl.spf_runs", "count");
  count("ctrl.lsa_dup_ratio", "1");
  value("netsim.build_s", "s", total_of(t.outside, "netsim.build"));
  value("netsim.check_s", "s", total_of(t.outside, "netsim.check"));
  value("bench.handler_s", "s", self_of(t, "bench.handler"));
  value("trace.overhead", "1", traced.run_s / run_wall_s - 1.0);
  value("trace.coverage", "1", t.covered);
  return layer;
}

int run(const Args& args) {
  const auto spec = make_workload(args.workload, args.smoke ? 20.0 : 1.0);
  if (!spec.has_value()) usage_error("unknown workload: " + args.workload);
  const WorkloadSpec& w = *spec;
  thread_buffer();  // the main thread records as thread 0

  double load_start[3] = {0, 0, 0}, load_end[3] = {0, 0, 0};
  getloadavg(load_start, 3);

  std::vector<std::string> failures;
  if (!args.smoke) {
    // An unmeasured rep at a tenth of the horizon first: the first rep in
    // a process otherwise pays for heap growth and a cold CPU.
    const RepResult warm =
        Rep(*make_workload(args.workload, 10.0), args.seed, w.shards).run();
    failures = warm.failures;
  }
  // At least three reps for the medians (one in smoke mode), then more
  // until --seconds have passed.
  const std::size_t min_reps = args.smoke ? 1 : 3;
  std::vector<RepResult> reps;
  const double started = host_s();
  while (reps.size() < min_reps || host_s() - started < args.seconds) {
    reps.push_back(Rep(w, args.seed, w.shards).run());
    const RepResult& r = reps.back();
    for (const std::string& f : r.failures) failures.push_back(f);
    if (r.digest != reps.front().digest) {
      failures.push_back("rep " + std::to_string(reps.size()) +
                         " digest differs from rep 1");
    }
    if (!args.smoke && r.completed < 1000) {
      failures.push_back("rep completed only " + std::to_string(r.completed) +
                         " requests (< 1000)");
    }
  }
  // Set-up is short next to a rep, so it is sampled more often: at least
  // kSetupSamples set-ups and half a second of them, and setup_s is their
  // median.
  constexpr std::size_t kSetupSamples = 11, kMaxSetupSamples = 201;
  std::vector<double> setup_s;
  double setup_total = 0.0;
  for (const RepResult& r : reps) {
    setup_s.push_back(r.setup_s);
    setup_total += r.setup_s;
  }
  while (!args.smoke && setup_s.size() < kMaxSetupSamples &&
         (setup_s.size() < kSetupSamples || setup_total < 0.5)) {
    setup_s.push_back(Rep(w, args.seed, w.shards).time_setup());
    setup_total += setup_s.back();
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const RepResult& first = reps.front();

  // Wall time of the measured phase: the sum over blocks of each block's
  // median over the reps (identical work, so the blocks line up).
  double run_wall_s = 0.0;
  for (std::size_t b = 0; b < first.block_s.size(); ++b) {
    std::vector<double> xs;
    for (const RepResult& r : reps) xs.push_back(r.block_s.at(b));
    run_wall_s += median(xs);
  }
  std::vector<Metric> e2e = {
      rate_metric("sim_s_per_wall_s", "s/s", first.sim_s, run_wall_s, reps),
      rate_metric("requests_per_wall_s", "req/s",
                  static_cast<double>(first.completed_in_window), run_wall_s,
                  reps),
      median_metric("setup_s", "s", setup_s),
      exact_metric("peak_rss_mib", "MiB", peak_rss_mib),
      exact_metric("pairs_per_sim_s", "pairs/s", first.pairs_per_sim_s()),
      exact_metric("req_latency_p50_s", "s", quantile(first.latency_s, 0.50)),
      exact_metric("req_latency_p99_s", "s", quantile(first.latency_s, 0.99)),
      exact_metric("fidelity_mean", "1", first.fidelity_mean()),
      exact_metric("slo_attainment", "1", first.slo_attainment()),
      exact_metric("op_success_ratio", "1", 1.0 - first.op_fail_ratio()),
  };
  const Metric op_fail =
      exact_metric("op_fail_ratio", "1", first.op_fail_ratio());

  // Traced rep, then the same work at one shard (speed-up and digest).
  std::vector<Metric> layer;
  std::optional<LayerTable> table;
  if (args.trace) {
    take_spans();
    g_tracing.store(true);
    const RepResult traced = Rep(w, args.seed, w.shards).run();
    g_tracing.store(false);
    const std::vector<SpanRecord> spans = take_spans();
    const RepResult solo = Rep(w, args.seed, 1).run();
    for (const RepResult* r : {&traced, &solo}) {
      for (const std::string& f : r->failures) failures.push_back(f);
    }
    if (traced.digest != first.digest) {
      failures.push_back("tracing changed the digest");
    }
    if (solo.digest != first.digest) {
      failures.push_back("digest differs between " + std::to_string(w.shards) +
                         " shard(s) and 1 shard");
    }
    table = tabulate(spans, traced);
    if (table->covered < 0.95) {
      failures.push_back("spans cover only " +
                         std::to_string(100.0 * table->covered) +
                         "% of the run phase");
    }
    std::filesystem::create_directories(args.out + "/trace");
    write_trace(args.out + "/trace/" + w.name + ".jsonl", spans,
                traced.run_start_ns);

    layer = layer_metrics(traced, *table, solo.run_s, run_wall_s);
  }
  getloadavg(load_end, 3);

  // Human-readable report.
  std::printf("qnetp_bench %s seed=%" PRIu64 " reps=%zu shards=%zu digest=%s\n",
              w.name.c_str(), args.seed, reps.size(), w.shards,
              hex64(first.digest).c_str());
  std::printf("per rep: offered=%" PRIu64 " completed=%" PRIu64
              " policed=%" PRIu64 " aborted=%" PRIu64 " unfinished=%" PRIu64
              " latency n=%zu; measured phase %.0f sim-s, %.0f events\n",
              first.offered, first.completed, first.policed, first.aborted,
              first.unfinished, first.latency_s.size(), first.sim_s,
              first.counts.at("des.events"));
  print_metrics(
      "end-to-end metrics (host time: block medians over reps; min/max per "
      "rep)",
      e2e);
  std::printf("  %-30s %16.6g %16s %16s  %s\n", op_fail.name.c_str(),
              op_fail.value, "", "", op_fail.unit.c_str());
  if (table.has_value()) {
    print_layer_table(*table);
    print_metrics("per-layer metrics (traced rep)", layer);
  }
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("correctness checks: %s\n",
              failures.empty() ? "all passed" : "FAILED");

  // Results file with provenance.
  const std::size_t cores = nproc();
  const char* git = std::getenv("QNETP_BENCH_GIT");
  std::filesystem::create_directories(args.out + "/results");
  {
    std::ofstream out(args.out + "/results/" + w.name + ".json");
    std::vector<Metric> all = e2e;
    all.push_back(op_fail);
    out << "{\"workload\": " << json_string(w.name)
        << ", \"seed\": " << args.seed << ", \"reps\": " << reps.size()
        << ", \"smoke\": "
        << (args.smoke ? "true" : "false") << ", \"traced\": "
        << (args.trace ? "true" : "false")
        << ", \"correct\": " << (failures.empty() ? "true" : "false")
        << ", \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      out << (i > 0 ? ", " : "") << json_string(failures[i]);
    }
    out << "], \"digest\": \"" << hex64(first.digest) << "\", \"offered\": "
        << first.offered << ", \"completed\": " << first.completed
        << ", \"latency_samples\": " << first.latency_s.size()
        << ", \"setup_samples_s\": [";
    for (std::size_t i = 0; i < setup_s.size(); ++i) {
      out << (i > 0 ? ", " : "") << num(setup_s[i]);
    }
    out << "], \"rep_run_s\": [";
    for (std::size_t i = 0; i < reps.size(); ++i) {
      out << (i > 0 ? ", " : "") << num(reps[i].run_s);
    }
    out << "], \"metrics\": " << metrics_json(all, true)
        << ", \"per_layer\": " << metrics_json(layer, false)
        << ", \"provenance\": {\"nproc\": " << cores
        << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
        << ", \"threads\": " << w.shards << ", \"build_type\": "
        << json_string(QNETP_BENCH_BUILD_TYPE) << ", \"compiler\": "
        << json_string(QNETP_BENCH_COMPILER) << ", \"git\": "
        << json_string(git != nullptr ? git : "unknown")
        << ", \"loadavg_start\": [" << num(load_start[0]) << ", "
        << num(load_start[1]) << ", " << num(load_start[2])
        << "], \"loadavg_end\": [" << num(load_end[0]) << ", "
        << num(load_end[1]) << ", " << num(load_end[2])
        << "], \"noisy_host\": "
        << (load_start[0] > static_cast<double>(cores) -
                                static_cast<double>(w.shards)
                ? "true"
                : "false")
        << "}}\n";
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const RepResult& r : reps) {
    attempted += r.offered;
    failed += r.aborted + r.unfinished;
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              failures.empty() ? "true" : "false", attempted, failed,
              metrics_json(args.trace ? layer : e2e, false).c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qnetp_bench: %s\n", e.what());
    return 1;
  }
}
