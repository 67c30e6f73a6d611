// DES kernel throughput: indexed-heap kernel vs the legacy kernel.
//
// Measures a schedule/cancel/dispatch mix modelled on the cutoff-heavy
// regimes of bench/ablation_cutoff_sweep (Fig. 10): every link-pair
// schedules a cutoff timer that is usually cancelled (by a swap) before
// it fires. The legacy kernel — std::priority_queue plus a lazy
// cancellation set — kept cancelled events (and their std::function
// closures) in the heap until they drained; the current kernel removes
// them eagerly and stores closures inline. This binary times both on the
// same workload and records the result in BENCH_des.json so the perf
// trajectory of the kernel is tracked over time.
//
// Flags: --runs=N (repetitions, best-of), --quick, --csv,
//        --out=PATH (JSON output path, default BENCH_des.json).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/common.hpp"
#include "des/simulator.hpp"
#include "qbase/rng.hpp"
#include "qbase/table.hpp"
#include "qbase/units.hpp"

namespace qnetp::bench_des {

// ---------------------------------------------------------------------------
// The legacy kernel, verbatim from the seed tree (modulo naming): a binary
// std::priority_queue of events carrying std::function closures, with a
// lazy cancellation set — cancel() only erases the id, the event object
// drains later. Kept here as the measurement baseline.
// ---------------------------------------------------------------------------
class LegacySimulator {
 public:
  using Handle = std::uint64_t;  // 0 = inert

  TimePoint now() const { return now_; }

  Handle schedule(Duration delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }
  Handle schedule_at(TimePoint at, std::function<void()> fn) {
    const std::uint64_t id = next_seq_++;
    queue_.push(Event{at, id, std::move(fn)});
    live_.insert(id);
    return id;
  }
  bool cancel(Handle h) {
    if (h == 0) return false;
    return live_.erase(h) > 0;
  }
  std::uint64_t run() { return run_until(TimePoint::max()); }
  std::uint64_t run_until(TimePoint horizon) {
    const std::uint64_t start = events_executed_;
    while (dispatch_next(horizon)) {
    }
    if (horizon != TimePoint::max() && now_ < horizon) now_ = horizon;
    return events_executed_ - start;
  }
  std::uint64_t events_executed() const { return events_executed_; }

 private:
  struct Event {
    TimePoint at;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  bool dispatch_next(TimePoint horizon) {
    while (!queue_.empty() && live_.count(queue_.top().seq) == 0) {
      queue_.pop();
    }
    if (queue_.empty()) return false;
    if (queue_.top().at > horizon) {
      now_ = horizon;
      return false;
    }
    Event& ev = const_cast<Event&>(queue_.top());
    auto fn = std::move(ev.fn);
    now_ = ev.at;
    live_.erase(ev.seq);
    queue_.pop();
    ++events_executed_;
    fn();
    return true;
  }

  TimePoint now_ = TimePoint::origin();
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<std::uint64_t> live_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t events_executed_ = 0;
};

// ---------------------------------------------------------------------------
// Workload: per round, `batch` pair lifetimes. Each lifetime schedules a
// cutoff timer (capturing a payload the size of a typical engine closure)
// at the circuit cutoff (~40 ms) and a work event — the swap consuming
// the pair — within the round's 500 us. `cancel_percent` of the cutoffs
// are cancelled when the swap wins the race; the clock then advances one
// round and the next batch arrives. Cutoffs outlive work events by ~80
// rounds, so with lazy cancellation the dead closures pile up in the heap
// exactly as they do in the Fig. 10 cutoff-sweep regimes.
// ---------------------------------------------------------------------------
struct MixConfig {
  std::size_t rounds = 200;
  std::size_t batch = 1024;
  unsigned cancel_percent = 80;
  Duration round_length = Duration::us(500);
  Duration cutoff = Duration::ms(40);
};

struct MixResult {
  std::uint64_t ops = 0;  // schedules + cancels + dispatches
  double seconds = 0.0;
  std::uint64_t executed = 0;
  double mops() const { return static_cast<double>(ops) / seconds / 1e6; }
};

// ~48 bytes of captured state, standing in for the qubit ids/correlators
// a real cutoff closure drags along.
struct Payload {
  std::uint64_t a, b, c, d, e;
  std::uint64_t* sink;
};

template <typename Sim>
MixResult run_mix(const MixConfig& cfg, std::uint64_t seed) {
  Sim sim;
  qnetp::Rng rng(seed);
  std::uint64_t sink = 0;
  std::uint64_t ops = 0;
  const auto start = std::chrono::steady_clock::now();
  std::vector<decltype(sim.schedule(Duration::zero(), [] {}))> cutoffs;
  cutoffs.reserve(cfg.batch);
  for (std::size_t round = 0; round < cfg.rounds; ++round) {
    cutoffs.clear();
    for (std::size_t i = 0; i < cfg.batch; ++i) {
      const Payload p{rng.uniform_int(1u << 20), i, round, 3, 4, &sink};
      // Cutoff timer: fires at the circuit cutoff, usually cancelled
      // first by the swap.
      cutoffs.push_back(
          sim.schedule(cfg.cutoff, [p] { *p.sink += p.a + p.b; }));
      // Work event: the swap that consumes the pair, within this round.
      sim.schedule(Duration::us(static_cast<double>(
                       1 + rng.uniform_int(static_cast<std::uint64_t>(
                               cfg.round_length.as_us()) - 2))),
                   [p] { *p.sink += p.a ^ p.c; });
      ops += 2;
    }
    for (std::size_t i = 0; i < cfg.batch; ++i) {
      if (rng.uniform_int(100) < cfg.cancel_percent) {
        sim.cancel(cutoffs[i]);
        ++ops;
      }
    }
    // Drain this round's work events; pending cutoffs (cancelled or not)
    // stay behind, exactly as in a live network.
    ops += sim.run_until(sim.now() + cfg.round_length);
  }
  // Drain the surviving cutoffs at the end of the horizon.
  ops += sim.run();
  const auto stop = std::chrono::steady_clock::now();
  MixResult r;
  r.ops = ops;
  r.seconds = std::chrono::duration<double>(stop - start).count();
  r.executed = sim.events_executed();
  // Defeat whole-workload elision.
  if (sink == 0xdeadbeef) std::fprintf(stderr, "-");
  return r;
}

template <typename Sim>
MixResult best_of(const MixConfig& cfg, std::size_t runs) {
  MixResult best;
  for (std::size_t i = 0; i < runs; ++i) {
    const MixResult r = run_mix<Sim>(cfg, /*seed=*/42);
    if (best.seconds == 0.0 || r.seconds < best.seconds) best = r;
  }
  return best;
}

void write_json(const std::string& path, const MixConfig& cfg,
                const MixResult& legacy, const MixResult& current) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"des_kernel\",\n"
               "  \"workload\": {\n"
               "    \"rounds\": %zu,\n"
               "    \"batch\": %zu,\n"
               "    \"cancel_percent\": %u,\n"
               "    \"round_length_us\": %.0f,\n"
               "    \"cutoff_ms\": %.0f,\n"
               "    \"closure_payload_bytes\": %zu\n"
               "  },\n"
               "  \"kernels\": [\n"
               "    {\"name\": \"legacy_pq_lazy_cancel\", \"ops\": %llu, "
               "\"seconds\": %.6f, \"mops_per_sec\": %.3f, "
               "\"events_executed\": %llu},\n"
               "    {\"name\": \"indexed_dary_heap\", \"ops\": %llu, "
               "\"seconds\": %.6f, \"mops_per_sec\": %.3f, "
               "\"events_executed\": %llu}\n"
               "  ],\n"
               "  \"speedup\": %.3f\n"
               "}\n",
               cfg.rounds, cfg.batch, cfg.cancel_percent,
               cfg.round_length.as_us(), cfg.cutoff.as_ms(), sizeof(Payload),
               static_cast<unsigned long long>(legacy.ops), legacy.seconds,
               legacy.mops(),
               static_cast<unsigned long long>(legacy.executed),
               static_cast<unsigned long long>(current.ops), current.seconds,
               current.mops(),
               static_cast<unsigned long long>(current.executed),
               current.mops() / legacy.mops());
  std::fclose(f);
}

int main(int argc, char** argv) {
  MixConfig cfg;
  const auto args =
      qnetp::bench::BenchArgs::parse(argc, argv, "BENCH_des.json");
  if (args.quick) cfg.rounds = 20;
  const std::size_t runs = args.runs != 0 ? args.runs : (args.quick ? 2 : 5);
  const bool csv = args.csv;

  const MixResult legacy = best_of<LegacySimulator>(cfg, runs);
  const MixResult current = best_of<qnetp::des::Simulator>(cfg, runs);

  qnetp::TablePrinter table(
      {"kernel", "ops", "seconds", "Mops/s", "speedup"});
  table.add_row({"legacy_pq_lazy_cancel", std::to_string(legacy.ops),
                 qnetp::TablePrinter::num(legacy.seconds),
                 qnetp::TablePrinter::num(legacy.mops()), "1.0"});
  table.add_row({"indexed_dary_heap", std::to_string(current.ops),
                 qnetp::TablePrinter::num(current.seconds),
                 qnetp::TablePrinter::num(current.mops()),
                 qnetp::TablePrinter::num(current.mops() / legacy.mops())});
  if (csv) {
    table.print_csv(std::cout);
  } else {
    qnetp::print_banner(std::cout, "DES kernel schedule/cancel/dispatch mix");
    table.print(std::cout);
  }

  write_json(args.out, cfg, legacy, current);
  std::printf("wrote %s (speedup %.2fx)\n", args.out.c_str(),
              current.mops() / legacy.mops());
  return 0;
}

}  // namespace qnetp::bench_des

int main(int argc, char** argv) {
  return qnetp::bench_des::main(argc, argv);
}
