// The gate harness shared by the gate benches: chaos_soak, routing_churn,
// traffic_soak, shard_scaling, multiflow_topologies and exp_scaling.
//
// A gate bench runs each of its configs at several (jobs, shards) sweep
// points. Trials are pure functions of their seed, so a config's
// aggregate digest must be bit-identical at every point; on top of that
// digest gate each bench adds its own gates (clean trials, flat
// occupancy, partition == sever). The harness prints one table and one
// PASS/FAIL line per gate, writes one JSON file and turns the gates into
// the exit status: 0 only when every gate passed.
//
// JSON schema, the same for every gate bench:
//   {"benchmark": NAME, "hw_concurrency": CORES, "quick": BOOL,
//    "base_seed": SEED, "trials_per_point": N,
//    "info": {KEY: NUMBER, ...},          // bench-specific workload facts
//    "gates": {GATE: BOOL, ...},
//    "sweep": [{"config": LABEL, "jobs": N, "shards": N,
//               "seconds": WALL_S, "digest": "HEX16",
//               "digests_match": BOOL, "clean": BOOL,
//               COLUMN: NUMBER, ...}, ...]}
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/common.hpp"

namespace qnetp::bench {

/// One timed TrialRunner run of a config at (jobs, shards).
struct SweepPoint {
  std::string config;
  std::size_t jobs = 1;
  std::size_t shards = 1;
  double seconds = 0.0;                  ///< wall clock of the run
  std::vector<exp::TrialResult> trials;  ///< in trial-index order
  exp::SummaryAccumulator acc;           ///< the trials, aggregated
  std::uint64_t digest = 0;              ///< acc.digest()
  bool clean = true;          ///< every clean key is 1 in every trial
  bool digests_match = true;  ///< cleared when a digest gate fails

  double mean(const std::string& metric) const {
    return acc.scalar(metric).mean();
  }
  /// True when scalar `key` is 1 in every trial.
  bool all_trials(const std::string& key) const {
    return std::all_of(trials.begin(), trials.end(),
                       [&key](const exp::TrialResult& r) {
                         return r.scalar_or(key, 0.0) == 1.0;
                       });
  }
};

/// One number per sweep point: a table column and a JSON field.
struct Column {
  std::string name;
  int precision = 2;
  std::function<double(const SweepPoint&)> value;
};

/// The cross-trial mean of scalar `metric`.
inline Column mean_column(const std::string& name, const std::string& metric,
                          int precision) {
  return {name, precision,
          [metric](const SweepPoint& p) { return p.mean(metric); }};
}

/// Wall-clock speedup of each point over `serial`.
inline Column speedup_column(const SweepPoint& serial) {
  return {"speedup", 3, [&serial](const SweepPoint& p) {
            return serial.seconds / p.seconds;
          }};
}

/// A sweep: `values` plus the --jobs or --shards flag value, sorted.
inline std::vector<std::size_t> sweep_values(std::vector<std::size_t> values,
                                             std::size_t flag_value) {
  if (std::find(values.begin(), values.end(), flag_value) == values.end()) {
    values.push_back(flag_value);
  }
  std::sort(values.begin(), values.end());
  return values;
}

class GateBench {
 public:
  /// Announces the --quick cut. A sweep point counts as clean when every
  /// scalar in `clean_keys` is 1 in every trial.
  GateBench(std::string name, const BenchArgs& args, std::size_t default_runs,
            std::uint64_t default_seed, const std::string& quick_cut,
            std::vector<std::string> clean_keys = {})
      : name_(std::move(name)),
        args_(args),
        trials_(args.trials(default_runs)),
        seed_(args.base_seed(default_seed)),
        clean_keys_(std::move(clean_keys)) {
    note_quick_cut(args, default_runs, quick_cut);
  }

  std::size_t trials() const { return trials_; }
  const std::deque<SweepPoint>& points() const { return points_; }

  /// Runs trials() seeded trials of `fn` on `jobs` workers as one sweep
  /// point. The trials aggregate into `acc`: pass one whose reservoirs
  /// are registered when the digest has to hash them.
  SweepPoint& run(std::string config, std::size_t jobs, std::size_t shards,
                  const exp::TrialRunner::TrialFn& fn,
                  exp::SummaryAccumulator acc = {}) {
    SweepPoint& p = points_.emplace_back();
    p.config = std::move(config);
    p.jobs = jobs;
    p.shards = shards;
    const auto start = std::chrono::steady_clock::now();
    p.trials = exp::TrialRunner({jobs, seed_}).run(trials_, fn);
    p.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    p.acc = std::move(acc);
    for (const auto& t : p.trials) p.acc.add(t);
    p.digest = p.acc.digest();
    for (const auto& key : clean_keys_) p.clean = p.clean && p.all_trials(key);
    return p;
  }

  /// The digest-group gate: true when every point of `config` carries
  /// the digest of its first point. Points that differ are marked.
  bool digests_agree(const std::string& config) {
    const SweepPoint* first = nullptr;
    bool agree = true;
    for (auto& p : points_) {
      if (p.config != config) continue;
      if (first == nullptr) {
        first = &p;
      } else if (p.digest != first->digest) {
        p.digests_match = false;
        agree = false;
      }
    }
    return agree;
  }

  bool all_clean() const {
    return std::all_of(points_.begin(), points_.end(),
                       [](const SweepPoint& p) { return p.clean; });
  }

  /// Records a named gate: a JSON `gates` entry and a PASS/FAIL line.
  void gate(std::string name, bool ok, std::string what) {
    gates_.push_back({std::move(name), std::move(what), ok});
  }

  /// Records a bench-specific workload fact under JSON `info`.
  void info(std::string key, double value) {
    info_.emplace_back(std::move(key), value);
  }

  /// Prints the table and the gate lines, writes the JSON file and
  /// returns the exit status.
  int finish(const std::string& title,
             const std::vector<Column>& columns) const {
    print_banner(std::cout, title);
    std::vector<std::string> header{"config", "jobs", "shards", "seconds"};
    for (const auto& c : columns) header.push_back(c.name);
    header.insert(header.end(), {"digest", "match"});
    TablePrinter table(header);
    for (const auto& p : points_) {
      std::vector<std::string> row{p.config, std::to_string(p.jobs),
                                   std::to_string(p.shards),
                                   fixed(p.seconds, 3)};
      for (const auto& c : columns) {
        row.push_back(fixed(c.value(p), c.precision));
      }
      row.insert(row.end(), {hex(p.digest), p.digests_match ? "yes" : "NO"});
      table.add_row(std::move(row));
    }
    emit(table, args_);
    std::printf("\nhost cores: %u\n", std::thread::hardware_concurrency());
    bool all_pass = true;
    for (const auto& g : gates_) {
      std::printf("%s  %s\n", g.ok ? "PASS" : "FAIL", g.what.c_str());
      all_pass = all_pass && g.ok;
    }
    write_json(columns);
    std::printf("wrote %s\n", args_.out.c_str());
    return all_pass ? 0 : 1;
  }

 private:
  struct Gate {
    std::string name;
    std::string what;
    bool ok = true;
  };

  static std::string hex(std::uint64_t digest) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
  }
  static std::string fixed(double v, int precision) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", precision, v);
    return buf;
  }
  static const char* json_bool(bool b) { return b ? "true" : "false"; }

  void write_json(const std::vector<Column>& columns) const {
    std::FILE* f = std::fopen(args_.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args_.out.c_str());
      std::exit(1);
    }
    std::fprintf(f,
                 "{\n  \"benchmark\": \"%s\",\n  \"hw_concurrency\": %u,\n"
                 "  \"quick\": %s,\n  \"base_seed\": %llu,\n"
                 "  \"trials_per_point\": %zu,\n  \"info\": {",
                 name_.c_str(), std::thread::hardware_concurrency(),
                 json_bool(args_.quick),
                 static_cast<unsigned long long>(seed_), trials_);
    for (std::size_t i = 0; i < info_.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %.6g", i == 0 ? "" : ", ",
                   info_[i].first.c_str(), info_[i].second);
    }
    std::fprintf(f, "},\n  \"gates\": {");
    for (std::size_t i = 0; i < gates_.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %s", i == 0 ? "" : ", ",
                   gates_[i].name.c_str(), json_bool(gates_[i].ok));
    }
    std::fprintf(f, "},\n  \"sweep\": [\n");
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const auto& p = points_[i];
      std::fprintf(f,
                   "    {\"config\": \"%s\", \"jobs\": %zu, \"shards\": %zu, "
                   "\"seconds\": %.6f, \"digest\": \"%s\", "
                   "\"digests_match\": %s, \"clean\": %s",
                   p.config.c_str(), p.jobs, p.shards, p.seconds,
                   hex(p.digest).c_str(), json_bool(p.digests_match),
                   json_bool(p.clean));
      for (const auto& c : columns) {
        std::fprintf(f, ", \"%s\": %s", c.name.c_str(),
                     fixed(c.value(p), c.precision).c_str());
      }
      std::fprintf(f, "}%s\n", i + 1 < points_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }

  std::string name_;
  BenchArgs args_;
  std::size_t trials_;
  std::uint64_t seed_;
  std::vector<std::string> clean_keys_;
  std::deque<SweepPoint> points_;
  std::vector<Gate> gates_;
  std::vector<std::pair<std::string, double>> info_;
};

}  // namespace qnetp::bench
