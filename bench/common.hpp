// Shared helpers for the figure-reproduction benchmark binaries.
//
// Every binary accepts:
//   --runs=N    repeat each configuration with N seeded trials
//   --jobs=N    run trials on N worker threads (aggregates are
//               bit-identical for any N; default 1)
//   --shards=N  execution shards inside each trial's fabric, for the
//               workloads that support conservative-parallel DES
//               (aggregates are bit-identical for any N; default 1).
//               Orthogonal to --jobs: jobs parallelize across trials,
//               shards parallelize within one simulated fabric.
//   --seed=S    base seed the per-trial seeds are derived from
//   --quick     cut the sweep to a fast smoke-test subset (each binary
//               prints exactly what was cut)
//   --csv       emit CSV instead of aligned tables
// and the binaries that write a JSON result also accept:
//   --out=PATH  where the JSON goes (default: the binary's BENCH_*.json)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>

#include "exp/runner.hpp"
#include "exp/scenarios.hpp"
#include "exp/summary.hpp"
#include "netsim/network.hpp"
#include "netsim/probe.hpp"
#include "qbase/stats.hpp"
#include "qbase/table.hpp"

namespace qnetp::bench {

using exp::keep_request;

struct BenchArgs {
  std::size_t runs = 0;  // 0 = binary default
  std::size_t jobs = 1;
  std::size_t shards = 1;
  std::uint64_t seed = 0;  // 0 = binary default
  bool quick = false;
  bool csv = false;

  /// --out=PATH: where a binary that writes JSON puts it.
  std::string out;

  /// Parse the shared flags. A binary that writes JSON passes its
  /// `default_out` path, which also enables --out=PATH; for the others
  /// --out is an unknown argument. Malformed values, including an empty
  /// --out=, exit with status 2.
  static BenchArgs parse(int argc, char** argv,
                         const char* default_out = nullptr) {
    BenchArgs args;
    if (default_out != nullptr) args.out = default_out;
    const auto parse_u64 = [](const std::string& value, const char* flag,
                              std::uint64_t min_value) {
      const bool all_digits =
          !value.empty() &&
          value.find_first_not_of("0123456789") == std::string::npos;
      std::uint64_t parsed = 0;
      try {
        if (!all_digits) throw std::invalid_argument(value);
        parsed = std::stoull(value);
      } catch (const std::exception&) {
        std::fprintf(stderr, "bad value for %s: %s\n", flag, value.c_str());
        std::exit(2);
      }
      if (parsed < min_value) {
        std::fprintf(stderr, "bad value for %s: %s (must be >= %llu)\n",
                     flag, value.c_str(),
                     static_cast<unsigned long long>(min_value));
        std::exit(2);
      }
      return parsed;
    };
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--runs=", 0) == 0) {
        args.runs =
            static_cast<std::size_t>(parse_u64(a.substr(7), "--runs", 1));
      } else if (a.rfind("--jobs=", 0) == 0) {
        args.jobs =
            static_cast<std::size_t>(parse_u64(a.substr(7), "--jobs", 1));
      } else if (a.rfind("--shards=", 0) == 0) {
        args.shards =
            static_cast<std::size_t>(parse_u64(a.substr(9), "--shards", 1));
      } else if (a.rfind("--seed=", 0) == 0) {
        args.seed = parse_u64(a.substr(7), "--seed", 1);
      } else if (a == "--quick") {
        args.quick = true;
      } else if (a == "--csv") {
        args.csv = true;
      } else if (default_out != nullptr && a.rfind("--out=", 0) == 0) {
        args.out = a.substr(6);
        if (args.out.empty()) {
          std::fprintf(stderr, "bad value for --out: empty path\n");
          std::exit(2);
        }
      } else {
        std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
        std::fprintf(stderr,
                     "usage: %s [--runs=N] [--jobs=N] [--shards=N] "
                     "[--seed=S] [--quick] [--csv]%s\n",
                     argv[0], default_out != nullptr ? " [--out=PATH]" : "");
        std::exit(2);
      }
    }
    return args;
  }

  /// Trials per configuration: --runs, or the binary's default.
  std::size_t trials(std::size_t default_runs) const {
    return runs > 0 ? runs : default_runs;
  }
  /// Base seed: --seed, or the binary's default.
  std::uint64_t base_seed(std::uint64_t default_seed) const {
    return seed != 0 ? seed : default_seed;
  }
  /// The TrialRunner configured by these flags.
  exp::TrialRunner runner(std::uint64_t default_seed) const {
    return exp::TrialRunner({jobs, base_seed(default_seed)});
  }
};

/// Run one configuration's trials and aggregate: the standard inner loop
/// of every figure binary.
inline exp::SummaryAccumulator run_trials(
    const BenchArgs& args, std::size_t default_runs,
    std::uint64_t default_seed, const exp::TrialRunner::TrialFn& fn) {
  return exp::SummaryAccumulator::aggregate(
      args.runner(default_seed).run(args.trials(default_runs), fn));
}

/// Announce what --quick cut from the sweep, so truncated output is never
/// mistaken for the full experiment. `what` describes the structural cut
/// (sweep points, horizons, workload sizes); the trial count is appended
/// from the parsed flags so a --runs override is reported truthfully.
/// Prints nothing without --quick.
inline void note_quick_cut(const BenchArgs& args, std::size_t default_runs,
                           const std::string& what) {
  if (args.quick) {
    std::cout << "[--quick] reduced sweep: " << what << "; "
              << args.trials(default_runs) << " trial(s) per point";
    if (args.shards != 1) std::cout << "; --shards=" << args.shards;
    std::cout << "\n";
  }
}

inline void emit(const TablePrinter& table, const BenchArgs& args) {
  if (args.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

}  // namespace qnetp::bench
