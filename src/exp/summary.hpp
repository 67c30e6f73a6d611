// SummaryAccumulator: deterministic aggregation of TrialResults.
//
// Consumes results in trial-index order (TrialRunner returns them that
// way) and exposes, per scalar metric: the cross-trial SampleSet (mean,
// stddev, exact quantiles) and percentile-bootstrap CIs; per sample
// metric: the pooled samples concatenated in trial order. digest()
// hashes every metric name and raw double bit pattern (per-metric
// multisets, see below), so two aggregations expose identical
// statistics iff their digests match — the thread-count-invariance
// check used by the replay guard and bench/exp_scaling.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/trial.hpp"
#include "qbase/stats.hpp"

namespace qnetp::exp {

class SummaryAccumulator {
 public:
  /// Add one trial's result. Call in trial-index order; trials that
  /// produced a given metric contribute in the order they were added.
  void add(const TrialResult& r);

  static SummaryAccumulator aggregate(const std::vector<TrialResult>& rs) {
    SummaryAccumulator acc;
    for (const auto& r : rs) acc.add(r);
    return acc;
  }

  std::size_t trials() const { return trials_; }

  /// Names of all scalar / sample metrics seen so far, sorted.
  std::vector<std::string> scalar_names() const;
  std::vector<std::string> sample_names() const;

  bool has_scalar(const std::string& name) const {
    return scalars_.count(name) > 0;
  }

  /// Route a sample metric into a fixed-capacity streaming reservoir
  /// instead of the exact pooled SampleSet. For open-loop soaks the
  /// pooled set would grow with the request count; the reservoir keeps
  /// exact count/mean/min/max plus estimated quantiles in O(capacity).
  /// Must be called before the first add() that carries the metric. The
  /// reservoir RNG is seeded from the metric name only, so a given
  /// trial-ordered value stream always lands in the same reservoir state
  /// (the `--jobs` invariance the digest checks).
  void pool_as_reservoir(const std::string& name,
                         std::size_t capacity = 4096);
  const ReservoirSampler& reservoir(const std::string& name) const;
  /// Cross-trial values of a scalar metric (one entry per trial that set
  /// it). Asserts if the metric was never set.
  const SampleSet& scalar(const std::string& name) const;
  /// Pooled per-trial samples of a sample metric, in trial order.
  const SampleSet& pooled(const std::string& name) const;

  /// Percentile-bootstrap CI for the mean of a scalar metric across
  /// trials. Deterministic: the bootstrap RNG is seeded from `seed` only.
  [[nodiscard]] ConfidenceInterval bootstrap_ci(const std::string& name,
                                  std::size_t resamples = 2000,
                                  double alpha = 0.05,
                                  std::uint64_t seed = 0x5bdc0de) const;

  /// FNV-1a hash over every metric name and value bit pattern (scalars
  /// then samples, names sorted, each metric's values hashed as a sorted
  /// multiset). Two aggregations digest equal iff every metric holds the
  /// same multiset of raw doubles — which-trial-produced-which-value is
  /// deliberately NOT captured, because every statistic this class
  /// exposes (means, quantiles, CIs) is permutation-invariant too.
  /// Reservoir metrics contribute their exact moments and the sorted
  /// retained subset; those are trial-order-dependent by construction,
  /// which is fine because add() is always called in trial order.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  std::size_t trials_ = 0;
  std::map<std::string, SampleSet> scalars_;
  std::map<std::string, SampleSet> pooled_;
  std::map<std::string, ReservoirSampler> reservoirs_;
};

}  // namespace qnetp::exp
