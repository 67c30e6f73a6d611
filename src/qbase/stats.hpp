// Statistics collectors used by the evaluation harness.
//
// The paper reports averages over repeated simulation runs, CDFs (Fig. 5)
// and percentile error bars (Fig. 9). These collectors cover that: exact
// sample-keeping percentile estimation (sample counts here are small),
// running moments and CDF extraction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "qbase/assert.hpp"
#include "qbase/rng.hpp"

namespace qnetp {

/// A two-sided confidence interval.
struct ConfidenceInterval {
  double lo = 0.0;
  double hi = 0.0;
  bool contains(double x) const { return lo <= x && x <= hi; }
  double width() const { return hi - lo; }
};

/// Percentile-bootstrap confidence interval for the mean: resample the
/// sample set with replacement `resamples` times and take the alpha/2 and
/// 1-alpha/2 quantiles of the resampled means. Deterministic given `rng`.
/// Requires a non-empty sample set and alpha in (0, 1).
ConfidenceInterval bootstrap_mean_ci(const std::vector<double>& samples,
                                     std::size_t resamples, double alpha,
                                     Rng& rng);

/// Running mean / variance / extrema without keeping samples (Welford).
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double mean() const;
  double variance() const;  ///< sample variance (n-1 denominator)
  double stddev() const;
  double stderr_mean() const;  ///< standard error of the mean
  double min() const;
  double max() const;
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Sample-keeping collector with exact quantiles and CDF extraction.
class SampleSet {
 public:
  void add(double x);
  void clear();
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Exact quantile by linear interpolation, q in [0, 1].
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

  /// CDF evaluated at x: fraction of samples <= x.
  double cdf_at(double x) const;
  /// n evenly spaced (value, cumulative fraction) points for plotting.
  std::vector<std::pair<double, double>> cdf_points(std::size_t n) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  void ensure_sorted() const;
  std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Fixed-capacity streaming quantile estimator (Vitter's Algorithm R).
///
/// SampleSet keeps every sample, which is exact but unbounded — an
/// open-loop soak submitting millions of requests cannot afford that.
/// The reservoir keeps a uniform random subset of fixed size instead:
/// count/mean/min/max stay exact (tracked in a RunningStats alongside),
/// quantiles are estimated from the reservoir. Fully deterministic for a
/// given seed and insertion order, so aggregate digests survive `--jobs`
/// as long as values are fed in trial order.
class ReservoirSampler {
 public:
  explicit ReservoirSampler(std::size_t capacity = 4096,
                            std::uint64_t seed = 0x5ee0a11ed5a3713eULL);

  void add(double x);
  std::size_t capacity() const { return capacity_; }
  /// Exact number of values offered (not the retained count).
  std::size_t count() const { return exact_.count(); }
  bool empty() const { return exact_.empty(); }
  double mean() const { return exact_.mean(); }
  double min() const { return exact_.min(); }
  double max() const { return exact_.max(); }

  /// Quantile estimated from the retained subset, q in [0, 1].
  double quantile(double q) const;

  /// The retained values, sorted ascending (for digests and merging).
  std::vector<double> sorted_reservoir() const;
  std::size_t retained() const { return reservoir_.size(); }

 private:
  std::size_t capacity_;
  Rng rng_;
  RunningStats exact_;
  std::vector<double> reservoir_;
};

}  // namespace qnetp
