#include "qbase/stats.hpp"

#include <algorithm>
#include <cmath>

namespace qnetp {

ConfidenceInterval bootstrap_mean_ci(const std::vector<double>& samples,
                                     std::size_t resamples, double alpha,
                                     Rng& rng) {
  QNETP_ASSERT_MSG(!samples.empty(), "bootstrap needs samples");
  QNETP_ASSERT_MSG(alpha > 0.0 && alpha < 1.0, "alpha out of range");
  QNETP_ASSERT(resamples > 0);
  const std::size_t n = samples.size();
  SampleSet means;
  for (std::size_t r = 0; r < resamples; ++r) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += samples[rng.uniform_int(n)];
    }
    means.add(sum / static_cast<double>(n));
  }
  ConfidenceInterval ci;
  ci.lo = means.quantile(alpha / 2.0);
  ci.hi = means.quantile(1.0 - alpha / 2.0);
  return ci;
}

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  QNETP_ASSERT(n_ > 0);
  return mean_;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::stderr_mean() const {
  if (n_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(n_));
}

double RunningStats::min() const {
  QNETP_ASSERT(n_ > 0);
  return min_;
}

double RunningStats::max() const {
  QNETP_ASSERT(n_ > 0);
  return max_;
}

void SampleSet::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void SampleSet::clear() {
  samples_.clear();
  sorted_ = true;
}

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    auto& s = const_cast<std::vector<double>&>(samples_);
    std::sort(s.begin(), s.end());
    sorted_ = true;
  }
}

double SampleSet::mean() const {
  QNETP_ASSERT(!samples_.empty());
  double sum = 0.0;
  for (double x : samples_) sum += x;
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double x : samples_) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double SampleSet::min() const {
  ensure_sorted();
  QNETP_ASSERT(!samples_.empty());
  return samples_.front();
}

double SampleSet::max() const {
  ensure_sorted();
  QNETP_ASSERT(!samples_.empty());
  return samples_.back();
}

double SampleSet::quantile(double q) const {
  QNETP_ASSERT(!samples_.empty());
  QNETP_ASSERT(q >= 0.0 && q <= 1.0);
  ensure_sorted();
  if (samples_.size() == 1) return samples_[0];
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

double SampleSet::cdf_at(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>> SampleSet::cdf_points(
    std::size_t n) const {
  std::vector<std::pair<double, double>> pts;
  if (samples_.empty() || n == 0) return pts;
  ensure_sorted();
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double q =
        (n == 1) ? 1.0
                 : static_cast<double>(i) / static_cast<double>(n - 1);
    pts.emplace_back(quantile(q), q);
  }
  return pts;
}

ReservoirSampler::ReservoirSampler(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  QNETP_ASSERT(capacity_ > 0);
  reservoir_.reserve(capacity_);
}

void ReservoirSampler::add(double x) {
  // Algorithm R: the i-th value (0-based) replaces a uniformly random
  // slot with probability capacity/(i+1), keeping the reservoir a
  // uniform sample of everything seen so far.
  const std::size_t i = exact_.count();
  exact_.add(x);
  if (reservoir_.size() < capacity_) {
    reservoir_.push_back(x);
    return;
  }
  const std::uint64_t j = rng_.uniform_int(i + 1);
  if (j < capacity_) reservoir_[j] = x;
}

double ReservoirSampler::quantile(double q) const {
  QNETP_ASSERT(!reservoir_.empty());
  QNETP_ASSERT(q >= 0.0 && q <= 1.0);
  std::vector<double> sorted = sorted_reservoir();
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

std::vector<double> ReservoirSampler::sorted_reservoir() const {
  std::vector<double> sorted = reservoir_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace qnetp
