#include "exp/summary.hpp"

#include <algorithm>
#include <cstring>

#include "qbase/assert.hpp"
#include "qbase/fnv.hpp"

namespace qnetp::exp {

namespace {
void fnv_double(std::uint64_t& h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  fnv1a(h, &bits, sizeof bits);
}

void fnv_set(std::uint64_t& h, const std::string& name,
             const SampleSet& set) {
  fnv1a(h, name.data(), name.size());
  const std::size_t n = set.count();
  fnv1a(h, &n, sizeof n);
  // SampleSet sorts lazily on quantile queries, so hash a sorted copy:
  // the digest must not depend on which statistics were queried first.
  std::vector<double> sorted(set.samples());
  std::sort(sorted.begin(), sorted.end());
  for (double v : sorted) fnv_double(h, v);
}
}  // namespace

void SummaryAccumulator::add(const TrialResult& r) {
  ++trials_;
  for (const auto& [name, v] : r.scalars) scalars_[name].add(v);
  for (const auto& [name, vs] : r.samples) {
    const auto res = reservoirs_.find(name);
    if (res != reservoirs_.end()) {
      for (double v : vs) res->second.add(v);
      continue;
    }
    auto& pool = pooled_[name];
    for (double v : vs) pool.add(v);
  }
}

void SummaryAccumulator::pool_as_reservoir(const std::string& name,
                                           std::size_t capacity) {
  QNETP_ASSERT_MSG(pooled_.count(name) == 0,
                   "metric already pooled exactly; register the reservoir "
                   "before the first add()");
  if (reservoirs_.count(name) > 0) return;  // idempotent
  std::uint64_t name_hash = kFnvOffsetBasis;
  fnv1a(name_hash, name.data(), name.size());
  reservoirs_.emplace(name, ReservoirSampler(capacity, name_hash));
}

const ReservoirSampler& SummaryAccumulator::reservoir(
    const std::string& name) const {
  const auto it = reservoirs_.find(name);
  QNETP_ASSERT_MSG(it != reservoirs_.end(), "unknown reservoir metric");
  return it->second;
}

std::vector<std::string> SummaryAccumulator::scalar_names() const {
  std::vector<std::string> names;
  names.reserve(scalars_.size());
  for (const auto& [name, set] : scalars_) names.push_back(name);
  return names;
}

std::vector<std::string> SummaryAccumulator::sample_names() const {
  std::vector<std::string> names;
  names.reserve(pooled_.size());
  for (const auto& [name, set] : pooled_) names.push_back(name);
  return names;
}

const SampleSet& SummaryAccumulator::scalar(const std::string& name) const {
  const auto it = scalars_.find(name);
  QNETP_ASSERT_MSG(it != scalars_.end(), "unknown scalar metric");
  return it->second;
}

const SampleSet& SummaryAccumulator::pooled(const std::string& name) const {
  const auto it = pooled_.find(name);
  QNETP_ASSERT_MSG(it != pooled_.end(), "unknown sample metric");
  return it->second;
}

ConfidenceInterval SummaryAccumulator::bootstrap_ci(const std::string& name,
                                                    std::size_t resamples,
                                                    double alpha,
                                                    std::uint64_t seed) const {
  // Stable name hash (std::hash is implementation-defined) and sorted
  // samples (SampleSet sorts lazily on quantile queries): the CI must be
  // identical for the same data and seed regardless of platform or which
  // statistics were queried first.
  std::uint64_t name_hash = kFnvOffsetBasis;
  fnv1a(name_hash, name.data(), name.size());
  Rng rng(derive_stream_seed(seed, name_hash));
  std::vector<double> sorted(scalar(name).samples());
  std::sort(sorted.begin(), sorted.end());
  return bootstrap_mean_ci(sorted, resamples, alpha, rng);
}

std::uint64_t SummaryAccumulator::digest() const {
  std::uint64_t h = kFnvOffsetBasis;
  fnv1a(h, &trials_, sizeof trials_);
  for (const auto& [name, set] : scalars_) fnv_set(h, name, set);
  for (const auto& [name, set] : pooled_) fnv_set(h, name, set);
  for (const auto& [name, res] : reservoirs_) {
    fnv1a(h, name.data(), name.size());
    const std::size_t n = res.count();
    fnv1a(h, &n, sizeof n);
    if (!res.empty()) {
      fnv_double(h, res.mean());
      fnv_double(h, res.min());
      fnv_double(h, res.max());
    }
    for (double v : res.sorted_reservoir()) fnv_double(h, v);
  }
  return h;
}

}  // namespace qnetp::exp
