#include "qbase/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace qnetp {
namespace {

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stderr_mean(), 0.0);
}

TEST(RunningStats, EmptyAsserts) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.mean(), AssertionError);
  EXPECT_THROW(s.min(), AssertionError);
}

TEST(SampleSet, QuantilesExact) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(s.quantile(0.95), 95.05, 1e-9);
}

TEST(SampleSet, QuantileSingleSample) {
  SampleSet s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 42.0);
}

TEST(SampleSet, CdfAt) {
  SampleSet s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.cdf_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.cdf_at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(s.cdf_at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(s.cdf_at(10.0), 1.0);
}

TEST(SampleSet, CdfPointsMonotonic) {
  SampleSet s;
  for (int i = 0; i < 57; ++i) s.add(static_cast<double>((i * 37) % 101));
  const auto pts = s.cdf_points(20);
  ASSERT_EQ(pts.size(), 20u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].first, pts[i - 1].first);
    EXPECT_GE(pts[i].second, pts[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
}

TEST(SampleSet, InterleavedAddAndQuery) {
  SampleSet s;
  s.add(3.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  s.add(0.5);  // add after a sorted query must re-sort
  EXPECT_DOUBLE_EQ(s.min(), 0.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(SampleSet, MedianOfOddAndEvenCounts) {
  SampleSet s;
  for (double x : {5.0, 1.0, 3.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);  // the middle sample
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);  // midpoint of the middle two
  EXPECT_EQ(s.median(), s.quantile(0.5));
}

TEST(SampleSet, MedianOfTwoExtremeValuesDoesNotOverflow) {
  // The interpolation weighs each neighbour by one half instead of
  // halving their sum, so the midpoint of two huge values stays finite.
  const double big = std::numeric_limits<double>::max();
  SampleSet s;
  s.add(big);
  s.add(big);
  EXPECT_EQ(s.median(), big);
  SampleSet opposite;
  opposite.add(-big);
  opposite.add(big);
  EXPECT_EQ(opposite.median(), 0.0);
}

TEST(SampleSet, EmptySetOrOutOfRangeQuantileAsserts) {
  SampleSet s;
  EXPECT_THROW(s.median(), AssertionError);
  EXPECT_THROW(s.mean(), AssertionError);
  s.add(1.0);
  EXPECT_THROW(s.quantile(-0.1), AssertionError);
  EXPECT_THROW(s.quantile(1.5), AssertionError);
  EXPECT_DOUBLE_EQ(s.cdf_at(1.0), 1.0);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.cdf_at(1.0), 0.0);  // the empty CDF is zero everywhere
}

TEST(ReservoirSampler, BelowCapacityKeepsEveryValue) {
  ReservoirSampler r(100);
  SampleSet exact;
  for (int i = 0; i < 50; ++i) {
    const double x = static_cast<double>((i * 37) % 50);
    r.add(x);
    exact.add(x);
  }
  EXPECT_EQ(r.count(), 50u);
  EXPECT_EQ(r.retained(), 50u);
  std::vector<double> sorted = exact.samples();
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(r.sorted_reservoir(), sorted);
  for (double q : {0.0, 0.1, 0.5, 0.95, 1.0}) {
    EXPECT_EQ(r.quantile(q), exact.quantile(q)) << "q=" << q;
  }
}

TEST(ReservoirSampler, RetentionIsBoundedAndMomentsStayExact) {
  ReservoirSampler r(64);
  for (int i = 0; i < 10000; ++i) r.add(static_cast<double>(i));
  EXPECT_EQ(r.capacity(), 64u);
  EXPECT_EQ(r.retained(), 64u);
  // count/mean/min/max come from every value offered, not the subset.
  EXPECT_EQ(r.count(), 10000u);
  EXPECT_DOUBLE_EQ(r.mean(), 4999.5);
  EXPECT_DOUBLE_EQ(r.min(), 0.0);
  EXPECT_DOUBLE_EQ(r.max(), 9999.0);
  // The reservoir holds distinct offered values (each index once).
  const auto kept = r.sorted_reservoir();
  EXPECT_EQ(std::adjacent_find(kept.begin(), kept.end()), kept.end());
  for (double x : kept) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 9999.0);
    EXPECT_EQ(x, std::floor(x));
  }
}

TEST(ReservoirSampler, SameSeedSameReservoir) {
  ReservoirSampler a(32, 7);
  ReservoirSampler b(32, 7);
  ReservoirSampler other(32, 8);
  for (int i = 0; i < 5000; ++i) {
    a.add(static_cast<double>(i));
    b.add(static_cast<double>(i));
    other.add(static_cast<double>(i));
  }
  EXPECT_EQ(a.sorted_reservoir(), b.sorted_reservoir());
  EXPECT_NE(a.sorted_reservoir(), other.sorted_reservoir());
}

TEST(ReservoirSampler, QuantilesEstimateTheWholeStream) {
  // A uniform subset of 200k uniform draws: the estimated quantiles sit
  // within a few standard errors (about 0.008 at 4096 retained) of the
  // true ones.
  ReservoirSampler r;
  Rng gen(21);
  for (int i = 0; i < 200000; ++i) r.add(gen.uniform());
  EXPECT_EQ(r.retained(), r.capacity());
  EXPECT_NEAR(r.quantile(0.1), 0.1, 0.03);
  EXPECT_NEAR(r.quantile(0.5), 0.5, 0.03);
  EXPECT_NEAR(r.quantile(0.9), 0.9, 0.03);
}

TEST(ReservoirSampler, ZeroCapacityOrEmptyQuantileAsserts) {
  EXPECT_THROW(ReservoirSampler(0), AssertionError);
  ReservoirSampler r(8);
  EXPECT_TRUE(r.empty());
  EXPECT_THROW(r.quantile(0.5), AssertionError);
  r.add(2.0);
  EXPECT_THROW(r.quantile(1.5), AssertionError);
  EXPECT_DOUBLE_EQ(r.quantile(0.5), 2.0);
}

TEST(BootstrapCi, ContainsMeanAndIsDeterministic) {
  std::vector<double> samples;
  Rng gen(404);
  for (int i = 0; i < 40; ++i) samples.push_back(gen.normal(10.0, 2.0));
  double mean = 0.0;
  for (double x : samples) mean += x;
  mean /= static_cast<double>(samples.size());

  Rng rng_a(1), rng_b(1);
  const auto ci_a = bootstrap_mean_ci(samples, 1000, 0.05, rng_a);
  const auto ci_b = bootstrap_mean_ci(samples, 1000, 0.05, rng_b);
  EXPECT_DOUBLE_EQ(ci_a.lo, ci_b.lo);  // deterministic given the rng
  EXPECT_DOUBLE_EQ(ci_a.hi, ci_b.hi);
  EXPECT_TRUE(ci_a.contains(mean));
  EXPECT_GT(ci_a.width(), 0.0);
  // The 95% CI of the mean of 40 N(10,2) samples is well inside +-2.
  EXPECT_GT(ci_a.lo, 8.0);
  EXPECT_LT(ci_a.hi, 12.0);
}

TEST(BootstrapCi, NarrowsWithMoreSamples) {
  Rng gen(405);
  std::vector<double> small, large;
  for (int i = 0; i < 20; ++i) small.push_back(gen.normal(0.0, 1.0));
  for (int i = 0; i < 2000; ++i) large.push_back(gen.normal(0.0, 1.0));
  Rng rng_a(2), rng_b(2);
  const auto wide = bootstrap_mean_ci(small, 500, 0.05, rng_a);
  const auto narrow = bootstrap_mean_ci(large, 500, 0.05, rng_b);
  EXPECT_LT(narrow.width(), wide.width());
}

TEST(BootstrapCi, DegenerateSampleSet) {
  const std::vector<double> constant(10, 3.25);
  Rng rng(3);
  const auto ci = bootstrap_mean_ci(constant, 200, 0.05, rng);
  EXPECT_DOUBLE_EQ(ci.lo, 3.25);
  EXPECT_DOUBLE_EQ(ci.hi, 3.25);
}

}  // namespace
}  // namespace qnetp
