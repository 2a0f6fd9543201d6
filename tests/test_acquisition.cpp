#include "bayesopt/acquisition.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace stormtune::bo {
namespace {

TEST(NormalFunctions, PdfAndCdfBasics) {
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804014327, 1e-12);
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(normal_cdf(-1.959963985), 0.025, 1e-6);
  EXPECT_NEAR(normal_cdf(8.0), 1.0, 1e-12);
  EXPECT_NEAR(normal_cdf(-8.0), 0.0, 1e-12);
}

TEST(ExpectedImprovement, NonNegativeEverywhere) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double ei = expected_improvement(rng.normal(0, 5),
                                           rng.uniform(0.0, 10.0),
                                           rng.normal(0, 5));
    EXPECT_GE(ei, 0.0);
  }
}

TEST(ExpectedImprovement, ZeroVarianceReducesToHinge) {
  EXPECT_DOUBLE_EQ(expected_improvement(5.0, 0.0, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(expected_improvement(2.0, 0.0, 3.0), 0.0);
}

TEST(ExpectedImprovement, MatchesMonteCarlo) {
  // EI closed form vs Monte-Carlo estimate of E[max(0, f - best)].
  Rng rng(2);
  const double mean = 1.0, var = 2.25, best = 1.8;
  const double sd = std::sqrt(var);
  double mc = 0.0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    mc += std::max(0.0, rng.normal(mean, sd) - best);
  }
  mc /= n;
  EXPECT_NEAR(expected_improvement(mean, var, best), mc, 0.01);
}

TEST(ExpectedImprovement, IncreasesWithMean) {
  double prev = expected_improvement(-2.0, 1.0, 0.0);
  for (double m : {-1.0, 0.0, 1.0, 2.0}) {
    const double ei = expected_improvement(m, 1.0, 0.0);
    EXPECT_GT(ei, prev);
    prev = ei;
  }
}

TEST(ExpectedImprovement, IncreasesWithVarianceBelowBest) {
  // When the mean is below the incumbent, only variance creates hope.
  double prev = expected_improvement(-1.0, 0.01, 0.0);
  for (double v : {0.1, 1.0, 4.0, 16.0}) {
    const double ei = expected_improvement(-1.0, v, 0.0);
    EXPECT_GT(ei, prev);
    prev = ei;
  }
}

TEST(ExpectedImprovement, XiShiftsThreshold) {
  const double base = expected_improvement(1.0, 1.0, 0.0, 0.0);
  const double shifted = expected_improvement(1.0, 1.0, 0.0, 0.5);
  EXPECT_LT(shifted, base);
  EXPECT_NEAR(shifted, expected_improvement(1.0, 1.0, 0.5, 0.0), 1e-12);
}

TEST(ExpectedImprovement, RejectsNegativeVariance) {
  EXPECT_THROW(expected_improvement(0.0, -1.0, 0.0), Error);
}

}  // namespace
}  // namespace stormtune::bo
