#include "gp/slice_sampler.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/stats.hpp"

namespace stormtune::testprobe {
// Every operator new, counted by the replacement in test_engine_golden.cpp.
std::size_t new_call_count();
}  // namespace stormtune::testprobe

namespace stormtune::gp {
namespace {

/// One draw from an exact log density f (allowance 0), evaluating f(x0)
/// first; returns the new x.
double sample_exact(const std::function<double(double)>& f, double x0,
                    Rng& rng, const SliceOptions& opts = {}) {
  const LogDensityFn1d density = [&](double x, bool) {
    return LogDensity{f(x)};
  };
  return slice_sample_1d(density, x0, density(x0, true), rng, opts).x;
}

/// One sweep over an exact log density f; returns the final state's f.
double sweep_exact(const std::function<double(const std::vector<double>&)>& f,
                   std::vector<double>& x, Rng& rng,
                   const SliceOptions& opts = {},
                   std::optional<double> ly = std::nullopt) {
  const LogDensityFn density = [&](const std::vector<double>& v, bool) {
    return LogDensity{f(v)};
  };
  std::optional<LogDensity> start;
  if (ly.has_value()) start = LogDensity{*ly};
  return slice_sample_sweep(density, x, rng, opts, start).value;
}

TEST(SliceSampler, SamplesStandardNormal) {
  Rng rng(1);
  auto log_density = [](double x) { return -0.5 * x * x; };
  double x = 0.0;
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    x = sample_exact(log_density, x, rng);
    if (i >= 500) samples.push_back(x);
  }
  const Summary s = summarize(samples);
  EXPECT_NEAR(s.mean, 0.0, 0.1);
  EXPECT_NEAR(s.stddev, 1.0, 0.1);
}

TEST(SliceSampler, SamplesShiftedDistribution) {
  Rng rng(2);
  auto log_density = [](double x) {
    const double z = (x - 5.0) / 2.0;
    return -0.5 * z * z;
  };
  double x = 0.0;
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    x = sample_exact(log_density, x, rng);
    if (i >= 500) samples.push_back(x);
  }
  const Summary s = summarize(samples);
  EXPECT_NEAR(s.mean, 5.0, 0.25);
  EXPECT_NEAR(s.stddev, 2.0, 0.25);
}

TEST(SliceSampler, RespectsHardSupportBounds) {
  Rng rng(3);
  // Uniform on [0, 1]: -inf outside.
  auto log_density = [](double x) {
    return (x >= 0.0 && x <= 1.0)
               ? 0.0
               : -std::numeric_limits<double>::infinity();
  };
  double x = 0.5;
  for (int i = 0; i < 2000; ++i) {
    x = sample_exact(log_density, x, rng);
    ASSERT_GE(x, 0.0);
    ASSERT_LE(x, 1.0);
  }
}

TEST(SliceSampler, NonFiniteStartReturnsUnchanged) {
  Rng rng(4);
  auto log_density = [](double) {
    return -std::numeric_limits<double>::infinity();
  };
  EXPECT_DOUBLE_EQ(sample_exact(log_density, 1.5, rng), 1.5);
}

TEST(SliceSampler, BimodalBothModesVisited) {
  Rng rng(5);
  auto log_density = [](double x) {
    const double a = std::exp(-0.5 * (x - 3.0) * (x - 3.0));
    const double b = std::exp(-0.5 * (x + 3.0) * (x + 3.0));
    return std::log(a + b + 1e-300);
  };
  double x = 0.0;
  int left = 0, right = 0;
  SliceOptions opts;
  opts.width = 4.0;  // wide enough to hop between modes
  for (int i = 0; i < 4000; ++i) {
    x = sample_exact(log_density, x, rng, opts);
    if (i >= 200) (x < 0.0 ? left : right)++;
  }
  EXPECT_GT(left, 300);
  EXPECT_GT(right, 300);
}

TEST(SliceSweep, MultivariateGaussianMoments) {
  Rng rng(6);
  // Independent N(1, 1) and N(-2, 0.5^2).
  auto log_density = [](const std::vector<double>& x) {
    const double z0 = x[0] - 1.0;
    const double z1 = (x[1] + 2.0) / 0.5;
    return -0.5 * (z0 * z0 + z1 * z1);
  };
  std::vector<double> x{0.0, 0.0};
  std::vector<double> s0, s1;
  for (int i = 0; i < 4000; ++i) {
    sweep_exact(log_density, x, rng);
    if (i >= 400) {
      s0.push_back(x[0]);
      s1.push_back(x[1]);
    }
  }
  EXPECT_NEAR(mean(s0), 1.0, 0.15);
  EXPECT_NEAR(mean(s1), -2.0, 0.1);
  EXPECT_NEAR(summarize(s1).stddev, 0.5, 0.1);
}

// The sweep hands each draw's log density to the next coordinate instead of
// re-evaluating the unchanged state: the chain must be the one the
// re-evaluating sweep produces, with exactly one evaluation fewer per
// coordinate once the log density carries across sweeps.
TEST(SliceSweep, CarriedLogDensitySavesOneEvaluationPerCoordinate) {
  std::size_t evals = 0;
  auto log_density = [&evals](const std::vector<double>& x) {
    ++evals;
    const double z0 = x[0] - 1.0;
    const double z1 = (x[1] + 2.0) / 0.5;
    const double z2 = x[2] * x[0];
    return -0.5 * (z0 * z0 + z1 * z1 + z2 * z2);
  };
  const std::size_t dims = 3, sweeps = 50;
  SliceOptions opts;
  opts.width = 0.7;

  // Re-evaluating reference: every coordinate starts from log_density(x).
  Rng ref_rng(8);
  std::vector<double> ref_x(dims, 0.25);
  std::vector<std::vector<double>> ref_chain;
  evals = 0;
  for (std::size_t s = 0; s < sweeps; ++s) {
    for (std::size_t i = 0; i < dims; ++i) {
      auto conditional = [&](double xi) {
        const double saved = ref_x[i];
        ref_x[i] = xi;
        const double v = log_density(ref_x);
        ref_x[i] = saved;
        return v;
      };
      ref_x[i] = sample_exact(conditional, ref_x[i], ref_rng, opts);
    }
    ref_chain.push_back(ref_x);
  }
  const std::size_t ref_evals = evals;

  Rng rng(8);
  std::vector<double> x(dims, 0.25);
  std::optional<double> ly;
  evals = 0;
  for (std::size_t s = 0; s < sweeps; ++s) {
    ly = sweep_exact(log_density, x, rng, opts, ly);
    ASSERT_EQ(x, ref_chain[s]) << "sweep " << s;
    ASSERT_EQ(*ly, log_density(x)) << "sweep " << s;
    --evals;  // the check above is not the sampler's
  }
  // One evaluation to start the chain, then none per coordinate start.
  EXPECT_EQ(evals + dims * sweeps - 1, ref_evals);
}

// The sweep hands each coordinate's conditional to the 1-D draw through a
// std::function that holds one pointer, so a sweep over an estimated
// density allocates nothing.
TEST(SliceSweep, AllocatesNothing) {
  if constexpr (kCheckedBuild) {
    GTEST_SKIP() << "zero-allocation guarantee applies to release builds";
  }
  const LogDensityFn log_density = [](const std::vector<double>& x, bool) {
    double s = 0.0;
    for (const double xi : x) s -= 0.5 * xi * xi;
    return LogDensity{s, 1e-3};
  };
  Rng rng(11);
  std::vector<double> x(4, 0.1);
  std::optional<LogDensity> ly = slice_sample_sweep(log_density, x, rng);
  const std::size_t news_before = testprobe::new_call_count();
  for (int sweep = 0; sweep < 20; ++sweep) {
    ly = slice_sample_sweep(log_density, x, rng, {}, ly);
  }
  EXPECT_EQ(testprobe::new_call_count() - news_before, 0u);
}

TEST(SliceSweep, PreservesVectorSize) {
  Rng rng(7);
  auto log_density = [](const std::vector<double>& x) {
    double s = 0.0;
    for (double xi : x) s -= 0.5 * xi * xi;
    return s;
  };
  std::vector<double> x(5, 0.0);
  sweep_exact(log_density, x, rng);
  EXPECT_EQ(x.size(), 5u);
}

TEST(CertainlyGreater, DecidesOnlyOutsideTheAllowances) {
  const auto greater = [](double a, double a_allowance, double b,
                          double b_allowance) {
    return certainly_greater(LogDensity{a, a_allowance},
                             LogDensity{b, b_allowance});
  };
  // Exact values compare as plain doubles, ties included.
  EXPECT_EQ(greater(1.0, 0.0, 0.5, 0.0), true);
  EXPECT_EQ(greater(0.5, 0.0, 0.5, 0.0), false);
  EXPECT_EQ(greater(-1.0, 0.0, 0.5, 0.0), false);
  // A margin inside the allowances is a near tie.
  EXPECT_EQ(greater(1.0, 0.3, 0.5, 0.3), std::nullopt);
  EXPECT_EQ(greater(1.0, 0.2, 0.5, 0.2), true);
  EXPECT_EQ(greater(0.5, 0.2, 1.0, 0.2), false);
  EXPECT_EQ(greater(0.5, 1e-300, 0.5, 0.0), std::nullopt);
  // -inf from an exact evaluation decides against any finite estimate.
  const double ninf = -std::numeric_limits<double>::infinity();
  EXPECT_EQ(greater(ninf, 0.0, 0.5, 0.1), false);
  EXPECT_EQ(greater(0.5, 0.1, ninf, 0.0), true);
  EXPECT_EQ(greater(std::nan(""), 0.1, 0.5, 0.0), std::nullopt);
}

// A density that answers with its exact value moved by nearly its whole
// allowance, up or down by a hash of x, so about half of the moves point at
// the wrong side of the slice level. The chain must still be the exact
// density's, bit for bit, with the near ties resolved through exact
// evaluations.
TEST(SliceSweep, EstimatedDensityGivesTheExactChain) {
  auto exact = [](const std::vector<double>& x) {
    const double z0 = x[0] - 1.0;
    const double z1 = (x[1] + 0.5 * x[0]) / 0.7;
    return -0.5 * (z0 * z0 + z1 * z1);
  };
  std::size_t exact_calls = 0, estimates = 0;
  const LogDensityFn misleading = [&](const std::vector<double>& x,
                                      bool want_exact) -> LogDensity {
    const double v = exact(x);
    if (want_exact) {
      ++exact_calls;
      return {v};
    }
    ++estimates;
    const std::uint64_t h =
        (std::bit_cast<std::uint64_t>(x[0]) * 0x9E3779B97F4A7C15ULL) ^
        std::bit_cast<std::uint64_t>(x[1]);
    const double allowance =
        0.02 + 0.5 * static_cast<double>(h >> 11) * 0x1p-53;
    const double move = 0.999 * allowance;
    return {(h >> 7) % 2 == 0 ? v + move : v - move, allowance};
  };
  SliceOptions opts;
  opts.width = 0.7;
  for (std::uint64_t seed = 1; seed <= 256; ++seed) {
    Rng ref_rng(seed), rng(seed);
    std::vector<double> ref_x{0.3, -0.2}, x = ref_x;
    std::optional<double> ref_ly;
    std::optional<LogDensity> ly;
    for (int sweep = 0; sweep < 6; ++sweep) {
      ref_ly = sweep_exact(exact, ref_x, ref_rng, opts, ref_ly);
      ly = slice_sample_sweep(misleading, x, rng, opts, ly);
      ASSERT_EQ(x, ref_x) << "seed " << seed << ", sweep " << sweep;
      ASSERT_LE(std::fabs(ly->value - *ref_ly), ly->allowance)
          << "seed " << seed << ", sweep " << sweep;
    }
    // Both chains drew the same random numbers.
    ASSERT_EQ(rng.uniform(), ref_rng.uniform()) << "seed " << seed;
  }
  // Most comparisons were decided from the estimates; a real share needed
  // the exact values. (Checked builds also re-derive every decision the
  // estimates made from exact values.)
  EXPECT_GT(exact_calls, estimates / 50);
  if (!kCheckedBuild) {
    EXPECT_LT(exact_calls, estimates);
  }
}

}  // namespace
}  // namespace stormtune::gp
