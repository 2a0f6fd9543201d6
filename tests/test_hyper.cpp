#include "gp/hyper.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace stormtune::gp {
namespace {

Matrix make_x(const std::vector<double>& xs) {
  Matrix x(xs.size(), 1);
  for (std::size_t i = 0; i < xs.size(); ++i) x(i, 0) = xs[i];
  return x;
}

// Noisy observations of a smooth function on [0, 1].
struct Dataset {
  Matrix x;
  Vector y;
};

Dataset smooth_dataset(std::size_t n, double noise_sd, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = static_cast<double>(i) / static_cast<double>(n - 1);
    y[i] = std::sin(6.0 * xs[i]) + rng.normal(0.0, noise_sd);
  }
  return Dataset{make_x(xs), y};
}

TEST(HyperPrior, LogDensityFiniteAndPeaked) {
  HyperPrior prior;
  const std::vector<double> at_mean{prior.log_amplitude_mean,
                                    prior.log_lengthscale_mean,
                                    prior.log_noise_std_mean,
                                    prior.mean_mean};
  const std::vector<double> off{prior.log_amplitude_mean + 3.0,
                                prior.log_lengthscale_mean,
                                prior.log_noise_std_mean, prior.mean_mean};
  EXPECT_GT(prior.log_density(at_mean, 1), prior.log_density(off, 1));
}

TEST(HyperPrior, RejectsWrongLayout) {
  HyperPrior prior;
  const std::vector<double> theta{0.0, 0.0, 0.0};
  EXPECT_THROW(prior.log_density(theta, 3), Error);
}

TEST(ApplyHyperparams, SetsAllComponents) {
  Kernel k(KernelFamily::kMatern52, 1, false);
  GpRegressor gp(k, 0.1);
  const Dataset d = smooth_dataset(10, 0.1, 1);
  const std::vector<double> theta{std::log(2.0), std::log(0.3),
                                  std::log(0.05), 0.7};
  apply_hyperparams(gp, theta, d.x, d.y);
  EXPECT_NEAR(gp.kernel().amplitude(), 2.0, 1e-12);
  EXPECT_NEAR(gp.kernel().lengthscales()[0], 0.3, 1e-12);
  EXPECT_NEAR(gp.noise_variance(), 0.0025, 1e-12);
  EXPECT_NEAR(gp.mean_value(), 0.7, 1e-12);
  EXPECT_TRUE(gp.fitted());
}

TEST(ApplyHyperparams, NoiseRatioDiagScalesWithSampledNoise) {
  // Mixed-fidelity composition: the per-observation diagonal is the sampled
  // scalar sigma_n^2 times each observation's fixed rung ratio.
  Kernel k(KernelFamily::kMatern52, 1, false);
  GpRegressor gp(k, 0.1);
  const Dataset d = smooth_dataset(6, 0.1, 11);
  const std::vector<double> theta{std::log(2.0), std::log(0.3),
                                  std::log(0.05), 0.0};
  const std::vector<double> ratios{4.0, 1.0, 4.0, 1.0, 1.0, 4.0};
  apply_hyperparams(gp, theta, d.x, d.y, ratios);
  ASSERT_EQ(gp.noise_diag().size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(gp.noise_diag()[i], 0.0025 * ratios[i], 1e-15);
  }
  EXPECT_TRUE(gp.fitted());
  EXPECT_TRUE(std::isfinite(gp.log_marginal_likelihood()));
  EXPECT_THROW(
      apply_hyperparams(gp, theta, d.x, d.y, std::vector<double>{1.0}),
      Error);  // one ratio per observation
}

TEST(HyperLogPosterior, FiniteForReasonableTheta) {
  Kernel k(KernelFamily::kMatern52, 1, false);
  GpRegressor gp(k, 0.1);
  const Dataset d = smooth_dataset(12, 0.1, 2);
  HyperPrior prior;
  const std::vector<double> theta{0.0, -1.0, -2.3, 0.0};
  EXPECT_TRUE(std::isfinite(
      hyper_log_posterior(gp, theta, d.x, d.y, prior)));
}

TEST(HyperLogPosterior, RejectsAbsurdTheta) {
  Kernel k(KernelFamily::kMatern52, 1, false);
  GpRegressor gp(k, 0.1);
  const Dataset d = smooth_dataset(8, 0.1, 3);
  HyperPrior prior;
  const std::vector<double> theta{50.0, -1.0, -2.3, 0.0};  // |log amp| > 20
  EXPECT_EQ(hyper_log_posterior(gp, theta, d.x, d.y, prior),
            -std::numeric_limits<double>::infinity());
}

TEST(SampleHyperparams, ReturnsRequestedCount) {
  Kernel k(KernelFamily::kMatern52, 1, false);
  GpRegressor gp(k, 0.1);
  const Dataset d = smooth_dataset(15, 0.1, 4);
  Rng rng(5);
  HyperSamplerOptions opts;
  opts.num_samples = 4;
  opts.burn_in = 5;
  opts.thin = 1;
  const auto samples = sample_hyperparams(gp, d.x, d.y, opts, rng);
  ASSERT_EQ(samples.size(), 4u);
  for (const auto& s : samples) {
    EXPECT_EQ(s.theta.size(), 4u);  // amp + 1 lengthscale + noise + mean
    for (double t : s.theta) EXPECT_TRUE(std::isfinite(t));
  }
  EXPECT_TRUE(gp.fitted());  // left fitted with the last sample
}

TEST(SampleHyperparams, WarmStartResumesFromInitialTheta) {
  Kernel k(KernelFamily::kMatern52, 1, false);
  GpRegressor gp(k, 0.1);
  const Dataset d = smooth_dataset(15, 0.1, 4);
  // A warm chain with zero burn-in and the same RNG stream must reproduce
  // the post-burn-in samples of a cold chain resumed at the same state:
  // the warm start replaces only the initial theta, not the sweep logic.
  Rng cold_rng(9);
  HyperSamplerOptions cold;
  cold.num_samples = 1;
  cold.burn_in = 6;
  cold.thin = 1;
  const auto first = sample_hyperparams(gp, d.x, d.y, cold, cold_rng);
  HyperSamplerOptions warm;
  warm.num_samples = 2;
  warm.burn_in = 0;
  warm.thin = 1;
  warm.initial_theta = first.back().theta;
  const auto resumed = sample_hyperparams(gp, d.x, d.y, warm, cold_rng);
  ASSERT_EQ(resumed.size(), 2u);
  for (const auto& s : resumed) {
    EXPECT_EQ(s.theta.size(), 4u);
    for (double t : s.theta) EXPECT_TRUE(std::isfinite(t));
  }
  HyperSamplerOptions bad = warm;
  bad.initial_theta = {0.0, 0.0};  // wrong layout
  Rng rng2(10);
  EXPECT_THROW(sample_hyperparams(gp, d.x, d.y, bad, rng2), Error);
}

TEST(SampleHyperparams, SamplesVaryAcrossChain) {
  Kernel k(KernelFamily::kSquaredExponential, 1, false);
  GpRegressor gp(k, 0.1);
  const Dataset d = smooth_dataset(15, 0.2, 6);
  Rng rng(7);
  HyperSamplerOptions opts;
  opts.num_samples = 6;
  opts.burn_in = 5;
  const auto samples = sample_hyperparams(gp, d.x, d.y, opts, rng);
  bool any_different = false;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    if (samples[i].theta != samples[0].theta) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(FitHyperparamsMle, ImprovesPosteriorOverStart) {
  Kernel k(KernelFamily::kMatern52, 1, false);
  // Deliberately bad starting hyperparameters.
  k.set_lengthscales({10.0});
  k.set_amplitude(0.01);
  GpRegressor gp(k, 1.0);
  const Dataset d = smooth_dataset(20, 0.05, 8);
  HyperPrior prior;
  gp.fit(d.x, d.y);
  std::vector<double> start = gp.kernel().hyperparams();
  start.push_back(0.0);  // log noise sd = 0 (sd 1, way too noisy)
  start.push_back(0.0);
  const double start_post = hyper_log_posterior(gp, start, d.x, d.y, prior);

  Kernel k2(KernelFamily::kMatern52, 1, false);
  k2.set_lengthscales({10.0});
  k2.set_amplitude(0.01);
  GpRegressor gp2(k2, 1.0);
  Rng rng(9);
  MleOptions opts;
  const HyperSample best = fit_hyperparams_mle(gp2, d.x, d.y, opts, rng);
  const double end_post =
      hyper_log_posterior(gp2, best.theta, d.x, d.y, prior);
  EXPECT_GT(end_post, start_post);
}

// Every restart starts from the regressor's hyperparameters on entry, not
// from wherever the previous restart stopped: with no coordinate passes,
// the result is the best of the start and of the start moved by each later
// restart's normals, drawn in order from a copy of the Rng.
TEST(FitHyperparamsMle, RestartsStartFromTheEntryHyperparameters) {
  const Dataset d = smooth_dataset(20, 0.05, 8);
  const Kernel k(KernelFamily::kMatern52, 1, false);
  MleOptions opts;
  opts.restarts = 5;
  opts.iterations = 0;
  Rng rng(21);
  Rng draws = rng;

  GpRegressor probe(k, 0.1);
  std::vector<double> start = probe.kernel().hyperparams();
  start.push_back(0.5 * std::log(probe.noise_variance()));
  start.push_back(probe.mean_value());
  std::vector<double> expected = start;
  double expected_post =
      hyper_log_posterior(probe, start, d.x, d.y, opts.prior);
  for (int restart = 1; restart < opts.restarts; ++restart) {
    std::vector<double> theta = start;
    for (double& t : theta) t += draws.normal(0.0, 1.0);
    const double post = hyper_log_posterior(probe, theta, d.x, d.y, opts.prior);
    if (post > expected_post) {
      expected_post = post;
      expected = theta;
    }
  }

  GpRegressor gp(k, 0.1);
  EXPECT_EQ(fit_hyperparams_mle(gp, d.x, d.y, opts, rng).theta, expected);
}

TEST(FitHyperparamsMle, RecoversReasonableNoiseLevel) {
  Kernel k(KernelFamily::kSquaredExponential, 1, false);
  GpRegressor gp(k, 0.5);
  const Dataset d = smooth_dataset(40, 0.1, 10);
  Rng rng(11);
  MleOptions opts;
  opts.restarts = 2;
  fit_hyperparams_mle(gp, d.x, d.y, opts, rng);
  // True noise sd 0.1; fitted value should land within an order of
  // magnitude (the prior shrinks slightly).
  const double fitted_sd = std::sqrt(gp.noise_variance());
  EXPECT_GT(fitted_sd, 0.01);
  EXPECT_LT(fitted_sd, 1.0);
}

}  // namespace
}  // namespace stormtune::gp
