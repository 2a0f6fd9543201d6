#include "gp/gp_regressor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/isa.hpp"
#include "common/rng.hpp"
#include "gp/hyper.hpp"
#include "gp/kernel.hpp"
#include "linalg/kernels.hpp"

namespace stormtune::testprobe {
// Every operator new, counted by the replacement in test_engine_golden.cpp.
std::size_t new_call_count();
}  // namespace stormtune::testprobe

namespace stormtune::gp {
namespace {

TEST(Kernel, VarianceAtZeroDistance) {
  for (auto family :
       {KernelFamily::kSquaredExponential, KernelFamily::kMatern52}) {
    Kernel k(family, 3, /*ard=*/false);
    k.set_amplitude(2.0);
    const std::vector<double> x{0.5, -1.0, 2.0};
    EXPECT_NEAR(k(x, x), 4.0, 1e-12);
    EXPECT_NEAR(k.variance(), 4.0, 1e-12);
  }
}

TEST(Kernel, DecaysWithDistance) {
  for (auto family :
       {KernelFamily::kSquaredExponential, KernelFamily::kMatern52}) {
    Kernel k(family, 1, false);
    const std::vector<double> origin{0.0};
    double prev = k(origin, origin);
    for (double d : {0.5, 1.0, 2.0, 4.0}) {
      const std::vector<double> x{d};
      const double v = k(origin, x);
      EXPECT_LT(v, prev);
      EXPECT_GT(v, 0.0);
      prev = v;
    }
  }
}

TEST(Kernel, Symmetry) {
  Kernel k(KernelFamily::kMatern52, 2, true);
  k.set_lengthscales({0.5, 2.0});
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{-0.5, 3.0};
  EXPECT_DOUBLE_EQ(k(a, b), k(b, a));
}

TEST(Kernel, ArdLengthscalesWeightDimensions) {
  Kernel k(KernelFamily::kSquaredExponential, 2, true);
  k.set_lengthscales({0.1, 10.0});
  const std::vector<double> origin{0.0, 0.0};
  const std::vector<double> dx{1.0, 0.0};  // short lengthscale: decays fast
  const std::vector<double> dy{0.0, 1.0};  // long lengthscale: decays slowly
  EXPECT_LT(k(origin, dx), k(origin, dy));
}

TEST(Kernel, HyperparamRoundTrip) {
  Kernel k(KernelFamily::kMatern52, 3, true);
  const std::vector<double> logs{std::log(2.0), std::log(0.5), std::log(1.5),
                                 std::log(3.0)};
  k.set_hyperparams(logs);
  EXPECT_NEAR(k.amplitude(), 2.0, 1e-12);
  EXPECT_NEAR(k.lengthscales()[0], 0.5, 1e-12);
  const auto back = k.hyperparams();
  ASSERT_EQ(back.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(back[i], logs[i], 1e-12);
}

TEST(Kernel, IsotropicHasSingleLengthscale) {
  Kernel k(KernelFamily::kMatern52, 5, false);
  EXPECT_EQ(k.num_hyperparams(), 2u);
  Kernel ka(KernelFamily::kMatern52, 5, true);
  EXPECT_EQ(ka.num_hyperparams(), 6u);
}

TEST(Kernel, Matern52MatchesClosedForm) {
  Kernel k(KernelFamily::kMatern52, 1, false);
  const std::vector<double> a{0.0}, b{1.0};
  const double r = 1.0;
  const double sr = std::sqrt(5.0) * r;
  const double expected = (1.0 + sr + sr * sr / 3.0) * std::exp(-sr);
  EXPECT_NEAR(k(a, b), expected, 1e-14);
}

TEST(Kernel, RejectsInvalidSettings) {
  Kernel k(KernelFamily::kSquaredExponential, 2, false);
  EXPECT_THROW(k.set_amplitude(0.0), Error);
  EXPECT_THROW(k.set_lengthscales({1.0, 2.0}), Error);  // iso wants 1
  EXPECT_THROW(k.set_lengthscales({-1.0}), Error);
  const std::vector<double> a{1.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW(k(a, b), Error);
}

class GpFit : public ::testing::Test {
 protected:
  static Matrix make_x(const std::vector<double>& xs) {
    Matrix x(xs.size(), 1);
    for (std::size_t i = 0; i < xs.size(); ++i) x(i, 0) = xs[i];
    return x;
  }
};

TEST_F(GpFit, InterpolatesNoiseFreeData) {
  Kernel k(KernelFamily::kSquaredExponential, 1, false);
  k.set_lengthscales({1.0});
  GpRegressor gp(k, /*noise_variance=*/0.0);
  const std::vector<double> xs{-2.0, -1.0, 0.0, 1.0, 2.0};
  Vector y(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) y[i] = std::sin(xs[i]);
  gp.fit(make_x(xs), y);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const Prediction p = gp.predict(std::vector<double>{xs[i]});
    EXPECT_NEAR(p.mean, y[i], 1e-5);
    EXPECT_NEAR(p.variance, 0.0, 1e-5);
  }
}

TEST_F(GpFit, VarianceGrowsAwayFromData) {
  Kernel k(KernelFamily::kMatern52, 1, false);
  GpRegressor gp(k, 1e-6);
  gp.fit(make_x({0.0, 1.0}), Vector{0.0, 1.0});
  const double v_near = gp.predict(std::vector<double>{0.5}).variance;
  const double v_far = gp.predict(std::vector<double>{10.0}).variance;
  EXPECT_LT(v_near, v_far);
  // Far from data the variance approaches the prior amplitude^2.
  EXPECT_NEAR(v_far, 1.0, 1e-3);
}

TEST_F(GpFit, MeanRevertsToPriorFarAway) {
  Kernel k(KernelFamily::kSquaredExponential, 1, false);
  GpRegressor gp(k, 1e-6, /*mean_value=*/5.0);
  gp.fit(make_x({0.0}), Vector{7.0});
  EXPECT_NEAR(gp.predict(std::vector<double>{100.0}).mean, 5.0, 1e-6);
  EXPECT_NEAR(gp.predict(std::vector<double>{0.0}).mean, 7.0, 1e-3);
}

TEST_F(GpFit, NoiseSmoothsInterpolation) {
  Kernel k(KernelFamily::kSquaredExponential, 1, false);
  GpRegressor noisy(k, 1.0);
  GpRegressor exact(k, 1e-8);
  const Matrix x = make_x({0.0});
  const Vector y{2.0};
  noisy.fit(x, y);
  exact.fit(x, y);
  // With large noise the posterior mean shrinks toward the prior mean 0.
  EXPECT_LT(noisy.predict(std::vector<double>{0.0}).mean,
            exact.predict(std::vector<double>{0.0}).mean);
}

TEST_F(GpFit, LogMarginalLikelihoodPrefersTruthfulNoise) {
  // Data from a noisy sine; LML should prefer a plausible noise level over
  // an absurd one.
  Rng rng(6);
  std::vector<double> xs;
  Vector y;
  for (int i = 0; i < 20; ++i) {
    const double x = -3.0 + 0.3 * i;
    xs.push_back(x);
    y.push_back(std::sin(x) + rng.normal(0.0, 0.1));
  }
  Kernel k(KernelFamily::kSquaredExponential, 1, false);
  GpRegressor good(k, 0.01);   // sd 0.1 — the truth
  GpRegressor bad(k, 100.0);   // sd 10 — absurd
  good.fit(make_x(xs), y);
  bad.fit(make_x(xs), y);
  EXPECT_GT(good.log_marginal_likelihood(), bad.log_marginal_likelihood());
}

TEST_F(GpFit, PredictBeforeFitThrows) {
  Kernel k(KernelFamily::kSquaredExponential, 1, false);
  GpRegressor gp(k, 0.1);
  EXPECT_THROW(gp.predict(std::vector<double>{0.0}), Error);
  EXPECT_THROW(gp.log_marginal_likelihood(), Error);
}

TEST_F(GpFit, DimensionMismatchThrows) {
  Kernel k(KernelFamily::kSquaredExponential, 2, false);
  GpRegressor gp(k, 0.1);
  EXPECT_THROW(gp.fit(Matrix(3, 1), Vector(3, 0.0)), Error);
  EXPECT_THROW(gp.fit(Matrix(3, 2), Vector(2, 0.0)), Error);
}

TEST_F(GpFit, DuplicatedInputsHandledViaJitter) {
  // Identical rows make the noise-free kernel matrix singular; the jitter
  // escalation must still produce a usable fit.
  Kernel k(KernelFamily::kSquaredExponential, 1, false);
  GpRegressor gp(k, 0.0);
  Matrix x(3, 1);
  x(0, 0) = 1.0;
  x(1, 0) = 1.0;
  x(2, 0) = 2.0;
  gp.fit(x, Vector{3.0, 3.0, 5.0});
  const Prediction p = gp.predict(std::vector<double>{1.0});
  EXPECT_NEAR(p.mean, 3.0, 0.1);
}

TEST_F(GpFit, MutatorsInvalidateFit) {
  Kernel k(KernelFamily::kSquaredExponential, 1, false);
  GpRegressor gp(k, 0.1);
  gp.fit(make_x({0.0, 1.0}), Vector{0.0, 1.0});
  EXPECT_TRUE(gp.fitted());
  gp.set_noise_variance(0.2);
  EXPECT_FALSE(gp.fitted());
}

// Property sweep: posterior variance is non-negative for every kernel
// family, ARD setting, and dataset size.
class GpVarianceSweep
    : public ::testing::TestWithParam<std::tuple<KernelFamily, bool, int>> {};

TEST_P(GpVarianceSweep, PosteriorVarianceNonNegative) {
  const auto [family, ard, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 31 + (ard ? 7 : 0));
  Kernel k(family, 3, ard);
  GpRegressor gp(k, 1e-4);
  Matrix x(n, 3);
  Vector y(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < 3; ++j) x(i, j) = rng.uniform();
    y[i] = rng.normal();
  }
  gp.fit(x, y);
  for (int t = 0; t < 50; ++t) {
    std::vector<double> q{rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 2.0),
                          rng.uniform(-1.0, 2.0)};
    const Prediction p = gp.predict(q);
    EXPECT_GE(p.variance, 0.0);
    EXPECT_TRUE(std::isfinite(p.mean));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, GpVarianceSweep,
    ::testing::Combine(::testing::Values(KernelFamily::kSquaredExponential,
                                         KernelFamily::kMatern52),
                       ::testing::Bool(), ::testing::Values(2, 10, 40)));

// The layered distance/correlation/Cholesky caches must be invisible: a
// regressor refit through the warm path (mutate hyperparameters, fit again
// on the same X) has to agree with a cold regressor constructed directly
// with the final hyperparameters, for every kernel family and ARD setting.
class GpCacheSweep
    : public ::testing::TestWithParam<std::tuple<KernelFamily, bool>> {};

TEST_P(GpCacheSweep, WarmRefitMatchesColdFit) {
  const auto [family, ard] = GetParam();
  constexpr std::size_t kN = 25;
  constexpr std::size_t kD = 4;
  Rng rng(static_cast<std::uint64_t>(ard ? 11 : 5));
  Matrix x(kN, kD);
  Vector y(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < kD; ++j) x(i, j) = rng.uniform();
    y[i] = rng.normal();
  }

  Kernel k(family, kD, ard);
  GpRegressor warm(k, 1e-3);
  warm.fit(x, y);  // builds the caches with the default hyperparameters

  // Walk through several hyperparameter settings, as the slice sampler's
  // coordinate sweeps do, ending at a final one.
  std::vector<double> log_params(k.num_hyperparams());
  for (int round = 0; round < 3; ++round) {
    for (std::size_t p = 0; p < log_params.size(); ++p) {
      log_params[p] = 0.2 * rng.normal();
      warm.set_kernel_hyperparams(log_params);
      warm.fit(x, y);
    }
    warm.set_noise_variance(1e-3 * (1 + round));
    warm.set_mean_value(0.1 * round);
    warm.fit(x, y);
  }

  Kernel cold_kernel(family, kD, ard);
  cold_kernel.set_hyperparams(log_params);
  GpRegressor cold(cold_kernel, warm.noise_variance(), warm.mean_value());
  cold.fit(x, y);

  EXPECT_NEAR(warm.log_marginal_likelihood(), cold.log_marginal_likelihood(),
              1e-12);
  for (int t = 0; t < 20; ++t) {
    std::vector<double> q(kD);
    for (auto& v : q) v = rng.uniform(-0.5, 1.5);
    const Prediction pw = warm.predict(q);
    const Prediction pc = cold.predict(q);
    EXPECT_NEAR(pw.mean, pc.mean, 1e-12);
    EXPECT_NEAR(pw.variance, pc.variance, 1e-12);
  }
}

TEST_P(GpCacheSweep, AppendObservationMatchesFreshFit) {
  const auto [family, ard] = GetParam();
  constexpr std::size_t kD = 3;
  Rng rng(static_cast<std::uint64_t>(ard ? 21 : 17));
  Matrix x(12, kD);
  Vector y(12);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < kD; ++j) x(i, j) = rng.uniform();
    y[i] = rng.normal();
  }
  Kernel k(family, kD, ard);
  GpRegressor incremental(k, 1e-3);
  incremental.fit(x, y);

  // Grow by three points, one append at a time.
  Matrix grown = x;
  Vector grown_y = y;
  for (int add = 0; add < 3; ++add) {
    std::vector<double> x_new(kD);
    for (auto& v : x_new) v = rng.uniform();
    grown_y.push_back(rng.normal());
    Matrix next(grown.rows() + 1, kD);
    for (std::size_t i = 0; i < grown.rows(); ++i) {
      for (std::size_t j = 0; j < kD; ++j) next(i, j) = grown(i, j);
    }
    for (std::size_t j = 0; j < kD; ++j) next(grown.rows(), j) = x_new[j];
    grown = std::move(next);
    incremental.append_observation(x_new, grown_y);
  }
  ASSERT_EQ(incremental.num_observations(), 15u);

  GpRegressor fresh(k, 1e-3);
  fresh.fit(grown, grown_y);
  EXPECT_NEAR(incremental.log_marginal_likelihood(),
              fresh.log_marginal_likelihood(), 1e-9);
  for (int t = 0; t < 20; ++t) {
    std::vector<double> q(kD);
    for (auto& v : q) v = rng.uniform(-0.5, 1.5);
    const Prediction pi = incremental.predict(q);
    const Prediction pf = fresh.predict(q);
    EXPECT_NEAR(pi.mean, pf.mean, 1e-9);
    EXPECT_NEAR(pi.variance, pf.variance, 1e-9);
  }
}

TEST_P(GpCacheSweep, RemoveObservationMatchesFreshFit) {
  // The eviction dual of the append test: removing rows (middle, first,
  // last) through the O(n²) downdate path must agree with a cold fit on the
  // reduced data, for every kernel family and ARD setting (the ARD case
  // exercises the pair-major distance repack).
  const auto [family, ard] = GetParam();
  constexpr std::size_t kD = 3;
  Rng rng(static_cast<std::uint64_t>(ard ? 43 : 41));
  Matrix x(14, kD);
  Vector y(14);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < kD; ++j) x(i, j) = rng.uniform();
    y[i] = rng.normal();
  }
  Kernel k(family, kD, ard);
  GpRegressor incremental(k, 1e-3);
  incremental.fit(x, y);

  Matrix cur = x;
  Vector cur_y = y;
  for (const std::size_t idx : {5u, 0u, 11u}) {
    const std::size_t n = cur.rows();
    Matrix next(n - 1, kD);
    Vector next_y(n - 1);
    for (std::size_t i = 0; i < n - 1; ++i) {
      const std::size_t src = i < idx ? i : i + 1;
      for (std::size_t j = 0; j < kD; ++j) next(i, j) = cur(src, j);
      next_y[i] = cur_y[src];
    }
    incremental.remove_observation(idx, next_y);
    cur = std::move(next);
    cur_y = std::move(next_y);
  }
  ASSERT_EQ(incremental.num_observations(), 11u);

  GpRegressor fresh(k, 1e-3);
  fresh.fit(cur, cur_y);
  EXPECT_NEAR(incremental.log_marginal_likelihood(),
              fresh.log_marginal_likelihood(), 1e-9);
  for (int t = 0; t < 20; ++t) {
    std::vector<double> q(kD);
    for (auto& v : q) v = rng.uniform(-0.5, 1.5);
    const Prediction pi = incremental.predict(q);
    const Prediction pf = fresh.predict(q);
    EXPECT_NEAR(pi.mean, pf.mean, 1e-9);
    EXPECT_NEAR(pi.variance, pf.variance, 1e-9);
  }
}

TEST_P(GpCacheSweep, WindowSlidesMatchFreshFitWithNoiseDiag) {
  // Sliding-window shape with per-observation noise: repeated
  // remove-oldest + append-newest cycles over a heteroscedastic fit must
  // track a cold heteroscedastic fit on the surviving window.
  const auto [family, ard] = GetParam();
  constexpr std::size_t kD = 2;
  constexpr std::size_t kWindow = 10;
  Rng rng(static_cast<std::uint64_t>(ard ? 53 : 47));
  Matrix x(kWindow, kD);
  Vector y(kWindow);
  std::vector<double> noises(kWindow);
  for (std::size_t i = 0; i < kWindow; ++i) {
    for (std::size_t j = 0; j < kD; ++j) x(i, j) = rng.uniform();
    y[i] = rng.normal();
    noises[i] = 1e-3 * static_cast<double>(i % 3 + 1);
  }
  Kernel k(family, kD, ard);
  GpRegressor incremental(k, 1e-3);
  incremental.set_noise_diag(noises);
  incremental.fit(x, y);

  for (int slide = 0; slide < 6; ++slide) {
    // Evict the oldest row...
    Vector shrunk_y(kWindow - 1);
    for (std::size_t i = 0; i + 1 < kWindow; ++i) shrunk_y[i] = y[i + 1];
    incremental.remove_observation(0, shrunk_y);
    // ...then append a fresh observation with its own noise.
    std::vector<double> x_new(kD);
    for (auto& v : x_new) v = rng.uniform();
    const double y_new = rng.normal();
    const double noise_new = 1e-3 * static_cast<double>(slide % 4 + 1);
    Matrix next(kWindow, kD);
    for (std::size_t i = 0; i + 1 < kWindow; ++i)
      for (std::size_t j = 0; j < kD; ++j) next(i, j) = x(i + 1, j);
    for (std::size_t j = 0; j < kD; ++j) next(kWindow - 1, j) = x_new[j];
    shrunk_y.push_back(y_new);
    noises.erase(noises.begin());
    noises.push_back(noise_new);
    incremental.append_observation(x_new, shrunk_y, noise_new);
    x = std::move(next);
    y = shrunk_y;
  }
  ASSERT_EQ(incremental.num_observations(), kWindow);

  GpRegressor fresh(k, 1e-3);
  fresh.set_noise_diag(noises);
  fresh.fit(x, y);
  EXPECT_NEAR(incremental.log_marginal_likelihood(),
              fresh.log_marginal_likelihood(), 1e-8);
  for (int t = 0; t < 20; ++t) {
    std::vector<double> q(kD);
    for (auto& v : q) v = rng.uniform(-0.5, 1.5);
    const Prediction pi = incremental.predict(q);
    const Prediction pf = fresh.predict(q);
    EXPECT_NEAR(pi.mean, pf.mean, 1e-8);
    EXPECT_NEAR(pi.variance, pf.variance, 1e-8);
  }
}

TEST_F(GpFit, RemoveObservationRequiresFitAndValidIndex) {
  Kernel k(KernelFamily::kSquaredExponential, 1, false);
  GpRegressor gp(k, 1e-2);
  EXPECT_THROW(gp.remove_observation(0, Vector{}), Error);
  gp.fit(make_x({0.0, 1.0, 2.0}), Vector{0.0, 1.0, 2.0});
  EXPECT_THROW(gp.remove_observation(3, Vector(2, 0.0)), Error);
  EXPECT_THROW(gp.remove_observation(0, Vector(3, 0.0)), Error);  // wrong size
  gp.remove_observation(1, Vector{0.0, 2.0});
  EXPECT_EQ(gp.num_observations(), 2u);
  gp.remove_observation(0, Vector{2.0});
  // A single observation cannot be evicted away.
  EXPECT_THROW(gp.remove_observation(0, Vector{}), Error);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, GpCacheSweep,
    ::testing::Combine(::testing::Values(KernelFamily::kSquaredExponential,
                                         KernelFamily::kMatern52),
                       ::testing::Bool()));

TEST_F(GpFit, BatchPredictionMatchesPointPrediction) {
  Rng rng(9);
  Kernel k(KernelFamily::kMatern52, 2, false);
  GpRegressor gp(k, 1e-3);
  Matrix x(20, 2);
  Vector y(20);
  for (std::size_t i = 0; i < 20; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
    y[i] = rng.normal();
  }
  gp.fit(x, y);
  // More queries than one block of predict_batch, to cross block
  // boundaries. A query's bits do not depend on its block.
  Matrix q(150, 2);
  for (std::size_t i = 0; i < q.rows(); ++i) {
    q(i, 0) = rng.uniform(-0.5, 1.5);
    q(i, 1) = rng.uniform(-0.5, 1.5);
  }
  const auto batch = gp.predict_batch(q);
  ASSERT_EQ(batch.size(), q.rows());
  for (std::size_t i = 0; i < q.rows(); ++i) {
    const Prediction p = gp.predict(std::vector<double>{q(i, 0), q(i, 1)});
    EXPECT_EQ(batch[i].mean, p.mean);
    EXPECT_EQ(batch[i].variance, p.variance);
  }
}

TEST_F(GpFit, SharedDistanceBlockMatchesDirectPrediction) {
  // Two GPs with different hyperparameters but the same X must produce,
  // from one shared unscaled-distance block, exactly what their own
  // predict_batch produces — this is the surrogate's cross-GP fast path.
  Rng rng(13);
  Matrix x(15, 3);
  Vector y(15);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < 3; ++j) x(i, j) = rng.uniform();
    y[i] = rng.normal();
  }
  Kernel k1(KernelFamily::kMatern52, 3, false);
  k1.set_lengthscales({0.3});
  Kernel k2(KernelFamily::kMatern52, 3, false);
  k2.set_lengthscales({0.9});
  k2.set_amplitude(2.0);
  GpRegressor g1(k1, 1e-3), g2(k2, 1e-2);
  g1.fit(x, y);
  g2.fit(x, y);

  Matrix q(40, 3);
  for (std::size_t i = 0; i < q.rows(); ++i) {
    for (std::size_t j = 0; j < 3; ++j) q(i, j) = rng.uniform(-0.5, 1.5);
  }
  // The block API's layout: candidates transposed in, distances and the
  // solve workspace training-point-major.
  const std::size_t m = q.rows(), n = x.rows();
  const std::size_t ld = linalg_kernels::padded_ld(m);
  const Matrix qt = q.transposed();
  std::vector<double> d2t(n * ld), v(n * ld);
  g1.sq_dist_block(g1.posterior(), qt.data(), qt.cols(), m, d2t.data(), ld);
  std::vector<double> point(n);
  for (std::size_t c = 0; c < m; ++c) {
    g2.unscaled_sq_dists(q.row(c), point);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(d2t[i * ld + c], point[i]);
  }
  for (const GpRegressor* g : {&g1, &g2}) {
    std::vector<double> means(m), vars(m);
    predict_mv_from_sq_dist_block(g->posterior(), d2t.data(), ld, m, v.data(),
                                  ld, means, vars);
    const auto direct = g->predict_batch(q);
    ASSERT_EQ(direct.size(), m);
    for (std::size_t c = 0; c < m; ++c) {
      EXPECT_EQ(means[c], direct[c].mean);
      EXPECT_EQ(vars[c], direct[c].variance);
    }
  }
}

TEST_F(GpFit, InPlaceRefitPosteriorPredictsLikeAFreshFit) {
  // The surrogate refits one regressor per hyper sample and keeps only
  // each refit's Posterior. A posterior taken between refits must predict
  // exactly the bits of a regressor fitted from scratch with its theta,
  // through the block the source builds for it, with and without a noise
  // diagonal — and later refits of the source must not touch it.
  Rng rng(41);
  constexpr std::size_t kN = 24, kD = 3, kQ = 37;
  Matrix x(kN, kD), q(kQ, kD);
  Vector y(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t k = 0; k < kD; ++k) x(i, k) = rng.uniform();
    y[i] = rng.normal();
  }
  for (std::size_t i = 0; i < kQ; ++i) {
    for (std::size_t k = 0; k < kD; ++k) q(i, k) = rng.uniform(-0.2, 1.2);
  }
  std::vector<double> ratios(kN);
  for (std::size_t i = 0; i < kN; ++i) ratios[i] = i % 3 == 0 ? 4.0 : 1.0;
  for (const bool ard : {false, true}) {
    for (const bool het : {false, true}) {
      SCOPED_TRACE(std::string(ard ? "ARD" : "isotropic") +
                   (het ? ", noise diagonal" : ", homoscedastic"));
      const std::size_t num_ls = ard ? kD : 1;
      // [log amplitude, log lengthscales, log noise std, mean]
      const auto theta = [&](double amp, double ls, double noise) {
        std::vector<double> t{amp};
        for (std::size_t k = 0; k < num_ls; ++k) t.push_back(ls + 0.1 * k);
        t.push_back(noise);
        t.push_back(0.2);
        return t;
      };
      const std::span<const double> diag =
          het ? std::span<const double>(ratios) : std::span<const double>();
      const Kernel kernel(KernelFamily::kMatern52, kD, ard);
      GpRegressor source(kernel, 1e-3);
      apply_hyperparams(source, theta(0.3, -0.9, -2.0), x, y, diag);
      apply_hyperparams(source, theta(-0.2, -1.4, -1.5), x, y, diag);
      const Posterior post(source.posterior());
      apply_hyperparams(source, theta(0.5, -0.5, -3.0), x, y, diag);

      GpRegressor fresh(kernel, 1e-3);
      apply_hyperparams(fresh, theta(-0.2, -1.4, -1.5), x, y, diag);
      const std::vector<Prediction> want = fresh.predict_batch(q);
      const std::size_t ld = linalg_kernels::padded_ld(kQ);
      const Matrix qt = q.transposed();
      std::vector<double> d2t(kN * ld), v(kN * ld), means(kQ), vars(kQ);
      source.sq_dist_block(post.view(), qt.data(), qt.cols(), kQ, d2t.data(),
                           ld);
      predict_mv_from_sq_dist_block(post.view(), d2t.data(), ld, kQ, v.data(),
                                    ld, means, vars);
      ASSERT_EQ(want.size(), kQ);
      for (std::size_t c = 0; c < kQ; ++c) {
        EXPECT_EQ(means[c], want[c].mean);
        EXPECT_EQ(vars[c], want[c].variance);
      }
    }
  }
}

TEST_F(GpFit, UniformNoiseDiagBitIdenticalToScalarPath) {
  // A per-observation noise diagonal whose entries all equal the scalar
  // noise variance must reproduce the homoscedastic path BITWISE: the
  // heteroscedastic Cholesky computes scale*k + (0.0 + sigma2), and
  // 0.0 + sigma2 == sigma2 exactly in IEEE arithmetic. The fidelity
  // ladder relies on this — rung tagging with equal variances cannot
  // perturb single-fidelity goldens.
  Rng rng(31);
  Kernel k(KernelFamily::kMatern52, 2, false);
  constexpr double kNoise = 1e-3;
  Matrix x(10, 2);
  Vector y(10);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
    y[i] = rng.normal();
  }
  GpRegressor scalar(k, kNoise);
  scalar.fit(x, y);
  GpRegressor het(k, kNoise);
  het.set_noise_diag(std::vector<double>(x.rows(), kNoise));
  het.fit(x, y);
  EXPECT_EQ(het.log_marginal_likelihood(), scalar.log_marginal_likelihood());
  for (int t = 0; t < 20; ++t) {
    const std::vector<double> q = {rng.uniform(-0.5, 1.5),
                                   rng.uniform(-0.5, 1.5)};
    const Prediction ph = het.predict(q);
    const Prediction ps = scalar.predict(q);
    EXPECT_EQ(ph.mean, ps.mean);
    EXPECT_EQ(ph.variance, ps.variance);
  }
}

TEST_F(GpFit, DistinctNoiseDiagTrustsPreciseObservations) {
  // Two observations at the same input with conflicting targets: the
  // posterior mean must side with the low-noise one.
  Kernel k(KernelFamily::kSquaredExponential, 1, false);
  GpRegressor gp(k, 1e-2);
  Matrix x(2, 1);
  x(0, 0) = 0.5;
  x(1, 0) = 0.5;
  gp.set_noise_diag(std::vector<double>{1e-6, 1.0});
  gp.fit(x, Vector{1.0, -1.0});
  const std::vector<double> q{0.5};
  const Prediction p = gp.predict(q);
  EXPECT_GT(p.mean, 0.9);
}

TEST_F(GpFit, HeteroscedasticAppendMatchesFreshFit) {
  // Scalar-fitted history extended with differently-noised appends (the
  // ladder's mixed-rung stream) must match a fresh heteroscedastic fit of
  // the full history.
  Rng rng(37);
  constexpr std::size_t kD = 2;
  Kernel k(KernelFamily::kMatern52, kD, false);
  constexpr double kBase = 1e-3;
  Matrix x(8, kD);
  Vector y(8);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < kD; ++j) x(i, j) = rng.uniform();
    y[i] = rng.normal();
  }
  GpRegressor incremental(k, kBase);
  incremental.fit(x, y);

  Matrix grown = x;
  Vector grown_y = y;
  std::vector<double> noises(x.rows(), kBase);
  for (int add = 0; add < 3; ++add) {
    std::vector<double> x_new(kD);
    for (auto& v : x_new) v = rng.uniform();
    grown_y.push_back(rng.normal());
    Matrix next(grown.rows() + 1, kD);
    for (std::size_t i = 0; i < grown.rows(); ++i) {
      for (std::size_t j = 0; j < kD; ++j) next(i, j) = grown(i, j);
    }
    for (std::size_t j = 0; j < kD; ++j) next(grown.rows(), j) = x_new[j];
    grown = std::move(next);
    const double noise_new = add % 2 == 0 ? 4.0 * kBase : kBase;
    noises.push_back(noise_new);
    incremental.append_observation(x_new, grown_y, noise_new);
  }
  ASSERT_EQ(incremental.num_observations(), 11u);
  ASSERT_EQ(incremental.noise_diag().size(), 11u);

  GpRegressor fresh(k, kBase);
  fresh.set_noise_diag(noises);
  fresh.fit(grown, grown_y);
  EXPECT_NEAR(incremental.log_marginal_likelihood(),
              fresh.log_marginal_likelihood(), 1e-9);
  for (int t = 0; t < 20; ++t) {
    std::vector<double> q(kD);
    for (auto& v : q) v = rng.uniform(-0.5, 1.5);
    const Prediction pi = incremental.predict(q);
    const Prediction pf = fresh.predict(q);
    EXPECT_NEAR(pi.mean, pf.mean, 1e-9);
    EXPECT_NEAR(pi.variance, pf.variance, 1e-9);
  }
}

TEST_F(GpFit, NoiseDiagValidation) {
  Kernel k(KernelFamily::kSquaredExponential, 1, false);
  GpRegressor gp(k, 1e-3);
  EXPECT_THROW(gp.set_noise_diag(std::vector<double>{1e-3, -1.0}), Error);
  gp.set_noise_diag(std::vector<double>{1e-3});
  Matrix x(2, 1);
  x(1, 0) = 1.0;
  // Diagonal size must match the observation count at fit time.
  EXPECT_THROW(gp.fit(x, Vector{0.0, 1.0}), Error);
}

// --- The hyper sampler's log-marginal-likelihood estimate -------------------

class ScopedIsa {
 public:
  explicit ScopedIsa(isa::Path path) : prev_(isa::selected()) {
    isa::select(path);
  }
  ~ScopedIsa() { isa::select(prev_); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  isa::Path prev_;
};

std::vector<isa::Path> runnable_paths() {
  std::vector<isa::Path> paths;
  for (std::size_t i = 0; i < isa::kNumPaths; ++i) {
    const auto p = static_cast<isa::Path>(i);
    if (isa::compiled(p) && isa::supported(p)) paths.push_back(p);
  }
  return paths;
}

/// One regressor shape for the estimate sweep: random inputs and targets,
/// a kernel and hyperparameters (log amplitude, log lengthscales, noise
/// variance, mean), and an optional noise-ratio diagonal.
struct EstimateCase {
  Matrix x;
  Vector y;
  Kernel kernel;
  double noise = 0.0;
  double mean = 0.0;
  std::vector<double> ratios;

  GpRegressor regressor() const {
    GpRegressor gp(kernel, noise, mean);
    if (!ratios.empty()) {
      std::vector<double> diag(ratios.size());
      for (std::size_t i = 0; i < diag.size(); ++i) diag[i] = noise * ratios[i];
      gp.set_noise_diag(diag);
    }
    gp.set_inputs(x);
    return gp;
  }
};

EstimateCase random_case(std::size_t n, std::size_t d, KernelFamily family,
                         bool ard, double log_amp, double noise, Rng& rng) {
  EstimateCase c{Matrix(n, d), Vector(n), Kernel(family, d, ard), 0.0, 0.0,
                 {}};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < d; ++k) c.x(i, k) = rng.uniform();
    c.y[i] = rng.normal();
  }
  std::vector<double> log_params{log_amp};
  for (std::size_t k = 0; k < c.kernel.lengthscales().size(); ++k) {
    log_params.push_back(rng.uniform(-1.5, 1.0));
  }
  c.kernel.set_hyperparams(log_params);
  c.noise = noise;
  c.mean = rng.normal();
  return c;
}

/// |estimate − exact| ≤ allowance, where the exact value is what refit
/// then log_marginal_likelihood() give. Returns false when the regressor
/// declined to estimate.
bool estimate_covers_exact(const EstimateCase& c, const std::string& what) {
  GpRegressor gp = c.regressor();
  const auto est = gp.estimate_log_marginal_likelihood(c.y);
  EXPECT_FALSE(gp.fitted()) << what;
  if (!est.has_value()) return false;
  gp.refit(c.y);
  const double exact = gp.log_marginal_likelihood();
  EXPECT_LE(std::fabs(est->value - exact), est->allowance)
      << what << ": estimate " << est->value << ", exact " << exact;
  EXPECT_GT(est->allowance, 0.0) << what;
  return true;
}

// The allowance must cover the exact path's value on every ISA path (the
// fused factor rounds differently on each), at every history length the
// sampler meets, including the guard's edge, a large amplitude and a
// noise-ratio diagonal.
TEST(LmlEstimate, AllowanceCoversExactValueOnEveryPath) {
  const KernelFamily families[] = {KernelFamily::kSquaredExponential,
                                   KernelFamily::kMatern52};
  for (const isa::Path path : runnable_paths()) {
    const ScopedIsa pin(path);
    Rng rng(2015);
    std::size_t estimated = 0;
    for (const std::size_t n : {2u, 5u, 16u, 64u, 101u}) {
      const std::size_t d = n == 101 ? 101 : 1 + n % 6;
      for (int trial = 0; trial < 6; ++trial) {
        const std::string what = std::string(isa::to_string(path)) +
                                 " n=" + std::to_string(n) + " trial " +
                                 std::to_string(trial);
        const KernelFamily family = families[trial / 3];
        const bool ard = trial % 2 == 1;
        // Typical sampler states: they must be estimated, not refused.
        EstimateCase typical =
            random_case(n, d, family, ard, rng.uniform(-1.0, 1.0),
                        std::exp(2.0 * rng.uniform(-4.0, -0.5)), rng);
        EXPECT_TRUE(estimate_covers_exact(typical, what + " typical"));
        // A large amplitude over moderate noise.
        EstimateCase large = random_case(n, d, family, ard, 4.0, 0.05, rng);
        EXPECT_TRUE(estimate_covers_exact(large, what + " large amplitude"));
        // A noise-ratio diagonal, as mixed-fidelity rungs carry.
        EstimateCase het =
            random_case(n, d, family, ard, rng.uniform(-1.0, 1.0), 0.01, rng);
        het.ratios.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          het.ratios[i] = i % 3 == 0 ? 1.0 : (i % 3 == 1 ? 4.0 : 16.0);
        }
        EXPECT_TRUE(estimate_covers_exact(het, what + " noise ratios"));
        // The guard's edge: the smallest noise the guards still accept,
        // found by bisection on log noise.
        EstimateCase edge =
            random_case(n, d, family, ard, rng.uniform(-1.0, 2.0), 1.0, rng);
        double lo = -40.0, hi = 0.0;  // log noise: refused at lo, kept at hi
        for (int it = 0; it < 60; ++it) {
          const double mid = 0.5 * (lo + hi);
          edge.noise = std::exp(mid);
          GpRegressor gp = edge.regressor();
          (gp.estimate_log_marginal_likelihood(edge.y) ? hi : lo) = mid;
        }
        edge.noise = std::exp(hi);
        EXPECT_TRUE(estimate_covers_exact(edge, what + " guard edge"));
        edge.noise = std::exp(lo);
        EXPECT_FALSE(estimate_covers_exact(edge, what + " past the edge"));
        estimated += 4;
      }
    }
    EXPECT_EQ(estimated, 5u * 6u * 4u);
  }
}

// The allowance is a rounding bound: at the benchmark's shape (n = 100,
// d = 101) it is a millionth of the value, so slice comparisons, whose
// margins are O(1), almost never fall inside it.
TEST(LmlEstimate, AllowanceIsSmallAtTheBo100Shape) {
  Rng rng(7);
  const EstimateCase c = random_case(100, 101, KernelFamily::kMatern52, false,
                                     1.0, 1e-2, rng);
  GpRegressor gp = c.regressor();
  const auto est = gp.estimate_log_marginal_likelihood(c.y);
  ASSERT_TRUE(est.has_value());
  EXPECT_LT(est->allowance, 1e-6 * std::fabs(est->value));
}

// A mean-only change keeps the estimate factor; the reused factor, an
// exact refit in between and a fresh regressor all give the same bits.
TEST(LmlEstimate, MeanOnlyReuseMatchesAFreshRegressor) {
  Rng rng(9);
  EstimateCase c =
      random_case(30, 3, KernelFamily::kMatern52, true, 0.3, 0.01, rng);
  GpRegressor warm = c.regressor();
  ASSERT_TRUE(warm.estimate_log_marginal_likelihood(c.y).has_value());
  warm.refit(c.y);  // the exact path takes the factor buffers back
  for (const double mean : {0.25, -1.5, 0.0}) {
    warm.set_mean_value(mean);
    const auto reused = warm.estimate_log_marginal_likelihood(c.y);
    c.mean = mean;
    GpRegressor fresh = c.regressor();
    const auto cold = fresh.estimate_log_marginal_likelihood(c.y);
    ASSERT_TRUE(reused.has_value() && cold.has_value());
    EXPECT_EQ(reused->value, cold->value) << "mean " << mean;
    EXPECT_EQ(reused->allowance, cold->allowance) << "mean " << mean;
  }
}

// The estimate's factor, forward-solve scratch and centred targets live in
// the regressor: once warm, estimates at one n never touch the heap.
TEST(LmlEstimate, SteadyStateAllocatesNothing) {
  if constexpr (kCheckedBuild) {
    GTEST_SKIP() << "zero-allocation guarantee applies to release builds";
  }
  Rng rng(21);
  EstimateCase c =
      random_case(40, 3, KernelFamily::kMatern52, false, 0.2, 0.01, rng);
  GpRegressor gp = c.regressor();
  ASSERT_TRUE(gp.estimate_log_marginal_likelihood(c.y).has_value());
  const std::vector<double> amp{0.5, -0.3};
  const std::size_t news_before = testprobe::new_call_count();
  for (int r = 0; r < 8; ++r) {
    gp.set_kernel_hyperparams(std::span(amp));  // amplitude and lengthscale
    gp.set_noise_variance(0.01 + 0.001 * r);
    gp.set_mean_value(0.1 * r);
    ASSERT_TRUE(gp.estimate_log_marginal_likelihood(c.y).has_value());
  }
  EXPECT_EQ(testprobe::new_call_count() - news_before, 0u);
}

// Where refit could escalate jitter the estimate declines, and the exact
// path then answers as before.
TEST(LmlEstimate, DeclinesWhereRefitMightAddJitter) {
  Rng rng(3);
  EstimateCase c =
      random_case(64, 2, KernelFamily::kSquaredExponential, false, 2.0,
                  1e-14, rng);
  GpRegressor gp = c.regressor();
  EXPECT_FALSE(gp.estimate_log_marginal_likelihood(c.y).has_value());
  gp.refit(c.y);
  EXPECT_TRUE(std::isfinite(gp.log_marginal_likelihood()));
}

}  // namespace
}  // namespace stormtune::gp
