#include "layers.hpp"

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "gp/gp_regressor.hpp"
#include "linalg/matrix.hpp"
#include "probe.hpp"

namespace e2e {

namespace {

using namespace stormtune;

constexpr std::size_t kPredictRows = 512;
constexpr double kNoise = 1e-3;

/// Median of `reps` timings of `body` (which times itself and returns ns).
template <typename Body>
double median_ns(std::size_t reps, Body body) {
  std::vector<double> ns;
  ns.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) ns.push_back(body(r));
  return percentile(std::move(ns), 50.0);
}

Matrix uniform_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.uniform();
  }
  return m;
}

}  // namespace

LayerTimings time_layers(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  const Matrix x = uniform_matrix(n, d, rng);
  Vector y(n);
  for (double& v : y) v = rng.normal();
  const Matrix q = uniform_matrix(kPredictRows, d, rng);

  // Isotropic Matérn 5/2, as BayesOpt's default surrogate, with a
  // lengthscale near the typical distance between points of the unit cube.
  gp::Kernel kernel(gp::KernelFamily::kMatern52, d, false);
  const double log_ls = std::log(0.5 * std::sqrt(static_cast<double>(d)));
  kernel.set_hyperparams(std::vector<double>{0.0, log_ls});

  LayerTimings t;
  t.gp_fit_ms = 1e-6 * median_ns(15, [&](std::size_t) {
    gp::GpRegressor g(kernel, kNoise);
    const std::int64_t t0 = now_ns();
    g.fit(x, y);
    return static_cast<double>(now_ns() - t0);
  });

  gp::GpRegressor fitted(kernel, kNoise);
  fitted.fit(x, y);
  t.gp_refit_ms = 1e-6 * median_ns(25, [&](std::size_t r) {
    // Alternate the lengthscale so every refit rebuilds the correlation
    // matrix and the factor, as a slice-sampler move does.
    const std::vector<double> theta{0.0, log_ls + (r % 2 == 0 ? 0.05 : -0.05)};
    const std::int64_t t0 = now_ns();
    fitted.set_kernel_hyperparams(theta);
    fitted.fit(x, y);
    return static_cast<double>(now_ns() - t0);
  });

  std::vector<gp::Prediction> predictions;
  t.gp_predict_batch_ms = 1e-6 * median_ns(25, [&](std::size_t) {
    const std::int64_t t0 = now_ns();
    fitted.predict_batch(q, predictions);
    return static_cast<double>(now_ns() - t0);
  });

  Matrix corr(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) corr(i, j) = kernel(x.row(i), x.row(j));
  }
  Cholesky chol(corr, 1.0, kNoise);
  t.linalg_cholesky_ms = 1e-6 * median_ns(25, [&](std::size_t) {
    const std::int64_t t0 = now_ns();
    chol.refactor(corr, 1.0, kNoise);
    return static_cast<double>(now_ns() - t0);
  });

  // Grow the factor of the leading (n-1)×(n-1) block by the last row, then
  // drop that row again (O(1) for the last row) before the next sample.
  Matrix lead(n - 1, n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t j = 0; j + 1 < n; ++j) lead(i, j) = corr(i, j);
  }
  Cholesky grow(lead, 1.0, kNoise);
  grow.reserve(n);
  std::vector<double> b(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) b[i] = corr(n - 1, i);
  const double c = corr(n - 1, n - 1) + kNoise;
  t.linalg_append_row_us = 1e-3 * median_ns(201, [&](std::size_t) {
    const std::int64_t t0 = now_ns();
    grow.append_row(b, c);
    const double ns = static_cast<double>(now_ns() - t0);
    grow.remove_row(n - 1);
    return ns;
  });
  return t;
}

}  // namespace e2e
