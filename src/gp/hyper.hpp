// GP hyperparameter inference: MCMC marginalization.
//
// The full hyperparameter vector is laid out as
//   [log_amplitude, log_lengthscale_1..L, log_noise_std, constant_mean]
// and its posterior (GP log marginal likelihood + Gaussian priors in log
// space) is explored with coordinate-wise slice sampling (Spearmint's
// scheme).
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "gp/gp_regressor.hpp"
#include "gp/kernel.hpp"
#include "linalg/matrix.hpp"

namespace stormtune::gp {

/// Independent Gaussian priors over the log-space hyperparameters.
struct HyperPrior {
  double log_amplitude_mean = 0.0;
  double log_amplitude_sd = 1.0;
  double log_lengthscale_mean = 0.0;
  double log_lengthscale_sd = 1.0;
  double log_noise_std_mean = -2.3;  ///< exp(-2.3) ~ 0.1 noise std
  double log_noise_std_sd = 1.0;
  double mean_mean = 0.0;
  double mean_sd = 1.0;

  double log_density(std::span<const double> theta,
                     std::size_t num_lengthscales) const;
};

/// One concrete hyperparameter setting.
struct HyperSample {
  std::vector<double> theta;  ///< full layout described above

  std::size_t num_lengthscales(std::size_t /*unused*/) const {
    return theta.size() - 3;
  }
};

/// Apply a hyperparameter vector to a regressor (kernel, noise, mean) and
/// refit it on (x, y).
///
/// `noise_ratio_diag` composes per-observation noise structure with the
/// sampled scalar: when non-empty (one entry per row of x), the fit carries
/// the diagonal sigma_n^2 * ratio_i instead of the scalar sigma_n^2, where
/// sigma_n^2 = exp(2 * log_noise_std) comes from theta. This is how
/// mixed-fidelity rung variances stay proportionally apart while slice
/// sampling infers the overall noise scale: ratio_i is the observation
/// rung's variance relative to the full-fidelity rung. An empty span (the
/// default) is the pre-existing scalar path, bit-identical.
void apply_hyperparams(GpRegressor& gp, std::span<const double> theta,
                       const Matrix& x, const Vector& y,
                       std::span<const double> noise_ratio_diag = {});

/// Unnormalized log posterior of `theta` given data.
double hyper_log_posterior(GpRegressor& gp, std::span<const double> theta,
                           const Matrix& x, const Vector& y,
                           const HyperPrior& prior,
                           std::span<const double> noise_ratio_diag = {});

struct HyperSamplerOptions {
  std::size_t num_samples = 8;   ///< retained posterior samples
  std::size_t burn_in = 20;      ///< sweeps discarded before retention
  std::size_t thin = 2;          ///< sweeps between retained samples
  HyperPrior prior;
  /// Warm start: when non-empty, the chain resumes from this theta (full
  /// layout, see file header) instead of the regressor's current
  /// hyperparameters. Sliding-window refits pass the previous refresh's
  /// final sample here with a short burn_in — the posterior moved only as
  /// far as the window slid, so the chain re-equilibrates in a few sweeps.
  std::vector<double> initial_theta;
};

/// Slice-sample `num_samples` hyperparameter settings from the posterior.
/// `gp` provides the kernel structure (family, dim, ARD) and is left fitted
/// with the last sample. `noise_ratio_diag` as in apply_hyperparams.
std::vector<HyperSample> sample_hyperparams(
    GpRegressor& gp, const Matrix& x, const Vector& y,
    const HyperSamplerOptions& opts, Rng& rng,
    std::span<const double> noise_ratio_diag = {});

}  // namespace stormtune::gp
