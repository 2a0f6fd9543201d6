#include "gp/hyper.hpp"

#include <cmath>
#include <limits>
#include <optional>

#include "common/error.hpp"
#include "gp/slice_sampler.hpp"

namespace stormtune::gp {
namespace {

double log_normal_density(double x, double mean, double sd) {
  const double z = (x - mean) / sd;
  return -0.5 * z * z - std::log(sd) - 0.91893853320467274178;
}

std::vector<double> initial_theta(const GpRegressor& gp) {
  std::vector<double> theta = gp.kernel().hyperparams();
  theta.push_back(0.5 * std::log(std::max(gp.noise_variance(), 1e-12)));
  theta.push_back(gp.mean_value());
  return theta;
}

}  // namespace

double HyperPrior::log_density(std::span<const double> theta,
                               std::size_t num_lengthscales) const {
  STORMTUNE_REQUIRE(theta.size() == num_lengthscales + 3,
                    "HyperPrior: theta layout mismatch");
  double ld = log_normal_density(theta[0], log_amplitude_mean,
                                 log_amplitude_sd);
  for (std::size_t i = 0; i < num_lengthscales; ++i) {
    ld += log_normal_density(theta[1 + i], log_lengthscale_mean,
                             log_lengthscale_sd);
  }
  ld += log_normal_density(theta[1 + num_lengthscales], log_noise_std_mean,
                           log_noise_std_sd);
  ld += log_normal_density(theta[2 + num_lengthscales], mean_mean, mean_sd);
  return ld;
}

namespace {

/// Set theta's kernel hyperparameters, noise and mean on `gp`, which is
/// about to be fit to n observations (see apply_hyperparams).
void set_hyperparams(GpRegressor& gp, std::span<const double> theta,
                     std::size_t n, std::span<const double> noise_ratio_diag) {
  const std::size_t nk = gp.kernel().num_hyperparams();
  STORMTUNE_REQUIRE(theta.size() == nk + 2,
                    "apply_hyperparams: theta layout mismatch");
  STORMTUNE_REQUIRE(noise_ratio_diag.empty() || noise_ratio_diag.size() == n,
                    "apply_hyperparams: noise_ratio_diag size mismatch");
  gp.set_kernel_hyperparams(theta.subspan(0, nk));
  const double log_noise_std = theta[nk];
  const double nv = std::exp(2.0 * log_noise_std);
  gp.set_noise_variance(nv);
  if (!noise_ratio_diag.empty()) {
    // Per-rung structure rides on the sampled scale: sigma_n^2 * ratio_i.
    std::vector<double> diag(noise_ratio_diag.size());
    for (std::size_t i = 0; i < diag.size(); ++i) {
      diag[i] = nv * noise_ratio_diag[i];
    }
    gp.set_noise_diag(diag);
  }
  gp.set_mean_value(theta[nk + 1]);
}

/// Unnormalized log posterior of `theta` with `fit` applying it to `gp`;
/// -inf when theta is absurd or the fit fails.
template <class Fit>
double log_posterior(GpRegressor& gp, std::span<const double> theta,
                     const HyperPrior& prior, Fit&& fit) {
  // Reject numerically absurd settings outright; they would only waste a
  // Cholesky attempt and distort the stepping-out brackets.
  for (double t : theta) {
    if (!std::isfinite(t) || std::abs(t) > 20.0) {
      return -std::numeric_limits<double>::infinity();
    }
  }
  try {
    fit();
  } catch (const Error&) {
    return -std::numeric_limits<double>::infinity();
  }
  const std::size_t num_ls = gp.kernel().num_hyperparams() - 1;
  return gp.log_marginal_likelihood() + prior.log_density(theta, num_ls);
}

/// The sampler's and the coordinate search's objective. They refit one X
/// hundreds of times per suggestion, so they load it once
/// (GpRegressor::set_inputs) and each evaluation refits the stored copy:
/// fit()'s bits without its O(n·d) input comparison.
double log_posterior_on_inputs(GpRegressor& gp, std::span<const double> theta,
                               const Vector& y, const HyperPrior& prior,
                               std::span<const double> noise_ratio_diag) {
  return log_posterior(gp, theta, prior, [&] {
    set_hyperparams(gp, theta, y.size(), noise_ratio_diag);
    gp.refit(y);
  });
}

}  // namespace

void apply_hyperparams(GpRegressor& gp, std::span<const double> theta,
                       const Matrix& x, const Vector& y,
                       std::span<const double> noise_ratio_diag) {
  set_hyperparams(gp, theta, x.rows(), noise_ratio_diag);
  gp.fit(x, y);
}

double hyper_log_posterior(GpRegressor& gp, std::span<const double> theta,
                           const Matrix& x, const Vector& y,
                           const HyperPrior& prior,
                           std::span<const double> noise_ratio_diag) {
  return log_posterior(gp, theta, prior, [&] {
    apply_hyperparams(gp, theta, x, y, noise_ratio_diag);
  });
}

std::vector<HyperSample> sample_hyperparams(
    GpRegressor& gp, const Matrix& x, const Vector& y,
    const HyperSamplerOptions& opts, Rng& rng,
    std::span<const double> noise_ratio_diag) {
  STORMTUNE_REQUIRE(opts.num_samples > 0,
                    "sample_hyperparams: need num_samples > 0");
  STORMTUNE_REQUIRE(
      opts.initial_theta.empty() ||
          opts.initial_theta.size() == gp.kernel().num_hyperparams() + 2,
      "sample_hyperparams: initial_theta layout mismatch");
  std::vector<double> theta =
      opts.initial_theta.empty() ? initial_theta(gp) : opts.initial_theta;
  gp.set_inputs(x);
  auto log_post = [&](const std::vector<double>& t) {
    return log_posterior_on_inputs(gp, t, y, opts.prior, noise_ratio_diag);
  };
  SliceOptions slice;
  slice.width = 0.7;
  // The chain's log posterior carries from sweep to sweep, so only the
  // very first state is evaluated on its own.
  std::optional<double> ly;
  for (std::size_t i = 0; i < opts.burn_in; ++i) {
    ly = slice_sample_sweep(log_post, theta, rng, slice, ly);
  }
  std::vector<HyperSample> samples;
  samples.reserve(opts.num_samples);
  for (std::size_t s = 0; s < opts.num_samples; ++s) {
    for (std::size_t t = 0; t < std::max<std::size_t>(opts.thin, 1); ++t) {
      ly = slice_sample_sweep(log_post, theta, rng, slice, ly);
    }
    samples.push_back(HyperSample{theta});
  }
  // Leave gp fitted with the final sample so callers can predict directly.
  apply_hyperparams(gp, samples.back().theta, x, y, noise_ratio_diag);
  return samples;
}

HyperSample fit_hyperparams_mle(GpRegressor& gp, const Matrix& x,
                                const Vector& y, const MleOptions& opts,
                                Rng& rng,
                                std::span<const double> noise_ratio_diag) {
  gp.set_inputs(x);
  auto objective = [&](const std::vector<double>& t) {
    return log_posterior_on_inputs(gp, t, y, opts.prior, noise_ratio_diag);
  };

  std::vector<double> best = initial_theta(gp);
  double best_val = objective(best);

  for (int restart = 0; restart < opts.restarts; ++restart) {
    std::vector<double> theta = initial_theta(gp);
    if (restart > 0) {
      for (auto& t : theta) t += rng.normal(0.0, 1.0);
    }
    double val = objective(theta);
    double step = opts.initial_step;
    for (int iter = 0; iter < opts.iterations; ++iter) {
      bool improved = false;
      for (std::size_t i = 0; i < theta.size(); ++i) {
        for (const double delta : {step, -step}) {
          std::vector<double> cand = theta;
          cand[i] += delta;
          const double cv = objective(cand);
          if (cv > val) {
            val = cv;
            theta = std::move(cand);
            improved = true;
            break;
          }
        }
      }
      if (!improved) {
        step *= 0.5;
        if (step < 1e-3) break;
      }
    }
    if (val > best_val) {
      best_val = val;
      best = theta;
    }
  }
  STORMTUNE_REQUIRE(std::isfinite(best_val),
                    "fit_hyperparams_mle: no finite posterior value found");
  apply_hyperparams(gp, best, x, y, noise_ratio_diag);
  return HyperSample{std::move(best)};
}

}  // namespace stormtune::gp
