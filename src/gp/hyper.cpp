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
/// about to be fit to n observations (see apply_hyperparams). `diag` is
/// scratch for the scaled noise diagonal.
void set_hyperparams(GpRegressor& gp, std::span<const double> theta,
                     std::size_t n, std::span<const double> noise_ratio_diag,
                     std::vector<double>& diag) {
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
    diag.resize(noise_ratio_diag.size());
    for (std::size_t i = 0; i < diag.size(); ++i) {
      diag[i] = nv * noise_ratio_diag[i];
    }
    gp.set_noise_diag(diag);
  }
  gp.set_mean_value(theta[nk + 1]);
}

/// Numerically absurd settings are rejected outright; they would only
/// waste a Cholesky attempt and distort the stepping-out brackets.
bool absurd(std::span<const double> theta) {
  for (double t : theta) {
    if (!std::isfinite(t) || std::abs(t) > 20.0) return true;
  }
  return false;
}

/// Unnormalized log posterior of `theta` with `fit` applying it to `gp`;
/// -inf when theta is absurd or the fit fails.
template <class Fit>
double log_posterior(GpRegressor& gp, std::span<const double> theta,
                     const HyperPrior& prior, Fit&& fit) {
  if (absurd(theta)) return -std::numeric_limits<double>::infinity();
  try {
    fit();
  } catch (const Error&) {
    return -std::numeric_limits<double>::infinity();
  }
  const std::size_t num_ls = gp.kernel().num_hyperparams() - 1;
  return gp.log_marginal_likelihood() + prior.log_density(theta, num_ls);
}

/// The sampler's and the coordinate search's objective. They refit one X
/// hundreds of times per suggestion, so it loads X once
/// (GpRegressor::set_inputs) and each evaluation refits the stored copy:
/// fit()'s bits without its O(n·d) input comparison.
class LogPosterior {
 public:
  LogPosterior(GpRegressor& gp, const Matrix& x, const Vector& y,
               const HyperPrior& prior,
               std::span<const double> noise_ratio_diag)
      : gp_(gp), y_(y), prior_(prior), ratios_(noise_ratio_diag) {
    gp.set_inputs(x);
  }

  /// Put theta's hyperparameters on the regressor without fitting.
  void set(std::span<const double> theta) {
    set_hyperparams(gp_, theta, y_.size(), ratios_, diag_);
  }

  /// The exact log posterior: refit, then log_marginal_likelihood() plus
  /// the prior; -inf when theta is absurd or the fit fails.
  double exact(std::span<const double> theta) {
    return log_posterior(gp_, theta, prior_, [&] {
      set(theta);
      gp_.refit(y_);
    });
  }

  /// The log posterior as comparisons read it: an estimate with its
  /// allowance where the regressor can certify one
  /// (GpRegressor::estimate_log_marginal_likelihood), the exact value with
  /// allowance 0 where it cannot or `exact_value` is set. Either way the
  /// regressor ends up with theta's hyperparameters, unless theta is
  /// absurd.
  LogDensity operator()(std::span<const double> theta, bool exact_value) {
    if (exact_value || absurd(theta)) return {exact(theta)};
    set(theta);
    const auto lml = gp_.estimate_log_marginal_likelihood(y_);
    if (!lml.has_value()) return {exact(theta)};
    const double log_prior =
        prior_.log_density(theta, gp_.kernel().num_hyperparams() - 1);
    // Both sums round once: u of each magnitude, doubled for headroom.
    constexpr double k2u = 2.0 * 0x1p-53;
    const LogDensity out{
        lml->value + log_prior,
        lml->allowance * (1.0 + k2u) +
            k2u * (std::fabs(lml->value) + lml->allowance +
                   std::fabs(log_prior))};
#ifdef STORMTUNE_CHECKED
    STORMTUNE_INVARIANT(std::fabs(out.value - exact(theta)) <= out.allowance,
                        "log posterior estimate outside its allowance");
#endif
    return out;
  }

 private:
  GpRegressor& gp_;
  const Vector& y_;
  const HyperPrior& prior_;
  std::span<const double> ratios_;
  std::vector<double> diag_;
};

}  // namespace

void apply_hyperparams(GpRegressor& gp, std::span<const double> theta,
                       const Matrix& x, const Vector& y,
                       std::span<const double> noise_ratio_diag) {
  std::vector<double> diag;
  set_hyperparams(gp, theta, x.rows(), noise_ratio_diag, diag);
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
  LogPosterior posterior(gp, x, y, opts.prior, noise_ratio_diag);
  const LogDensityFn log_post = [&posterior](const std::vector<double>& t,
                                             bool exact) {
    return posterior(t, exact);
  };
  SliceOptions slice;
  slice.width = 0.7;
  // The chain's log posterior carries from sweep to sweep, so only the
  // very first state is evaluated on its own.
  std::optional<LogDensity> ly;
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
  LogPosterior posterior(gp, x, y, opts.prior, noise_ratio_diag);
  auto exact = [&](const std::vector<double>& t) {
    return [&] { return LogDensity{posterior.exact(t)}; };
  };

  // Every restart starts from the regressor's hyperparameters on entry:
  // restart 0 from them, restart r > 0 from them plus its own normals.
  const std::vector<double> start = initial_theta(gp);
  std::vector<double> best = start;
  LogDensity best_val = posterior(best, false);

  for (int restart = 0; restart < opts.restarts; ++restart) {
    std::vector<double> theta = start;
    if (restart > 0) {
      for (auto& t : theta) t += rng.normal(0.0, 1.0);
    }
    LogDensity val = posterior(theta, false);
    double step = opts.initial_step;
    for (int iter = 0; iter < opts.iterations; ++iter) {
      bool improved = false;
      for (std::size_t i = 0; i < theta.size(); ++i) {
        for (const double delta : {step, -step}) {
          std::vector<double> cand = theta;
          cand[i] += delta;
          LogDensity cv = posterior(cand, false);
          if (exactly_greater(cv, exact(cand), val, exact(theta))) {
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
    if (exactly_greater(val, exact(theta), best_val, exact(best))) {
      best_val = val;
      best = theta;
    }
  }
  STORMTUNE_REQUIRE(std::isfinite(best_val.value),
                    "fit_hyperparams_mle: no finite posterior value found");
  apply_hyperparams(gp, best, x, y, noise_ratio_diag);
  return HyperSample{std::move(best)};
}

}  // namespace stormtune::gp
