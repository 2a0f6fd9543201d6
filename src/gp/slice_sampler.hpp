// Univariate and coordinate-wise slice sampling.
//
// Spearmint marginalizes GP hyperparameters by MCMC rather than point
// estimation; slice sampling (Neal 2003) with stepping-out is the sampler it
// uses. We apply it coordinate-by-coordinate over the log-hyperparameter
// vector, with the GP log marginal likelihood plus log prior as the target.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "common/rng.hpp"

namespace stormtune::gp {

struct SliceOptions {
  double width = 1.0;       ///< initial bracket width
  int max_step_out = 20;    ///< stepping-out iterations per side
  int max_shrink = 100;     ///< shrink iterations before giving up
};

/// A chain state and its log density.
struct SliceState {
  double x = 0.0;
  double log_density = 0.0;
};

/// Draw one sample from the unnormalized log density `log_density`,
/// starting at x0, whose log density the caller already knows to be `ly0`
/// (exactly what log_density(x0) returns), using the stepping-out slice
/// sampler. Returns the new state with its log density — x0 and ly0
/// unchanged if ly0 is not finite or the sampler cannot find an acceptable
/// point (pathological densities), so callers always get a valid state.
SliceState slice_sample_1d(const std::function<double(double)>& log_density,
                           double x0, double ly0, Rng& rng,
                           const SliceOptions& opts = {});

/// As above, evaluating log_density(x0) first; returns the new x.
double slice_sample_1d(const std::function<double(double)>& log_density,
                       double x0, Rng& rng, const SliceOptions& opts = {});

/// One full sweep of coordinate-wise slice sampling over `x` in place.
/// `log_density` receives the full vector. `ly` is log_density(x) on entry
/// when the caller has it (evaluated once otherwise); each coordinate's
/// draw hands its state's log density to the next, so the chain is the
/// one a per-coordinate re-evaluation would produce, with one evaluation
/// fewer per coordinate. Returns log_density(x) of the final state, for
/// the next sweep's `ly`.
double slice_sample_sweep(
    const std::function<double(const std::vector<double>&)>& log_density,
    std::vector<double>& x, Rng& rng, const SliceOptions& opts = {},
    std::optional<double> ly = std::nullopt);

}  // namespace stormtune::gp
