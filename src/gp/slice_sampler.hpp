// Univariate and coordinate-wise slice sampling.
//
// Spearmint marginalizes GP hyperparameters by MCMC rather than point
// estimation; slice sampling (Neal 2003) with stepping-out is the sampler it
// uses. We apply it coordinate-by-coordinate over the log-hyperparameter
// vector, with the GP log marginal likelihood plus log prior as the target.
//
// The chain reads its log density only through comparisons with the slice
// level, so a density may answer with an estimate and an allowance instead
// of its exact value: a comparison the allowances cannot decide asks for
// the exact values, and the chain is bit for bit the one exact values give
// (DESIGN.md §8, "Certified slice comparisons").
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace stormtune::gp {

struct SliceOptions {
  double width = 1.0;       ///< initial bracket width
  int max_step_out = 20;    ///< stepping-out iterations per side
  int max_shrink = 100;     ///< shrink iterations before giving up
};

/// A log density value: the exact one lies in [value − allowance,
/// value + allowance]. An exact value has allowance 0.
struct LogDensity {
  double value = 0.0;
  double allowance = 0.0;
};

/// exact(a) > exact(b) when the margin between the values clears both
/// allowances plus the rounding of one addition on each side, which covers
/// a slice level formed as log density + log u; nullopt otherwise (a near
/// tie, or a NaN). With both allowances 0 this is a.value > b.value.
std::optional<bool> certainly_greater(LogDensity a, LogDensity b);

/// exact(a) > exact(b), from the estimates where certainly_greater decides
/// and otherwise after replacing each estimated side by its exact value
/// (`exact_a()` / `exact_b()`, each returning allowance 0). Checked builds
/// also evaluate both exactly on every decision the estimates made and
/// require the same answer.
template <class ExactA, class ExactB>
bool exactly_greater(LogDensity& a, const ExactA& exact_a, LogDensity& b,
                     const ExactB& exact_b) {
  if (const std::optional<bool> certain = certainly_greater(a, b)) {
#ifdef STORMTUNE_CHECKED
    if (a.allowance != 0.0 || b.allowance != 0.0) {
      const double ea = a.allowance != 0.0 ? exact_a().value : a.value;
      const double eb = b.allowance != 0.0 ? exact_b().value : b.value;
      STORMTUNE_INVARIANT((ea > eb) == *certain,
                          "slice comparison: the estimates' decision differs "
                          "from the exact values'");
    }
#endif
    return *certain;
  }
  if (a.allowance != 0.0) a = exact_a();
  if (b.allowance != 0.0) b = exact_b();
  return a.value > b.value;
}

/// A log density that may estimate: f(x, false) returns an estimate or the
/// exact value, f(x, true) the exact value with allowance 0. An exact
/// density ignores the flag.
using LogDensityFn1d = std::function<LogDensity(double x, bool exact)>;
using LogDensityFn =
    std::function<LogDensity(const std::vector<double>& x, bool exact)>;

/// A chain state and its log density.
struct SliceState {
  double x = 0.0;
  LogDensity log_density;
};

/// Draw one sample from the unnormalized log density `log_density`,
/// starting at x0, whose log density the caller already knows to be `ly0`
/// (what log_density(x0, ·) returns), using the stepping-out slice
/// sampler. Every comparison with the slice level is decided as the exact
/// values decide it (exactly_greater), so the draw is the one an exact
/// density gives. Returns the new state with its log density — x0 and its
/// log density if ly0 is not finite or the sampler cannot find an
/// acceptable point (pathological densities), so callers always get a
/// valid state.
SliceState slice_sample_1d(const LogDensityFn1d& log_density, double x0,
                           LogDensity ly0, Rng& rng,
                           const SliceOptions& opts = {});

/// As above for an exact density, evaluating log_density(x0) first;
/// returns the new x.
double slice_sample_1d(const std::function<double(double)>& log_density,
                       double x0, Rng& rng, const SliceOptions& opts = {});

/// One full sweep of coordinate-wise slice sampling over `x` in place.
/// `log_density` receives the full vector. `ly` is log_density(x, false)
/// on entry when the caller has it (evaluated once otherwise); each
/// coordinate's draw hands its state's log density to the next, so the
/// chain is the one a per-coordinate re-evaluation would produce, with one
/// evaluation fewer per coordinate. Returns the final state's log density,
/// for the next sweep's `ly`.
LogDensity slice_sample_sweep(const LogDensityFn& log_density,
                              std::vector<double>& x, Rng& rng,
                              const SliceOptions& opts = {},
                              std::optional<LogDensity> ly = std::nullopt);

/// As above for an exact density.
double slice_sample_sweep(
    const std::function<double(const std::vector<double>&)>& log_density,
    std::vector<double>& x, Rng& rng, const SliceOptions& opts = {},
    std::optional<double> ly = std::nullopt);

}  // namespace stormtune::gp
