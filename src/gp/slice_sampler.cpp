#include "gp/slice_sampler.hpp"

#include <cmath>
#include <limits>

namespace stormtune::gp {

std::optional<bool> certainly_greater(LogDensity a, LogDensity b) {
  if (a.allowance == 0.0 && b.allowance == 0.0) return a.value > b.value;
  // Each side may carry one more rounded addition than its exact
  // counterpart (the slice level's + log u), and the margin and the
  // tolerance round themselves: 4u of the magnitudes covers all of it.
  constexpr double k4u = 4.0 * 0x1p-53;
  const double margin = a.value - b.value;
  // Only an exact -inf meets an estimate at an infinite margin: an estimate
  // is finite, so the exact -inf side is the lower one.
  if (std::isinf(margin)) return margin > 0.0;
  const double tol = (a.allowance + b.allowance) * (1.0 + k4u) +
                     k4u * (std::fabs(a.value) + std::fabs(b.value));
  if (margin > tol) return true;
  if (margin < -tol) return false;
  return std::nullopt;  // a near tie, or a NaN
}

SliceState slice_sample_1d(const LogDensityFn1d& log_density, double x0,
                           LogDensity ly0, Rng& rng,
                           const SliceOptions& opts) {
  const SliceState start{x0, ly0};
  if (!std::isfinite(ly0.value)) return start;
  // Vertical slice level: log(u * f(x0)) = ly0 + log(u). It carries ly0's
  // allowance until a near tie replaces it by the exact level, which is
  // then kept for the rest of the draw.
  const double log_u = std::log(std::max(rng.uniform(), 1e-300));
  LogDensity slice{ly0.value + log_u, ly0.allowance};
  const auto exact_slice = [&] {
    return LogDensity{log_density(x0, true).value + log_u};
  };
  const auto above_slice = [&](double x, LogDensity& ly) {
    return exactly_greater(
        ly, [&] { return log_density(x, true); }, slice, exact_slice);
  };

  // Stepping out.
  double lo = x0 - opts.width * rng.uniform();
  double hi = lo + opts.width;
  for (int i = 0; i < opts.max_step_out; ++i) {
    LogDensity ly = log_density(lo, false);
    if (!above_slice(lo, ly)) break;
    lo -= opts.width;
  }
  for (int i = 0; i < opts.max_step_out; ++i) {
    LogDensity ly = log_density(hi, false);
    if (!above_slice(hi, ly)) break;
    hi += opts.width;
  }

  // Shrinkage.
  for (int i = 0; i < opts.max_shrink; ++i) {
    const double x1 = rng.uniform(lo, hi);
    LogDensity ly1 = log_density(x1, false);
    if (above_slice(x1, ly1)) return {x1, ly1};
    if (x1 < x0) {
      lo = x1;
    } else {
      hi = x1;
    }
    if (hi - lo < 1e-12) break;
  }
  return start;  // give up gracefully; keep the chain at its current state
}

LogDensity slice_sample_sweep(const LogDensityFn& log_density,
                              std::vector<double>& x, Rng& rng,
                              const SliceOptions& opts,
                              std::optional<LogDensity> ly) {
  LogDensity cur = ly.has_value() ? *ly : log_density(x, false);
  // The conditional captures one pointer, which std::function stores
  // without allocating; only the coordinate changes between draws.
  struct Coordinate {
    const LogDensityFn& f;
    std::vector<double>& x;
    std::size_t i;
  } coord{log_density, x, 0};
  const LogDensityFn1d conditional = [&coord](double xi, bool exact) {
    const double saved = coord.x[coord.i];
    coord.x[coord.i] = xi;
    const LogDensity v = coord.f(coord.x, exact);
    coord.x[coord.i] = saved;
    return v;
  };
  for (; coord.i < x.size(); ++coord.i) {
    const SliceState next =
        slice_sample_1d(conditional, x[coord.i], cur, rng, opts);
    x[coord.i] = next.x;
    cur = next.log_density;
  }
  return cur;
}

}  // namespace stormtune::gp
