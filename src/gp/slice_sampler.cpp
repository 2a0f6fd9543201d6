#include "gp/slice_sampler.hpp"

#include <cmath>
#include <limits>

namespace stormtune::gp {

SliceState slice_sample_1d(const std::function<double(double)>& log_density,
                           double x0, double ly0, Rng& rng,
                           const SliceOptions& opts) {
  const SliceState start{x0, ly0};
  if (!std::isfinite(ly0)) return start;
  // Vertical slice level: log(u * f(x0)) = ly0 + log(u).
  const double log_slice = ly0 + std::log(std::max(rng.uniform(), 1e-300));

  // Stepping out.
  double lo = x0 - opts.width * rng.uniform();
  double hi = lo + opts.width;
  for (int i = 0; i < opts.max_step_out && log_density(lo) > log_slice; ++i) {
    lo -= opts.width;
  }
  for (int i = 0; i < opts.max_step_out && log_density(hi) > log_slice; ++i) {
    hi += opts.width;
  }

  // Shrinkage.
  for (int i = 0; i < opts.max_shrink; ++i) {
    const double x1 = rng.uniform(lo, hi);
    const double ly1 = log_density(x1);
    if (ly1 > log_slice) return {x1, ly1};
    if (x1 < x0) {
      lo = x1;
    } else {
      hi = x1;
    }
    if (hi - lo < 1e-12) break;
  }
  return start;  // give up gracefully; keep the chain at its current state
}

double slice_sample_1d(const std::function<double(double)>& log_density,
                       double x0, Rng& rng, const SliceOptions& opts) {
  return slice_sample_1d(log_density, x0, log_density(x0), rng, opts).x;
}

double slice_sample_sweep(
    const std::function<double(const std::vector<double>&)>& log_density,
    std::vector<double>& x, Rng& rng, const SliceOptions& opts,
    std::optional<double> ly) {
  double cur = ly.has_value() ? *ly : log_density(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    auto conditional = [&](double xi) {
      const double saved = x[i];
      x[i] = xi;
      const double v = log_density(x);
      x[i] = saved;
      return v;
    };
    const SliceState next = slice_sample_1d(conditional, x[i], cur, rng, opts);
    x[i] = next.x;
    cur = next.log_density;
  }
  return cur;
}

}  // namespace stormtune::gp
