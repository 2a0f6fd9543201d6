#include "bayesopt/acquisition.hpp"

#include <cmath>

#include "common/error.hpp"

namespace stormtune::bo {

double normal_pdf(double z) {
  return std::exp(-0.5 * z * z) * 0.39894228040143267794;
}

double normal_cdf(double z) {
  return 0.5 * std::erfc(-z * 0.70710678118654752440);
}

double expected_improvement(double mean, double variance, double best,
                            double xi) {
  STORMTUNE_REQUIRE(variance >= 0.0, "expected_improvement: variance < 0");
  const double improvement = mean - best - xi;
  if (variance == 0.0) return improvement > 0.0 ? improvement : 0.0;
  const double sd = std::sqrt(variance);
  const double z = improvement / sd;
  return improvement * normal_cdf(z) + sd * normal_pdf(z);
}

// The accumulate loop calls the scalar function (same translation unit, so
// it inlines): the per-element arithmetic is literally the scalar path, and
// only the call/ABI overhead is hoisted out of the loop.
void expected_improvement_accumulate(std::span<const double> means,
                                     std::span<const double> variances,
                                     double best, double xi,
                                     std::span<double> acc) {
  STORMTUNE_REQUIRE(
      means.size() == variances.size() && means.size() == acc.size(),
      "expected_improvement_accumulate: size mismatch");
  for (std::size_t i = 0; i < means.size(); ++i) {
    acc[i] += expected_improvement(means[i], variances[i], best, xi);
  }
}

}  // namespace stormtune::bo
