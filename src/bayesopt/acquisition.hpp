// The acquisition function for Bayesian Optimization.
//
// The paper uses Expected Improvement (Mockus 1978), the Spearmint default
// (Section III-C). Probability of Improvement and GP-UCB, the other two
// "most common ones" it names, measured no better than EI over 8 seeds
// (EXPERIMENTS.md, "Surrogate ablations at 8 seeds") and were removed.
// The formulas are written for *maximization* of the objective, matching
// the paper's throughput-maximization setting.
#pragma once

#include <span>

namespace stormtune::bo {

/// Standard normal PDF.
double normal_pdf(double z);

/// Standard normal CDF (via erfc, accurate over the full range).
double normal_cdf(double z);

/// EI(x) = E[max(0, f(x) - f_best)] for a Gaussian predictive distribution
/// with the given mean/variance. `xi` is the optional exploration offset.
double expected_improvement(double mean, double variance, double best,
                            double xi = 0.0);

/// Batch accumulator: acc[i] += expected_improvement(means[i],
/// variances[i], best, xi) over contiguous mean/variance arrays, element
/// for element the scalar function (so batch scores are bitwise identical
/// to per-candidate scoring). All spans must have equal length.
void expected_improvement_accumulate(std::span<const double> means,
                                     std::span<const double> variances,
                                     double best, double xi,
                                     std::span<double> acc);

}  // namespace stormtune::bo
