// Covariance kernels for Gaussian-process regression.
//
// Spearmint — the optimizer the paper uses — models the objective with an
// ARD Matérn 5/2 kernel; we provide that plus squared-exponential and
// Matérn 3/2 for the kernel ablation bench. Hyperparameters live in log
// space so that slice sampling and MLE search operate on an unconstrained
// parameterization.
//
// The correlation functions themselves live in linalg/kernels.hpp: the
// scalar form (linalg_kernels::correlation_from_scaled_sq) for one pair,
// and KernelOps::correlation, the ISA-dispatched batch map that every
// correlation the regressor materializes goes through.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "linalg/kernels.hpp"

namespace stormtune::gp {

using KernelFamily = linalg_kernels::KernelFamily;

std::string to_string(KernelFamily family);

/// A stationary kernel with signal amplitude and per-dimension (ARD) or
/// shared (isotropic) lengthscales.
class Kernel {
 public:
  /// `dim` is the input dimension. With `ard` set, one lengthscale per
  /// dimension; otherwise a single shared lengthscale.
  Kernel(KernelFamily family, std::size_t dim, bool ard);

  KernelFamily family() const { return family_; }
  std::size_t input_dim() const { return dim_; }
  bool ard() const { return ard_; }

  /// Covariance between two points.
  double operator()(std::span<const double> x, std::span<const double> y) const;

  /// k(x, x) = amplitude^2 for all stationary kernels here.
  double variance() const;

  // -- log-space hyperparameter block: [log_amplitude, log_lengthscale...] --

  std::size_t num_hyperparams() const { return 1 + lengthscale_count(); }
  std::vector<double> hyperparams() const;
  void set_hyperparams(std::span<const double> log_params);

  double amplitude() const { return amplitude_; }
  void set_amplitude(double a);
  std::span<const double> lengthscales() const { return lengthscales_; }
  void set_lengthscales(std::vector<double> ls);

 private:
  std::size_t lengthscale_count() const { return ard_ ? dim_ : 1; }
  /// Scaled squared distance r² = sum ((x_i - y_i)/l_i)^2.
  double scaled_squared_distance(std::span<const double> x,
                                 std::span<const double> y) const;

  KernelFamily family_;
  std::size_t dim_;
  bool ard_;
  double amplitude_ = 1.0;
  std::vector<double> lengthscales_;
};

}  // namespace stormtune::gp
