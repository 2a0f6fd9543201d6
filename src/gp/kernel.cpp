#include "gp/kernel.hpp"

#include <cmath>

#include "common/error.hpp"

namespace stormtune::gp {

std::string to_string(KernelFamily family) {
  switch (family) {
    case KernelFamily::kSquaredExponential: return "se";
    case KernelFamily::kMatern32: return "matern32";
    case KernelFamily::kMatern52: return "matern52";
  }
  return "unknown";
}

Kernel::Kernel(KernelFamily family, std::size_t dim, bool ard)
    : family_(family), dim_(dim), ard_(ard),
      lengthscales_(ard ? dim : 1, 1.0) {
  STORMTUNE_REQUIRE(dim > 0, "Kernel: dim must be positive");
}

double Kernel::scaled_squared_distance(std::span<const double> x,
                                       std::span<const double> y) const {
  STORMTUNE_REQUIRE(x.size() == dim_ && y.size() == dim_,
                    "Kernel: input dimension mismatch");
  double s = 0.0;
  if (ard_) {
    for (std::size_t i = 0; i < dim_; ++i) {
      const double d = (x[i] - y[i]) / lengthscales_[i];
      s += d * d;
    }
  } else {
    const double inv_l = 1.0 / lengthscales_[0];
    for (std::size_t i = 0; i < dim_; ++i) {
      const double d = (x[i] - y[i]) * inv_l;
      s += d * d;
    }
  }
  return s;
}

double Kernel::operator()(std::span<const double> x,
                          std::span<const double> y) const {
  const double a2 = amplitude_ * amplitude_;
  return a2 * linalg_kernels::correlation_from_scaled_sq(
                  family_, scaled_squared_distance(x, y));
}

double Kernel::variance() const { return amplitude_ * amplitude_; }

std::vector<double> Kernel::hyperparams() const {
  std::vector<double> p;
  p.reserve(num_hyperparams());
  p.push_back(std::log(amplitude_));
  for (double l : lengthscales_) p.push_back(std::log(l));
  return p;
}

void Kernel::set_hyperparams(std::span<const double> log_params) {
  STORMTUNE_REQUIRE(log_params.size() == num_hyperparams(),
                    "Kernel::set_hyperparams: size mismatch");
  amplitude_ = std::exp(log_params[0]);
  for (std::size_t i = 0; i < lengthscales_.size(); ++i) {
    lengthscales_[i] = std::exp(log_params[1 + i]);
  }
}

void Kernel::set_amplitude(double a) {
  STORMTUNE_REQUIRE(a > 0.0, "Kernel: amplitude must be positive");
  amplitude_ = a;
}

void Kernel::set_lengthscales(std::vector<double> ls) {
  STORMTUNE_REQUIRE(ls.size() == lengthscale_count(),
                    "Kernel: lengthscale count mismatch");
  for (double l : ls) {
    STORMTUNE_REQUIRE(l > 0.0, "Kernel: lengthscales must be positive");
  }
  lengthscales_ = std::move(ls);
}

}  // namespace stormtune::gp
