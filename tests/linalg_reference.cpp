#include "linalg_reference.hpp"

#include <cmath>

#include "common/error.hpp"

namespace stormtune::reference {

namespace {

double finish(double s, double diag, Scale scale) {
  return scale == Scale::kDivide ? s / diag : s * (1.0 / diag);
}

}  // namespace

Matrix cholesky_lower(const Matrix& a, Scale scale) {
  STORMTUNE_REQUIRE(a.rows() == a.cols(),
                    "reference::cholesky_lower: matrix must be square");
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    STORMTUNE_REQUIRE(diag > 0.0,
                      "reference::cholesky_lower: matrix not positive definite");
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      const auto li = l.row(i);
      const auto lj = l.row(j);
      for (std::size_t k = 0; k < j; ++k) s -= li[k] * lj[k];
      l(i, j) = finish(s, ljj, scale);
    }
  }
  return l;
}

Vector solve_lower(const Matrix& l, const Vector& b, Scale scale) {
  const std::size_t n = l.rows();
  STORMTUNE_REQUIRE(b.size() == n, "reference::solve_lower: size mismatch");
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    const auto li = l.row(i);
    for (std::size_t k = 0; k < i; ++k) s -= li[k] * y[k];
    y[i] = finish(s, l(i, i), scale);
  }
  return y;
}

Vector solve_lower_transpose(const Matrix& l, const Vector& y,
                             Scale scale) {
  const std::size_t n = l.rows();
  STORMTUNE_REQUIRE(y.size() == n,
                    "reference::solve_lower_transpose: size mismatch");
  Vector x(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double s = y[i];
    for (std::size_t k = i + 1; k < n; ++k) s -= l(k, i) * x[k];
    x[i] = finish(s, l(i, i), scale);
  }
  return x;
}

Matrix remove_row_col(const Matrix& a, std::size_t i) {
  const std::size_t n = a.rows();
  STORMTUNE_REQUIRE(a.cols() == n,
                    "reference::remove_row_col: matrix must be square");
  STORMTUNE_REQUIRE(i < n, "reference::remove_row_col: index out of range");
  Matrix out(n - 1, n - 1);
  for (std::size_t r = 0; r < n - 1; ++r) {
    const std::size_t sr = r < i ? r : r + 1;
    for (std::size_t c = 0; c < n - 1; ++c) {
      const std::size_t sc = c < i ? c : c + 1;
      out(r, c) = a(sr, sc);
    }
  }
  return out;
}

}  // namespace stormtune::reference
