#include "gp/gp_regressor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>

#include "common/error.hpp"
#include "common/check.hpp"
#include "linalg/kernels.hpp"

namespace stormtune::gp {

namespace {

/// The transposed copy of the n×d inputs `x` that the distance kernel
/// reads, its row stride padded (linalg_kernels::padded_ld) so the
/// kernel's column strips do not alias in L1 at power-of-two n; the
/// padding columns are zero and never read as points.
Matrix transposed_inputs(const Matrix& x) {
  Matrix xt(x.cols(), linalg_kernels::padded_ld(x.rows()));
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto xi = x.row(i);
    for (std::size_t k = 0; k < xi.size(); ++k) xt(k, i) = xi[k];
  }
  return xt;
}

/// out(r, i) = ‖q_r − x_i‖², i < n, for `rows` contiguous query rows of
/// xt.rows() coordinates starting at `q`, against the points held
/// transposed in `xt` (column i = point i). Lanes run across the points;
/// each entry is the scalar 0 + Σ_k (x_ik − q_rk)², k ascending
/// (linalg/kernels.hpp).
void sq_dists(const Matrix& xt, std::size_t n, const double* q,
              std::size_t rows, double* out, std::size_t ldo) {
  linalg_kernels::ops().sq_dist_rows(xt.data(), xt.cols(), n, xt.rows(), q,
                                     xt.rows(), rows, out, ldo);
}

}  // namespace

GpRegressor::GpRegressor(Kernel kernel, double noise_variance,
                         double mean_value)
    : kernel_(std::move(kernel)),
      noise_variance_(noise_variance),
      mean_value_(mean_value) {
  STORMTUNE_REQUIRE(noise_variance >= 0.0,
                    "GpRegressor: noise variance must be >= 0");
  update_inverse_lengthscales();
}

void GpRegressor::update_inverse_lengthscales() {
  const auto ls = kernel_.lengthscales();
  // The count is fixed by the kernel, so only construction grows this.
  inv_sq_ls_.resize(ls.size());
  for (std::size_t i = 0; i < ls.size(); ++i) {
    inv_sq_ls_[i] = 1.0 / (ls[i] * ls[i]);
  }
}

const Matrix& GpRegressor::inputs() const {
  static const Matrix kNoInputs;
  return dist_ ? dist_->x : kNoInputs;
}

bool GpRegressor::x_matches(const Matrix& x) const {
  if (!dist_) return false;
  const Matrix& held = dist_->x;
  if (held.rows() != x.rows() || held.cols() != x.cols()) return false;
  // Bitwise comparison: hyperparameter search refits with the same X
  // hundreds of times per suggestion, so this runs hot. Representation
  // equality is stricter than value equality for every distance-relevant
  // case (-0.0 vs 0.0 merely rebuilds the cache needlessly), so a mismatch
  // only ever costs a redundant rebuild, never a stale cache.
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto a = held.row(i);
    const auto b = x.row(i);
    if (std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

void GpRegressor::rebuild_distance_cache(Matrix x) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  auto cache = std::make_shared<DistanceCache>();
  cache->x = std::move(x);
  const Matrix& xs = cache->x;
  cache->xt = transposed_inputs(xs);
  if (!kernel_.ard()) {
    // Full rows through the lane-parallel kernel: (x_j − x_i)² and
    // (x_i − x_j)² are the same bits, so the matrix is exactly symmetric,
    // and the diagonal is an exact zero.
    cache->sq = Matrix(n, n);
    sq_dists(cache->xt, n, xs.data(), n, cache->sq.data(), n);
  } else {
    cache->sq_dims.resize(n * (n - 1) / 2 * d);
    double* out = cache->sq_dims.data();
    for (std::size_t j = 0; j < n; ++j) {
      const auto xj = xs.row(j);
      for (std::size_t i = 0; i < j; ++i) {
        const auto xi = xs.row(i);
        for (std::size_t k = 0; k < d; ++k) {
          const double diff = xi[k] - xj[k];
          *out++ = diff * diff;
        }
      }
    }
  }
  dist_ = std::move(cache);
}

std::shared_ptr<GpRegressor::DistanceCache>
GpRegressor::extended_distance_cache(std::span<const double> x_new) const {
  const Matrix& xs = dist_->x;
  const std::size_t n = xs.rows();
  const std::size_t d = xs.cols();
  auto cache = std::make_shared<DistanceCache>();
  cache->x = Matrix(n + 1, d);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = xs.row(i);
    std::copy(src.begin(), src.end(), cache->x.row(i).begin());
  }
  std::copy(x_new.begin(), x_new.end(), cache->x.row(n).begin());
  cache->xt = Matrix(d, linalg_kernels::padded_ld(n + 1));
  for (std::size_t k = 0; k < d; ++k) {
    const auto src = dist_->xt.row(k);
    const auto dst = cache->xt.row(k);
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
    dst[n] = x_new[k];
  }
  if (!kernel_.ard()) {
    cache->sq = Matrix(n + 1, n + 1);
    for (std::size_t i = 0; i < n; ++i) {
      const auto src = dist_->sq.row(i);
      const auto dst = cache->sq.row(i);
      for (std::size_t j = 0; j < n; ++j) dst[j] = src[j];
    }
    const auto new_row = cache->sq.row(n);
    sq_dists(dist_->xt, n, x_new.data(), 1, new_row.data(), n);
    for (std::size_t i = 0; i < n; ++i) cache->sq(i, n) = new_row[i];
  } else {
    // The pair order (all (i, j) with i < j, grouped by ascending j) makes
    // appending a point a pure append: existing offsets are untouched.
    cache->sq_dims = dist_->sq_dims;
    cache->sq_dims.reserve(cache->sq_dims.size() + n * d);
    for (std::size_t i = 0; i < n; ++i) {
      const auto xi = xs.row(i);
      for (std::size_t k = 0; k < d; ++k) {
        const double diff = xi[k] - x_new[k];
        cache->sq_dims.push_back(diff * diff);
      }
    }
  }
  return cache;
}

void GpRegressor::ensure_correlation() {
  const auto ls = kernel_.lengthscales();
  if (corr_valid_ && corr_ls_.size() == ls.size() &&
      std::equal(corr_ls_.begin(), corr_ls_.end(), ls.begin())) {
    return;
  }
  corr_valid_ = false;
  const std::size_t n = num_observations();
  const std::vector<double>& inv = inv_sq_ls_;
  if (corr_.rows() != n || corr_.cols() != n) corr_ = Matrix(n, n);
  // Pack the strict upper triangle's scaled squared distances (pairs grouped
  // by ascending j, matching the ARD cache layout), push the whole thing
  // through the batched correlation transform, then scatter symmetrically.
  const std::size_t num_pairs = n * (n - 1) / 2;
  corr_r2_.resize(num_pairs);
  if (!kernel_.ard()) {
    const double inv0 = inv[0];
    std::size_t off = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const auto srow = dist_->sq.row(j);
      for (std::size_t i = 0; i < j; ++i) corr_r2_[off + i] = srow[i] * inv0;
      off += j;
    }
  } else {
    const std::size_t d = dist_->x.cols();
    const double* p = dist_->sq_dims.data();
    for (std::size_t pair = 0; pair < num_pairs; ++pair, p += d) {
      double r2 = 0.0;
      for (std::size_t k = 0; k < d; ++k) r2 += p[k] * inv[k];
      corr_r2_[pair] = r2;
    }
  }
  linalg_kernels::ops().correlation(kernel_.family(), 1.0, corr_r2_.data(),
                                    num_pairs);
  std::size_t off = 0;
  for (std::size_t j = 0; j < n; ++j) {
    corr_(j, j) = 1.0;
    for (std::size_t i = 0; i < j; ++i) {
      const double g = corr_r2_[off + i];
      corr_(i, j) = g;
      corr_(j, i) = g;
    }
    off += j;
  }
  corr_ls_.assign(ls.begin(), ls.end());
  corr_valid_ = true;
}

bool GpRegressor::factor_key_matches() const {
  const auto ls = kernel_.lengthscales();
  return chol_.has_value() && chol_amp_ == kernel_.amplitude() &&
         chol_noise_ == noise_variance_ && chol_noise_diag_ == noise_diag_ &&
         chol_ls_.size() == ls.size() &&
         std::equal(chol_ls_.begin(), chol_ls_.end(), ls.begin());
}

void GpRegressor::store_factor_key() {
  const auto ls = kernel_.lengthscales();
  chol_amp_ = kernel_.amplitude();
  chol_noise_ = noise_variance_;
  chol_noise_diag_ = noise_diag_;
  chol_ls_.assign(ls.begin(), ls.end());
}

void GpRegressor::ensure_cholesky() {
  if (chol_valid_ && factor_key_matches()) return;
  chol_valid_ = false;
  est_valid_ = false;
  const double a2 = kernel_.variance();
  // The factor is built straight from the cached correlation matrix:
  // Cholesky scales and shifts the diagonal during its own copy, so the
  // refit loop never materializes a²·C + σ_n²·I, and refactor() reuses the
  // factor's buffers — a warm refit performs no allocation at all. With a
  // noise diagonal set, the scalar noise moves into the per-row shift and
  // diag_add carries only the accumulated jitter.
  constexpr double kMaxJitter = 1e-2;
  double jitter = 1e-10;
  applied_jitter_ = 0.0;
  const bool het = !noise_diag_.empty();
  double diag_add = het ? 0.0 : noise_variance_;
  while (true) {
    try {
      if (chol_.has_value()) {
        if (het) {
          chol_->refactor(corr_, a2, diag_add, noise_diag_);
        } else {
          chol_->refactor(corr_, a2, diag_add);
        }
      } else if (het) {
        chol_.emplace(corr_, a2, diag_add,
                      std::span<const double>(noise_diag_));
      } else {
        chol_.emplace(corr_, a2, diag_add);
      }
      break;
    } catch (const Error&) {
      STORMTUNE_REQUIRE(jitter <= kMaxJitter,
                        "GpRegressor::fit: kernel matrix not SPD even with "
                        "maximum jitter");
      // Scale jitter with the signal variance so it is meaningful for
      // kernels with large amplitudes.
      const double add = jitter * std::max(1.0, kernel_.variance());
      diag_add += add;
      applied_jitter_ += add;
      jitter *= 100.0;
    }
  }
  store_factor_key();
  chol_valid_ = true;
}

namespace {

constexpr double kUnitRoundoff = 0x1p-53;

/// Higham's γ_k = k·u / (1 − k·u).
double gamma_k(double k) {
  return k * kUnitRoundoff / (1.0 - k * kUnitRoundoff);
}

}  // namespace

bool GpRegressor::ensure_estimate_factor() {
  if (est_valid_ && factor_key_matches()) return true;
  // The guards read only K's shape and diagonal shift, so they run before
  // the factor: a refused estimate leaves the exact factor cache alone.
  // DESIGN.md §8, "Certified slice comparisons", derives each bound.
  const std::size_t rows = num_observations();
  const double n = static_cast<double>(rows);
  const double d = static_cast<double>(dist_->x.cols());
  const double a2 = kernel_.variance();
  const bool het = !noise_diag_.empty();
  double s_min = het ? noise_diag_[0] : noise_variance_;
  double s_max = s_min;
  double s_sum = 0.0;
  for (std::size_t i = 0; i < rows; ++i) {
    const double s = het ? noise_diag_[i] : noise_variance_;
    s_min = std::min(s_min, s);
    s_max = std::max(s_max, s);
    s_sum += s;
  }
  // K = a²·C* + diag(K_ii − a²) + F with C* a PSD correlation matrix at the
  // exact inputs. Each off-diagonal |F_ij| ≤ a²·e: the distances' γ_{d+4}
  // relative rounding moves g by at most ½·γ_{d+4} (s·|g′(s)| ≤ ½ for all
  // three families), the transform adds its few ulps, the a² product one.
  const double e = (0.51 * (d + 8.0) + 33.0) * kUnitRoundoff;
  const double lambda_lb =
      s_min - 2.0 * kUnitRoundoff * (a2 + s_max) - n * a2 * e;
  if (!(lambda_lb > 0.0)) return false;
  const double trace_ub = (n * a2 + s_sum) * (1.0 + (n + 4.0) * kUnitRoundoff);
  const double g = gamma_k(n + 2.0);
  const double ratio = trace_ub / lambda_lb;
  // Demmel: refit's first attempt completes without jitter when
  // λ_min(D⁻¹KD⁻¹) ≥ λ_lb / tr K exceeds n·γ_{n+2}/(1 − γ_{n+2}); ask for
  // four times that.
  if (!(4.0 * n * g * ratio <= 1.0 - g)) return false;
  const double eta = 4.0 * g * ratio / (1.0 - g);
  if (!(eta <= 0.25)) return false;

  chol_valid_ = false;
  est_valid_ = false;
  if (!chol_.has_value()) chol_.emplace();
  const bool ok = het ? chol_->refactor_mirror(corr_, a2, 0.0, noise_diag_)
                      : chol_->refactor_mirror(corr_, a2, noise_variance_);
  if (!ok) return false;
  est_.lambda_lb = lambda_lb;
  est_.eta = eta;
  est_.log_det = chol_->log_determinant();
  // Each pivot L_ii² of L·Lᵀ = K + ΔK lies in [λ_lb(1 − η), K_max/(1 − g)].
  const double k_max = (a2 + s_max) * (1.0 + 4.0 * kUnitRoundoff) / (1.0 - g);
  const double log_span = std::max(std::fabs(std::log(lambda_lb * (1.0 - eta))),
                                   std::fabs(std::log(k_max)));
  est_.log_det_err = n * eta / (1.0 - eta) +
                     1.01 * (gamma_k(n) + 2.0 * kUnitRoundoff) * n * log_span;
  store_factor_key();
  est_valid_ = true;
  return true;
}

STORMTUNE_HOT std::optional<GpRegressor::LmlEstimate>
GpRegressor::estimate_log_marginal_likelihood(const Vector& y) {
  STORMTUNE_REQUIRE(dist_ != nullptr,
                    "GpRegressor::estimate_log_marginal_likelihood: no "
                    "inputs; call set_inputs() first");
  STORMTUNE_REQUIRE(num_observations() == y.size(),
                    "GpRegressor::estimate_log_marginal_likelihood: X/y "
                    "mismatch");
  STORMTUNE_REQUIRE(noise_diag_.empty() || noise_diag_.size() == y.size(),
                    "GpRegressor::estimate_log_marginal_likelihood: noise "
                    "diagonal size mismatch");
  fit_current_ = false;
  y_centered_.resize(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    y_centered_[i] = y[i] - mean_value_;
  }
  ensure_correlation();
  if (!ensure_estimate_factor()) return std::nullopt;
  est_z_.assign(y_centered_.begin(), y_centered_.end());
  const double q = chol_->mirror_forward_sq_norm(est_z_);
  double yy = 0.0;
  for (const double v : y_centered_) yy += v * v;
  const double n = static_cast<double>(y.size());
  const double eta = est_.eta;
  const double gn = gamma_k(n);
  // yᵀK⁻¹y ≤ q_ub; both paths' quadratic forms are within η/(1 − η) of it,
  // plus each path's own summation: ‖ẑ‖²'s here, dot(y, α̂)'s on refit's,
  // with ‖α̂‖ ≤ √(q_ub/λ_lb)/(1 − η).
  const double q_ub = (1.0 + eta) * q / (1.0 - gn);
  const double q_err =
      2.0 * eta / (1.0 - eta) * q_ub + gn * q / (1.0 - gn) +
      gn * std::sqrt(yy * (1.0 + gn)) * std::sqrt(q_ub / est_.lambda_lb) /
          (1.0 - eta);
  const double c = 0.5 * n * std::log(2.0 * std::numbers::pi);
  const double value = -0.5 * q - 0.5 * est_.log_det - c;
  // The log determinants differ by at most 2·log_det_err; both paths'
  // final sums round a few times more.
  const double sums = 8.0 * kUnitRoundoff *
                      (q_ub + std::fabs(est_.log_det) + est_.log_det_err + c);
  const double allowance = (0.5 * q_err + est_.log_det_err + sums) *
                           (1.0 + 16.0 * kUnitRoundoff);
  if (!std::isfinite(value) || !std::isfinite(allowance)) return std::nullopt;
  return LmlEstimate{value, allowance};
}

void GpRegressor::fit(const Matrix& x, const Vector& y) {
  STORMTUNE_REQUIRE(x.rows() == y.size(), "GpRegressor::fit: X/y mismatch");
  STORMTUNE_REQUIRE(noise_diag_.empty() || noise_diag_.size() == x.rows(),
                    "GpRegressor::fit: noise diagonal size mismatch");
  set_inputs(x);
  refit(y);
}

void GpRegressor::set_inputs(const Matrix& x) {
  if (x_matches(x)) {
    fit_current_ = false;
    return;
  }
  set_inputs(Matrix(x));
}

void GpRegressor::set_inputs(Matrix&& x) {
  STORMTUNE_REQUIRE(x.rows() > 0, "GpRegressor::set_inputs: no observations");
  STORMTUNE_REQUIRE(x.cols() == kernel_.input_dim(),
                    "GpRegressor::set_inputs: dimension mismatch with kernel");
  fit_current_ = false;
  if (!x_matches(x)) {
    rebuild_distance_cache(std::move(x));
    corr_valid_ = false;
    chol_valid_ = false;
    est_valid_ = false;
  }
}

void GpRegressor::refit(const Vector& y) {
  STORMTUNE_REQUIRE(dist_ != nullptr,
                    "GpRegressor::refit: no inputs; call fit() first");
  STORMTUNE_REQUIRE(num_observations() == y.size(),
                    "GpRegressor::refit: X/y mismatch");
  STORMTUNE_REQUIRE(noise_diag_.empty() || noise_diag_.size() == y.size(),
                    "GpRegressor::refit: noise diagonal size mismatch");
  fit_current_ = false;
  y_centered_.resize(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) y_centered_[i] = y[i] - mean_value_;

  ensure_correlation();
  ensure_cholesky();
  solve_alpha();
  fit_current_ = true;
}

void GpRegressor::solve_alpha() {
  // Cholesky::solve's two substitutions, run in alpha_'s own buffer: the
  // sampler refits hundreds of times per suggestion at one n.
  alpha_ = y_centered_;
  chol_->solve_lower_in_place(alpha_);
  chol_->solve_lower_transpose_in_place(alpha_);
}

STORMTUNE_HOT void GpRegressor::append_observation(
    std::span<const double> x_new, const Vector& y_all) {
  STORMTUNE_REQUIRE(noise_diag_.empty(),
                    "GpRegressor::append_observation: a noise diagonal is "
                    "set; use the noise_new overload");
  append_impl(x_new, y_all, noise_variance_);
}

STORMTUNE_HOT void GpRegressor::append_observation(
    std::span<const double> x_new, const Vector& y_all,
    double noise_new) {
  STORMTUNE_REQUIRE(noise_new >= 0.0,
                    "GpRegressor::append_observation: noise must be >= 0");
  // A homoscedastic fit transitions to a per-observation diagonal here:
  // existing rows keep the scalar variance, the new row carries its own.
  // The existing factor stays valid — its rows depend only on the old
  // diagonal entries, which are unchanged.
  if (noise_diag_.empty()) {
    noise_diag_.assign(num_observations(), noise_variance_);
  }
  STORMTUNE_REQUIRE(noise_diag_.size() == num_observations(),
                    "GpRegressor::append_observation: noise diagonal out of "
                    "sync with observations");
  noise_diag_.push_back(noise_new);
  append_impl(x_new, y_all, noise_new);
}

void GpRegressor::append_impl(std::span<const double> x_new,
                              const Vector& y_all, double noise_new) {
  STORMTUNE_REQUIRE(fitted(),
                    "GpRegressor::append_observation: call fit() first");
  const std::size_t n = num_observations();
  const std::size_t d = dist_->x.cols();
  STORMTUNE_REQUIRE(x_new.size() == d,
                    "GpRegressor::append_observation: dimension mismatch");
  STORMTUNE_REQUIRE(y_all.size() == n + 1,
                    "GpRegressor::append_observation: y must have n+1 entries");
  fit_current_ = false;

  dist_ = extended_distance_cache(x_new);

  // Extend the correlation matrix (valid because fitted() held on entry).
  const std::vector<double>& inv = inv_sq_ls_;
  Matrix grown_corr(n + 1, n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = corr_.row(i);
    const auto dst = grown_corr.row(i);
    for (std::size_t j = 0; j < n; ++j) dst[j] = src[j];
  }
  corr_r2_.resize(n);
  if (!kernel_.ard()) {
    const double inv0 = inv[0];
    const auto srow = dist_->sq.row(n);
    for (std::size_t i = 0; i < n; ++i) corr_r2_[i] = srow[i] * inv0;
  } else {
    const double* p = dist_->sq_dims.data() + (n * (n - 1) / 2) * d;
    for (std::size_t i = 0; i < n; ++i, p += d) {
      double r2 = 0.0;
      for (std::size_t k = 0; k < d; ++k) r2 += p[k] * inv[k];
      corr_r2_[i] = r2;
    }
  }
  linalg_kernels::ops().correlation(kernel_.family(), 1.0, corr_r2_.data(),
                                    n);
  for (std::size_t i = 0; i < n; ++i) {
    grown_corr(i, n) = corr_r2_[i];
    grown_corr(n, i) = corr_r2_[i];
  }
  grown_corr(n, n) = 1.0;
  corr_ = std::move(grown_corr);

  const double a2 = kernel_.variance();
  Vector k_col(n);
  for (std::size_t i = 0; i < n; ++i) k_col[i] = a2 * corr_(i, n);
  const double diag = a2 + noise_new + applied_jitter_;
  try {
    chol_->append_row(k_col, diag);
    // Keep the factor cache key in sync so a later ensure_cholesky with
    // unchanged hyperparameters does not refactor the appended diagonal.
    chol_noise_diag_ = noise_diag_;
  } catch (const Error&) {
    // The rank-grow extension is not numerically SPD (e.g. a near-duplicate
    // point with tiny noise); fall back to the jitter-escalating full
    // refactorization over the already-extended correlation cache.
    chol_valid_ = false;
    ensure_cholesky();
  }
  y_centered_.resize(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    y_centered_[i] = y_all[i] - mean_value_;
  }
  solve_alpha();
  fit_current_ = true;
}

STORMTUNE_HOT void GpRegressor::remove_observation(std::size_t idx,
                                                   const Vector& y_all) {
  STORMTUNE_REQUIRE(fitted(),
                    "GpRegressor::remove_observation: call fit() first");
  const std::size_t n = num_observations();
  const std::size_t d = dist_->x.cols();
  STORMTUNE_REQUIRE(idx < n,
                    "GpRegressor::remove_observation: index out of range");
  STORMTUNE_REQUIRE(n >= 2,
                    "GpRegressor::remove_observation: cannot empty the fit");
  STORMTUNE_REQUIRE(
      y_all.size() == n - 1,
      "GpRegressor::remove_observation: y must have n-1 entries");
  fit_current_ = false;
  const std::size_t m = n - 1;
  // Skip-copy helper: source row r of an n-sized structure for reduced row i.
  const auto src_of = [idx](std::size_t i) { return i < idx ? i : i + 1; };

  // Evict the row from the inputs and the distance cache in O(n²) copies —
  // the O(n²·d) distance loop never reruns for a remove.
  auto cache = std::make_shared<DistanceCache>();
  cache->x = Matrix(m, d);
  for (std::size_t i = 0; i < m; ++i) {
    const auto src = dist_->x.row(src_of(i));
    std::copy(src.begin(), src.end(), cache->x.row(i).begin());
  }
  cache->xt = transposed_inputs(cache->x);
  if (!kernel_.ard()) {
    cache->sq = Matrix(m, m);
    for (std::size_t i = 0; i < m; ++i) {
      const auto src = dist_->sq.row(src_of(i));
      const auto dst = cache->sq.row(i);
      for (std::size_t j = 0; j < m; ++j) dst[j] = src[src_of(j)];
    }
  } else {
    // Pairs (i, j), i < j, grouped by ascending j at offset
    // (j·(j−1)/2 + i)·d: the surviving pairs keep their relative order
    // under index remapping, so the repack is one forward write.
    cache->sq_dims.resize(m * (m - 1) / 2 * d);
    double* out = cache->sq_dims.data();
    const double* src = dist_->sq_dims.data();
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t sj = src_of(j);
      for (std::size_t i = 0; i < j; ++i) {
        const std::size_t si = src_of(i);
        const double* p = src + (sj * (sj - 1) / 2 + si) * d;
        for (std::size_t k = 0; k < d; ++k) *out++ = p[k];
      }
    }
  }
  dist_ = std::move(cache);

  // Correlation cache: same skip-copy (valid because fitted() held on entry
  // and the hyperparameters are unchanged).
  Matrix reduced_corr(m, m);
  for (std::size_t i = 0; i < m; ++i) {
    const auto src = corr_.row(src_of(i));
    const auto dst = reduced_corr.row(i);
    for (std::size_t j = 0; j < m; ++j) dst[j] = src[src_of(j)];
  }
  corr_ = std::move(reduced_corr);

  if (!noise_diag_.empty()) {
    noise_diag_.erase(noise_diag_.begin() +
                      static_cast<std::ptrdiff_t>(idx));
    // Keep the factor cache key in sync, as append_impl does.
    chol_noise_diag_ = noise_diag_;
  }

  // O(n²) Givens downdate of the factor; cannot fail on a valid factor, so
  // there is no refactorization fallback to take.
  chol_->remove_row(idx);

  y_centered_.resize(m);
  for (std::size_t i = 0; i < m; ++i) y_centered_[i] = y_all[i] - mean_value_;
  solve_alpha();
  fit_current_ = true;
}

Prediction GpRegressor::predict(std::span<const double> x) const {
  Matrix q(1, x.size());
  const auto dst = q.row(0);
  for (std::size_t k = 0; k < x.size(); ++k) dst[k] = x[k];
  std::vector<Prediction> out;
  predict_batch(q, out);
  return out[0];
}

std::vector<Prediction> GpRegressor::predict_batch(const Matrix& q) const {
  std::vector<Prediction> out;
  predict_batch(q, out);
  return out;
}

STORMTUNE_HOT void GpRegressor::predict_batch(
    const Matrix& q, std::vector<Prediction>& out) const {
  predict_rows(q, 0, q.rows(), out);
}

namespace {

// Rows of K* processed per multi-RHS forward substitution; bounds the V
// workspace at kPredictChunk * n doubles.
constexpr std::size_t kPredictChunk = 64;

// Finish a chunk given its cross-covariance block K* (one row per query):
// means against alpha, then one blocked multi-RHS forward substitution
// L V = K*ᵀ carrying all rows of the chunk at once
// (KernelOps::solve_lower_multi). The single-RHS solve has a loop-carried
// dependency; the multi-RHS sweep's inner updates run across queries, so
// they vectorize. Per query the operations and their order match the
// scalar solve_lower_in_place/dot path exactly, so results are bitwise
// identical to per-candidate solves.
void predict_chunk(const PosteriorView& post, const Matrix& kstar,
                   std::span<Prediction> out) {
  const std::size_t m = kstar.rows();
  const std::size_t n = post.num_observations();
  for (std::size_t r = 0; r < m; ++r) {
    const auto b = kstar.row(r);
    double mean = 0.0;
    for (std::size_t i = 0; i < n; ++i) mean += b[i] * post.alpha[i];
    out[r].mean = post.mean_value + mean;
  }
  Matrix v = kstar.transposed();
  linalg_kernels::ops().solve_lower_multi(post.lower, post.ld, v.data(),
                                          v.cols(), v.cols(), n);
  std::vector<double> ss(m, 0.0);  // Σ v_i² per query, i ascending
  for (std::size_t i = 0; i < n; ++i) {
    const auto vi = v.row(i);
    for (std::size_t r = 0; r < m; ++r) ss[r] += vi[r] * vi[r];
  }
  for (std::size_t r = 0; r < m; ++r) {
    const double var = post.variance - ss[r];
    out[r].variance = var < 0.0 ? 0.0 : var;  // numerical floor
  }
}

}  // namespace

PosteriorView GpRegressor::posterior() const {
  STORMTUNE_REQUIRE(fitted(), "GpRegressor::posterior: call fit() first");
  PosteriorView post;
  post.family = kernel_.family();
  post.ard = kernel_.ard();
  post.variance = kernel_.variance();
  post.mean_value = mean_value_;
  post.inv_sq_ls = inv_sq_ls_;
  post.lower = chol_->lower_rows();
  post.ld = chol_->stride();
  post.alpha = alpha_;
  return post;
}

STORMTUNE_HOT void GpRegressor::predict_rows(
    const Matrix& q, std::size_t row_begin, std::size_t row_end,
    std::vector<Prediction>& out) const {
  predict_rows(posterior(), q, row_begin, row_end, out);
}

STORMTUNE_HOT void GpRegressor::predict_rows(
    const PosteriorView& post, const Matrix& q, std::size_t row_begin,
    std::size_t row_end, std::vector<Prediction>& out) const {
  STORMTUNE_REQUIRE(fitted(), "GpRegressor::predict: call fit() first");
  STORMTUNE_REQUIRE(q.cols() == kernel_.input_dim(),
                    "GpRegressor::predict: dimension mismatch with kernel");
  STORMTUNE_REQUIRE(row_begin <= row_end && row_end <= q.rows(),
                    "GpRegressor::predict_rows: bad row range");
  STORMTUNE_REQUIRE(post.num_observations() == num_observations() &&
                        post.ard == kernel_.ard() &&
                        post.inv_sq_ls.size() == inv_sq_ls_.size(),
                    "GpRegressor::predict_rows: posterior of other inputs");
  const Matrix& x = dist_->x;
  const std::size_t n = x.rows();
  const std::size_t d = q.cols();
  const std::size_t total = row_end - row_begin;
  out.resize(total);
  const std::span<const double> inv = post.inv_sq_ls;
  Matrix kstar;
  for (std::size_t base = 0; base < total; base += kPredictChunk) {
    const std::size_t m = std::min(kPredictChunk, total - base);
    if (kstar.rows() != m) kstar = Matrix(m, n);
    if (!post.ard) {
      sq_dists(dist_->xt, n, q.row(row_begin + base).data(), m, kstar.data(),
               n);
    }
    for (std::size_t r = 0; r < m; ++r) {
      const auto u = q.row(row_begin + base + r);
      const auto krow = kstar.row(r);
      if (post.ard) {
        for (std::size_t i = 0; i < n; ++i) {
          const auto xi = x.row(i);
          double r2 = 0.0;
          for (std::size_t k = 0; k < d; ++k) {
            const double diff = xi[k] - u[k];
            r2 += diff * diff * inv[k];
          }
          krow[i] = r2;
        }
      } else {
        for (std::size_t i = 0; i < n; ++i) krow[i] *= inv[0];
      }
      linalg_kernels::ops().correlation(post.family, post.variance,
                                        krow.data(), n);
    }
    predict_chunk(post, kstar, std::span(out).subspan(base, m));
  }
}

void GpRegressor::unscaled_sq_dists(std::span<const double> u,
                                    std::span<double> out) const {
  STORMTUNE_REQUIRE(fitted(),
                    "GpRegressor::unscaled_sq_dists: call fit() first");
  const std::size_t n = num_observations();
  STORMTUNE_REQUIRE(u.size() == dist_->x.cols() && out.size() == n,
                    "GpRegressor::unscaled_sq_dists: size mismatch");
  sq_dists(dist_->xt, n, u.data(), 1, out.data(), n);
}

STORMTUNE_HOT void GpRegressor::unscaled_sq_dist_block(
    const double* qt, std::size_t ldq, std::size_t m, double* d2t,
    std::size_t ldd) const {
  STORMTUNE_REQUIRE(fitted(),
                    "GpRegressor::unscaled_sq_dist_block: call fit() first");
  STORMTUNE_REQUIRE(m <= ldq && m <= ldd,
                    "GpRegressor::unscaled_sq_dist_block: stride below m");
  // The distance kernel with the roles swapped: lanes across the m query
  // points (the transposed block), one output row per training point.
  const Matrix& x = dist_->x;
  linalg_kernels::ops().sq_dist_rows(qt, ldq, m, x.cols(), x.data(), x.cols(),
                                     x.rows(), d2t, ldd);
}

STORMTUNE_HOT void predict_mv_from_sq_dist_block(
    const PosteriorView& post, const double* d2t, std::size_t ldd,
    std::size_t m, double* v, std::size_t ldv, std::span<double> means,
    std::span<double> vars) {
  STORMTUNE_REQUIRE(!post.ard,
                    "predict_mv_from_sq_dist_block: non-ARD only");
  STORMTUNE_REQUIRE(
      m <= ldd && m <= ldv && means.size() == m && vars.size() == m,
      "predict_mv_from_sq_dist_block: size mismatch");
  const std::size_t n = post.num_observations();
  const double a2 = post.variance;
  const double inv0 = post.inv_sq_ls[0];
  const linalg_kernels::KernelOps& ops = linalg_kernels::ops();
  // V = K*ᵀ (row i = candidate values of training point i), built from the
  // distance block's row i: both stride-1, and this is the layout the
  // solve wants.
  for (std::size_t i = 0; i < n; ++i) {
    double* vi = v + i * ldv;
    const double* di = d2t + i * ldd;
    for (std::size_t c = 0; c < m; ++c) vi[c] = di[c] * inv0;
    ops.correlation(post.family, a2, vi, m);
  }
  // Means before the solve overwrites V: per candidate 0 + Σ_i v_i·α_i,
  // i ascending — the chunked path's dot-product order.
  ops.column_dots(v, ldv, n, m, post.alpha.data(), means.data());
  for (std::size_t c = 0; c < m; ++c) means[c] = post.mean_value + means[c];
  // One forward substitution over the block; a column's result does not
  // depend on which other columns share it (KernelOps::solve_lower_multi).
  ops.solve_lower_multi(post.lower, post.ld, v, ldv, m, n);
  ops.column_sq_sums(v, ldv, n, m, vars.data());
  for (std::size_t c = 0; c < m; ++c) {
    const double var = a2 - vars[c];
    vars[c] = var < 0.0 ? 0.0 : var;  // numerical floor
  }
}

Posterior::Posterior(const PosteriorView& post)
    : family_(post.family),
      ard_(post.ard),
      variance_(post.variance),
      mean_value_(post.mean_value),
      inv_sq_ls_(post.inv_sq_ls.begin(), post.inv_sq_ls.end()),
      ld_(linalg_kernels::padded_ld(post.num_observations())),
      lower_(post.num_observations() * ld_),
      alpha_(post.alpha.begin(), post.alpha.end()) {
  // Only each row's lower triangle is copied: the solve kernels read row i
  // up to its diagonal and nothing past it.
  for (std::size_t i = 0; i < alpha_.size(); ++i) {
    std::copy_n(post.lower + i * post.ld, i + 1, lower_.data() + i * ld_);
  }
}

PosteriorView Posterior::view() const {
  PosteriorView post;
  post.family = family_;
  post.ard = ard_;
  post.variance = variance_;
  post.mean_value = mean_value_;
  post.inv_sq_ls = inv_sq_ls_;
  post.lower = lower_.data();
  post.ld = ld_;
  post.alpha = alpha_;
  return post;
}

double GpRegressor::log_marginal_likelihood() const {
  STORMTUNE_REQUIRE(fitted(), "GpRegressor: call fit() first");
  const double n = static_cast<double>(num_observations());
  return -0.5 * dot(y_centered_, alpha_) - 0.5 * chol_->log_determinant() -
         0.5 * n * std::log(2.0 * std::numbers::pi);
}

void GpRegressor::set_kernel_hyperparams(std::span<const double> log_params) {
  kernel_.set_hyperparams(log_params);
  update_inverse_lengthscales();
  fit_current_ = false;
}

void GpRegressor::set_noise_variance(double nv) {
  STORMTUNE_REQUIRE(nv >= 0.0, "GpRegressor: noise variance must be >= 0");
  noise_variance_ = nv;
  fit_current_ = false;
}

void GpRegressor::set_mean_value(double m) {
  mean_value_ = m;
  fit_current_ = false;
}

void GpRegressor::set_noise_diag(std::span<const double> nv) {
  for (const double v : nv) {
    STORMTUNE_REQUIRE(v >= 0.0, "GpRegressor: noise variance must be >= 0");
  }
  noise_diag_.assign(nv.begin(), nv.end());
  fit_current_ = false;
}

}  // namespace stormtune::gp
