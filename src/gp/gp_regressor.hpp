// Exact Gaussian-process regression with Gaussian observation noise.
//
// This is the probabilistic surrogate at the heart of the paper's method
// (Section III-C): given configuration/throughput observations D_{1:t}, the
// posterior GP supplies the predictive mean and variance from which the
// Expected Improvement acquisition function is computed.
//
// Hyperparameter inference (slice sampling, MLE coordinate search) refits the
// same regressor hundreds of times per suggestion while X never changes, so
// fit() maintains a layered cache keyed on what each layer actually depends
// on (see DESIGN.md "Performance architecture"):
//   L0  pairwise distance structure            — depends on X only
//   L1  unit-amplitude correlation matrix g(r) — depends on X + lengthscales
//   L2  Cholesky factor of a²·C + σ_n²·I       — depends on X + all kernel
//       hyperparameters + noise
// A refit that changes only the constant mean costs O(n²) (one solve); one
// that changes amplitude or noise costs O(n²) + O(n³/3) but never touches
// the O(n²·d) distance loop; only a lengthscale change rebuilds g(r), and
// even that reads cached distances instead of X.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "gp/kernel.hpp"
#include "linalg/matrix.hpp"

namespace stormtune::gp {

/// Predictive distribution at a single query point.
struct Prediction {
  double mean = 0.0;
  double variance = 0.0;  ///< includes neither observation noise nor jitter
};

/// What predicting from a fitted regressor reads, and nothing else: the
/// kernel's family and hyperparameters, the constant mean, the n lower
/// rows of the Cholesky factor L and α = K⁻¹(y − m). A view borrows them
/// from a GpRegressor (GpRegressor::posterior) or a Posterior. It holds no
/// training inputs: the regressor that holds X builds the distance block
/// it is scored on (GpRegressor::sq_dist_block,
/// predict_mv_from_sq_dist_block).
struct PosteriorView {
  KernelFamily family = KernelFamily::kMatern52;
  bool ard = false;
  double variance = 0.0;              ///< a² = k(x, x)
  double mean_value = 0.0;
  std::span<const double> inv_sq_ls;  ///< 1/l_k² per lengthscale
  const double* lower = nullptr;      ///< row i of L at lower + i·ld
  std::size_t ld = 0;
  std::span<const double> alpha;      ///< one entry per observation

  std::size_t num_observations() const { return alpha.size(); }

  /// Whether one distance block serves every posterior fitted on the same
  /// inputs. An isotropic posterior scales the unscaled block by its one
  /// 1/l² inside the predictor; ARD scales each dimension before summing,
  /// so its block is its own (GpRegressor::sq_dist_block).
  bool shares_distances() const { return !ard; }
};

/// Predictive means and variances of m candidates from the training-point-
/// major distance block GpRegressor::sq_dist_block built for `post` (or,
/// when post.shares_distances(), for any posterior on the same inputs).
/// Builds V = K*ᵀ in the caller-owned n-row workspace `v` (row stride
/// ldv ≥ m; linalg_kernels::padded_ld(m) keeps the solve's strips
/// alias-free), reading each distance row stride-1, then: means through
/// the column-dot kernel against α, one multi-RHS forward substitution,
/// variances through the column sum-of-squares kernel. Per candidate every
/// reduction runs in ascending training-point order and every element-wise
/// map is the same single-value transform, so a candidate's results do
/// not depend on m, its column or the other candidates in the block. This
/// is the one prediction path: predict and predict_batch wrap it.
/// `means`/`vars` must have m entries. Thread-safe for concurrent calls
/// with distinct workspaces.
void predict_mv_from_sq_dist_block(const PosteriorView& post,
                                   const double* d2t, std::size_t ldd,
                                   std::size_t m, double* v, std::size_t ldv,
                                   std::span<double> means,
                                   std::span<double> vars);

class GpRegressor {
 public:
  /// `noise_variance` is the Gaussian observation-noise variance sigma_n^2;
  /// `mean_value` is a constant prior mean subtracted from targets.
  GpRegressor(Kernel kernel, double noise_variance, double mean_value = 0.0);

  /// Fit to inputs X (one row per observation, dim columns) and targets y.
  /// Escalates diagonal jitter on Cholesky failure up to `max_jitter`.
  /// Re-fitting with the same X reuses the cached distance structure (and,
  /// where the hyperparameters allow, the correlation matrix and factor).
  void fit(const Matrix& x, const Vector& y);

  /// The first half of fit(): adopt inputs X, rebuilding the distance cache
  /// unless X is bitwise the one already held. Leaves the regressor
  /// unfitted; refit() completes it.
  void set_inputs(const Matrix& x);
  /// As above, moving a new X into the distance cache instead of copying.
  void set_inputs(Matrix&& x);

  /// The second half of fit(): fit targets `y` on the inputs already held
  /// (set_inputs, fit, or the incremental updates) with the current
  /// hyperparameters. fit(inputs(), y) without its O(n·d) input comparison
  /// — the hyperparameter sampler refits one X some hundreds of times per
  /// suggestion. Same bits as fit().
  void refit(const Vector& y);

  /// Incremental refit: add one observation `x_new` together with the full
  /// (possibly re-standardized) target vector `y_all` of length n+1. Grows
  /// the Cholesky factor by one row — O(n²) instead of the O(n³) full
  /// refactorization — and extends the distance/correlation caches. Requires
  /// fitted() and unchanged hyperparameters; falls back to a full
  /// refactorization if the rank-grow update is not numerically SPD.
  /// Requires a homoscedastic fit (no noise diagonal set) — heteroscedastic
  /// appends must state the new row's noise via the overload below.
  void append_observation(std::span<const double> x_new, const Vector& y_all);

  /// Heteroscedastic append: like append_observation, with `noise_new` the
  /// new observation's noise variance. A homoscedastic fit transitions to a
  /// per-observation diagonal here — existing rows keep the scalar variance,
  /// the new row carries its own — so mixed-fidelity observers can start
  /// from a single-rung initial design.
  void append_observation(std::span<const double> x_new, const Vector& y_all,
                          double noise_new);

  /// Incremental evict: remove observation row `idx` together with the full
  /// (possibly re-standardized) remaining target vector `y_all` of length
  /// n−1. The dual of append_observation — every fit cache evicts the row
  /// instead of invalidating wholesale: the distance and correlation caches
  /// are copy-reduced in O(n²) (never the O(n²·d) distance recompute), a
  /// heteroscedastic noise diagonal drops its entry, and the Cholesky factor
  /// is downdated in place via Cholesky::remove_row — O(n²) Givens
  /// rotations, never the O(n³) refactorization, and unlike append it
  /// cannot fail on a valid factor. Requires fitted(), unchanged
  /// hyperparameters, and at least two observations. This is the
  /// sliding-window surrogate's eviction path: a window slide costs one
  /// remove + one append, both O(n²).
  void remove_observation(std::size_t idx, const Vector& y_all);

  bool fitted() const { return chol_.has_value() && fit_current_; }
  std::size_t num_observations() const { return dist_ ? dist_->x.rows() : 0; }
  /// Training inputs of the current fit, one row per observation. Held in
  /// the distance cache, so copies of the regressor share one X.
  const Matrix& inputs() const;

  /// The current fit's posterior, borrowed: valid until the next mutation
  /// of this regressor. Requires fitted().
  PosteriorView posterior() const;

  Prediction predict(std::span<const double> x) const;

  /// Predict at every row of `q`: the rows transposed into blocks of 64,
  /// each through sq_dist_block and predict_mv_from_sq_dist_block on
  /// posterior().
  /// Thread-safe for concurrent calls on a fitted regressor (read-only).
  std::vector<Prediction> predict_batch(const Matrix& q) const;
  /// As above into `out`, resized to q.rows().
  void predict_batch(const Matrix& q, std::vector<Prediction>& out) const;

  /// Unscaled squared distances from one query point to the training
  /// inputs: out[i] = ‖u − x_i‖² = 0 + Σ_k (x_ik − u_k)², k ascending, for
  /// i < n. Kernel-independent, like the block below.
  void unscaled_sq_dists(std::span<const double> u,
                         std::span<double> out) const;

  /// The training-point-major distance block that
  /// predict_mv_from_sq_dist_block scores `post` from, for m query points
  /// held transposed — qt[k·ldq + c] is coordinate k of point c (ldq ≥ m)
  /// — into d2t[i·ldd + c], i < n, c < m (ldd ≥ m). `post` is a posterior
  /// on these inputs (posterior() or a Posterior of another fit on them).
  ///  * Isotropic: d2t = ‖q_c − x_i‖² = 0 + Σ_k (q_ck − x_ik)², k
  ///    ascending, unscaled, so one block serves every isotropic
  ///    posterior on these inputs (PosteriorView::shares_distances). Every
  ///    entry equals what unscaled_sq_dists gives for q_c.
  ///  * ARD: d2t = 0 + Σ_k (q_ck − x_ik)²·(1/l_k²), k ascending, the r²
  ///    the fit's correlation matrix is built from.
  /// (a − b)² and (b − a)² are the same bits, so the operand order does
  /// not matter.
  void sq_dist_block(const PosteriorView& post, const double* qt,
                     std::size_t ldq, std::size_t m, double* d2t,
                     std::size_t ldd) const;


  /// log p(y | X, theta); requires fit() to have been called.
  double log_marginal_likelihood() const;

  /// An estimate of log_marginal_likelihood() and a bound on how far the
  /// exact value can be from it: |exact − value| ≤ allowance.
  struct LmlEstimate {
    double value = 0.0;
    double allowance = 0.0;
  };

  /// Estimate what refit(y) followed by log_marginal_likelihood() would
  /// return under the current hyperparameters, from the same K bits but
  /// one fused mirror-only factor (Cholesky::refactor_mirror) and one
  /// forward solve, with a derived rounding allowance (DESIGN.md §8,
  /// "Certified slice comparisons"). The factor and its log determinant
  /// are kept while only the mean changes. Returns nullopt where only the
  /// exact path can answer: the fused factor fails, the allowance's η
  /// exceeds 1/4, or refit's first factor attempt is not provably free of
  /// jitter escalation. Requires inputs (set_inputs or fit); leaves the
  /// regressor unfitted and its exact factor cache invalidated.
  std::optional<LmlEstimate> estimate_log_marginal_likelihood(
      const Vector& y);

  const Kernel& kernel() const { return kernel_; }
  double noise_variance() const { return noise_variance_; }
  double mean_value() const { return mean_value_; }
  /// Per-observation noise variances; empty when homoscedastic.
  const std::vector<double>& noise_diag() const { return noise_diag_; }

  /// Mutators invalidate the current fit; call fit() again afterwards.
  /// Caches survive mutation and are reused where their keys still match.
  void set_kernel_hyperparams(std::span<const double> log_params);
  void set_noise_variance(double nv);
  void set_mean_value(double m);

  /// Per-observation noise variances (heteroscedastic observations — e.g.
  /// mixed-fidelity measurements where each rung carries its own σ_n²).
  /// Must have one entry per row of the next fit()'s X; an empty span
  /// restores the homoscedastic scalar. When every entry equals
  /// noise_variance(), fits are bit-identical to the scalar path: the
  /// Cholesky applies the same two-operand diagonal additions in the same
  /// order (see Cholesky::refactor's heteroscedastic overload).
  void set_noise_diag(std::span<const double> nv);

 private:
  /// The inputs X and their pairwise distance structure: for non-ARD
  /// kernels the unscaled squared distances ‖x_i − x_j‖²; ARD caches
  /// nothing beyond X, since its scaled distances depend on the
  /// lengthscales and are summed straight from xt. Immutable once built
  /// and shared across copies of the regressor, so a copy carries only its
  /// hyperparameters' fit.
  struct DistanceCache {
    Matrix x;   // the inputs, one row per observation
    Matrix sq;  // non-ARD: n×n unscaled squared distances
    Matrix xt;  // X transposed (d rows, stride padded past n): the
                // distance kernels' operand
  };

  bool x_matches(const Matrix& x) const;
  /// Adopt `x` as the inputs and build the distance structure over it.
  void rebuild_distance_cache(Matrix x);
  /// The inputs grown by `x_new` and their extended distance structure.
  std::shared_ptr<DistanceCache> extended_distance_cache(
      std::span<const double> x_new) const;
  void ensure_correlation();
  /// True when chol_ was built for the current amplitude, noise, noise
  /// diagonal and lengthscales (by either ensure_* below).
  bool factor_key_matches() const;
  void store_factor_key();
  void ensure_cholesky();
  /// Make chol_'s mirror the estimate factor of the current
  /// hyperparameters and est_ its terms; false when the estimate cannot
  /// be certified (see estimate_log_marginal_likelihood).
  bool ensure_estimate_factor();
  /// alpha_ = K⁻¹ y_centered_ through the current factor.
  void solve_alpha();
  void append_impl(std::span<const double> x_new, const Vector& y_all,
                   double noise_new);
  /// Recompute inv_sq_ls_ from the kernel's lengthscales.
  void update_inverse_lengthscales();

  Kernel kernel_;
  double noise_variance_;
  double mean_value_;
  std::vector<double> noise_diag_;  // empty = homoscedastic scalar path
  /// 1/l_k² per lengthscale, kept in step with kernel_ by
  /// set_kernel_hyperparams: the fit and scoring paths read it without
  /// building a vector per call.
  std::vector<double> inv_sq_ls_;

  Vector y_centered_;
  std::optional<Cholesky> chol_;
  Vector alpha_;  // K^{-1} (y - m)
  double applied_jitter_ = 0.0;

  // --- layered fit caches ---
  std::shared_ptr<const DistanceCache> dist_;
  Matrix corr_;                  // unit-amplitude correlation, unit diagonal
  std::vector<double> corr_r2_;  // packed-r² scratch for the batch transform
  std::vector<double> corr_ls_;  // lengthscales corr_ was built with
  bool corr_valid_ = false;
  double chol_amp_ = 0.0;        // hyperparameters chol_ was built with
  double chol_noise_ = -1.0;
  std::vector<double> chol_noise_diag_;
  std::vector<double> chol_ls_;
  bool chol_valid_ = false;      // chol_ holds refit's exact factor
  bool fit_current_ = false;     // alpha_ matches the current parameters

  /// What an estimate factor's allowance needs besides y: the smallest
  /// eigenvalue's lower bound, the relative backward error η and the log
  /// determinant with its error bound on either path.
  struct EstimateTerms {
    double lambda_lb = 0.0;
    double eta = 0.0;
    double log_det = 0.0;
    double log_det_err = 0.0;
  };
  EstimateTerms est_;
  bool est_valid_ = false;       // chol_'s mirror holds the estimate factor
  Vector est_z_;                 // forward-solve scratch
};

/// An owned copy of a fitted regressor's posterior (PosteriorView): the
/// factor's n lower rows at stride linalg_kernels::padded_ld(n), α and the
/// hyperparameters — about 8·n² bytes, where a GpRegressor copy also
/// carries the correlation matrix, its packed-r² scratch and the factor's
/// transposed mirror. A surrogate marginalizing over hyper samples refits
/// one regressor per sample and keeps only this; the regressor's inputs
/// score it (GpRegressor::sq_dist_block, predict_mv_from_sq_dist_block).
class Posterior {
 public:
  Posterior() = default;
  explicit Posterior(const PosteriorView& post);

  PosteriorView view() const;

 private:
  KernelFamily family_ = KernelFamily::kMatern52;
  bool ard_ = false;
  double variance_ = 0.0;
  double mean_value_ = 0.0;
  std::vector<double> inv_sq_ls_;
  std::size_t ld_ = 0;
  std::vector<double> lower_;
  Vector alpha_;
};

}  // namespace stormtune::gp
