// Dense linear algebra sized for Gaussian-process regression.
//
// GP training solves systems with the n×n kernel matrix (n = number of
// optimizer observations, at most a few hundred in this paper's setting).
// The Cholesky below is a left-looking factorization whose columns
// accumulate across vector lanes (see linalg/kernels.hpp), a row-major
// factor with separately tracked capacity so rank-grow updates append in
// place, and a maintained transposed mirror that makes back-substitution
// stride-1. Its rows feed the multi-RHS forward solve kernel
// (KernelOps::solve_lower_multi), which sweeps register-held column strips
// of a whole block of right-hand sides. Every reduction runs in a
// fixed k-ascending order independent of lane width and strip boundaries,
// so results are deterministic run-to-run, identical on every ISA path,
// and match the naive reference kernels (tests/linalg_reference.hpp) bit
// for bit when those scale by the reciprocal diagonal.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace stormtune {

using Vector = std::vector<double>;

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  /// Contiguous row-major storage (rows() * cols() doubles). For whole-buffer
  /// element-wise passes such as the batched correlation transform.
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Transpose; uses a cache-blocked sweep once both dimensions exceed the
  /// blocking threshold, so neither the read nor the write side strides
  /// through memory a full row apart.
  Matrix transposed() const;

  /// this * other; dimension-checked.
  Matrix multiply(const Matrix& other) const;

  /// this * v; dimension-checked.
  Vector multiply(const Vector& v) const;

  bool empty() const { return data_.empty(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Lower-triangular Cholesky factor of a symmetric positive-definite matrix.
///
/// Throws stormtune::Error if the matrix is not (numerically) SPD. GP code
/// relies on that exception to trigger jitter escalation.
///
/// Storage: the factor lives in a row-major buffer of `capacity()` ≥
/// `size()` rows, so `append_row` grows the factor geometrically in place —
/// no allocation while capacity suffices (observable through
/// `allocation_count()`). A transposed mirror (row-major Lᵀ, same layout)
/// is kept in lockstep so Lᵀ-solves walk memory stride-1. Both row strides
/// are the capacity padded by linalg_kernels::padded_ld.
class Cholesky {
 public:
  /// An empty factor (size 0) for refactor or refactor_mirror to fill.
  Cholesky() = default;

  explicit Cholesky(const Matrix& a);

  /// Factor scale·A + diag_add·I without materializing it. `a` must be
  /// square; only its lower triangle is read. This is the GP fit path:
  /// the kernel matrix a²·C + (σ_n² + jitter)·I is factored straight from
  /// the cached correlation matrix C.
  Cholesky(const Matrix& a, double scale, double diag_add);

  /// Heteroscedastic construction: factor scale·A + diag(diag_add +
  /// diag_extra), as the refactor overload below.
  Cholesky(const Matrix& a, double scale, double diag_add,
           std::span<const double> diag_extra);

  /// Re-factor scale·A + diag_add·I into this object, reusing the existing
  /// buffers whenever `a.rows() <= capacity()` (the hyperparameter refit
  /// loop calls this hundreds of times per suggestion with the same n).
  /// Throws if not (numerically) SPD; the factor contents are unspecified
  /// after a throw and must be refactored before further use.
  void refactor(const Matrix& a, double scale, double diag_add);

  /// Heteroscedastic variant: factor scale·A + diag(diag_add + diag_extra).
  /// `diag_extra` must have a.rows() entries; a GP with per-observation
  /// noise variances factors a²·C + diag(σ_i² + jitter) through this. When
  /// every diag_extra entry equals some σ², the result is bit-identical to
  /// refactor(a, scale, diag_add + σ²) — the per-row shift is the same
  /// two-operand additions in the same order.
  void refactor(const Matrix& a, double scale, double diag_add,
                std::span<const double> diag_extra);

  /// Factor scale·A + diag_add·I (+ diag(diag_extra) when given, summed as
  /// refactor's overload sums it) into the transposed mirror alone, through
  /// the bound-class kernel KernelOps::cholesky_factor_mirror. Each mirror
  /// row is copied contiguously from the row of `a` it mirrors, which is
  /// only the lower triangle's column when `a` is exactly symmetric
  /// (checked builds assert it). The result is backward stable but not
  /// refactor's bits, and the row-major factor is left stale: until the
  /// next refactor only log_determinant and mirror_forward_sq_norm may
  /// read the factor. Returns false instead of throwing when the matrix is
  /// not numerically SPD. This is the hyper sampler's log-posterior
  /// estimate (gp::GpRegressor::estimate_log_marginal_likelihood).
  bool refactor_mirror(const Matrix& a, double scale, double diag_add,
                       std::span<const double> diag_extra = {});

  /// Forward substitution L z' = z through the mirror in column (axpy)
  /// form, overwriting `z` with z'; returns ‖z'‖² summed in index order.
  /// Reads only the mirror, so it serves refactor_mirror's factor too.
  double mirror_forward_sq_norm(std::span<double> z) const;

  /// The factor as a dense matrix (strict upper triangle zeroed).
  /// Materialized on demand — O(n²).
  Matrix lower() const;

  /// Element L(i, j) of the factor; requires j <= i.
  double lower_at(std::size_t i, std::size_t j) const {
    STORMTUNE_DCHECK(!lf_stale_, "Cholesky: row-major factor is stale");
    return lf_[i * ld_ + j];
  }

  /// Row i of L starts at lower_rows() + i·stride(); its first i + 1
  /// entries are L(i, 0..i). This is what the multi-RHS forward solve
  /// (KernelOps::solve_lower_multi) reads.
  const double* lower_rows() const {
    STORMTUNE_DCHECK(!lf_stale_, "Cholesky: row-major factor is stale");
    return lf_.data();
  }
  std::size_t stride() const { return ld_; }

  /// Solve A x = b via forward + backward substitution.
  Vector solve(const Vector& b) const;

  /// Solve L y = b (forward substitution only).
  Vector solve_lower(const Vector& b) const;

  /// Forward substitution overwriting `bx` (no allocation).
  void solve_lower_in_place(std::span<double> bx) const;

  /// Solve L^T x = y (backward substitution only). Walks the transposed
  /// mirror, so the inner loop is stride-1 instead of a column walk.
  Vector solve_lower_transpose(const Vector& y) const;

  /// Backward substitution overwriting `yx` (no allocation).
  void solve_lower_transpose_in_place(std::span<double> yx) const;

  /// Rank-grow update: given this factor L of an n×n SPD matrix A, extend it
  /// in place to the factor of [[A, b], [bᵀ, c]] in O(n²) instead of the
  /// O(n³) refactorization. Appends into the existing buffer when capacity
  /// suffices; otherwise grows capacity geometrically (amortized O(n²) per
  /// append, no per-append allocation). Throws stormtune::Error if the
  /// extended matrix is not (numerically) SPD; the factor is unchanged in
  /// that case.
  void append_row(std::span<const double> b, double c);

  /// Rank-shrink downdate: given this factor L of an n×n SPD matrix A,
  /// replace it in place with the factor of A with row and column `i`
  /// deleted, in O(n²) instead of the O(n³) refactorization (O(n−i) when
  /// i == n−1, where dropping the last row of L is the whole job). The
  /// trailing factor satisfies L' L'ᵀ = L33 L33ᵀ + l32 l32ᵀ — a rank-1
  /// *update* with plain Givens rotations (never hyperbolic), so unlike
  /// append_row this cannot fail on a valid factor: every rotation's new
  /// diagonal r = sqrt(lkk² + vk²) ≥ lkk > 0. Runs entirely inside the
  /// tracked capacity (plus a persistent member scratch row), so
  /// steady-state append/remove cycles are allocation-free.
  void remove_row(std::size_t i);

  /// Ensure capacity for factors up to `cap` rows without reallocation.
  void reserve(std::size_t cap);

  /// log|A| = 2 * sum(log diag(L)), read from the mirror's diagonal (the
  /// same bits as the row-major factor's, which it mirrors).
  double log_determinant() const;

  std::size_t size() const { return n_; }
  std::size_t capacity() const { return cap_; }

  /// Number of buffer (re)allocations this factor has performed, including
  /// the initial one — the allocation-counting probe for tests asserting
  /// that append_row never allocates while capacity suffices.
  std::size_t allocation_count() const { return allocs_; }

 private:
  /// Copy scale·(lower triangle of a) + diag_add·I into the mirror and run
  /// the left-looking factorization, which fills both lf_ and ltf_.
  /// Requires cap_ >= a.rows(). `diag_extra` (optional, one entry per row)
  /// adds a per-row shift on top of diag_add.
  void factor_from(const Matrix& a, double scale, double diag_add,
                   const double* diag_extra = nullptr);
  /// Make room for `rows` rows without keeping the current factor.
  void reserve_discarding(std::size_t rows);
  /// Reallocate both buffers for `new_cap` rows, preserving the current
  /// factor.
  void grow(std::size_t new_cap);

  std::size_t n_ = 0;
  std::size_t cap_ = 0;
  std::size_t ld_ = 0;  // row stride of both buffers: padded_ld(cap_)
  std::size_t allocs_ = 0;
  std::vector<double> lf_;   // row-major L, cap_ rows of ld_
  std::vector<double> ltf_;  // row-major Lᵀ (mirror), cap_ rows of ld_
  /// Downdate carry vector for remove_row (the deleted column of L, rotated
  /// out of the trailing factor). Sized with the buffers above so remove_row
  /// never allocates while capacity suffices.
  std::vector<double> work_;
  /// Set by refactor_mirror: lf_ does not hold the factor the mirror does.
  bool lf_stale_ = false;
};

/// Dot product; dimension-checked.
double dot(const Vector& a, const Vector& b);

/// Euclidean norm.
double norm2(const Vector& v);

/// a + s * b, dimension-checked.
Vector axpy(const Vector& a, double s, const Vector& b);

}  // namespace stormtune
