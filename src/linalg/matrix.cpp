#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/error.hpp"
#include "linalg/kernels.hpp"

namespace stormtune {

namespace lk = linalg_kernels;

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  // Below the threshold a naive double loop stays in L1 anyway; above it,
  // walk block-by-block so both source rows and destination rows are hot.
  constexpr std::size_t kBlock = 32;
  if (rows_ < kBlock || cols_ < kBlock) {
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t c = 0; c < cols_; ++c) {
        t(c, r) = (*this)(r, c);
      }
    }
    return t;
  }
  for (std::size_t rb = 0; rb < rows_; rb += kBlock) {
    const std::size_t rmax = std::min(rows_, rb + kBlock);
    for (std::size_t cb = 0; cb < cols_; cb += kBlock) {
      const std::size_t cmax = std::min(cols_, cb + kBlock);
      for (std::size_t r = rb; r < rmax; ++r) {
        for (std::size_t c = cb; c < cmax; ++c) {
          t(c, r) = (*this)(r, c);
        }
      }
    }
  }
  return t;
}

Matrix Matrix::multiply(const Matrix& other) const {
  STORMTUNE_REQUIRE(cols_ == other.rows(), "Matrix::multiply: shape mismatch");
  Matrix out(rows_, other.cols());
  // i-k-j loop order keeps the inner loop streaming over contiguous rows.
  // Dense path: no zero-skip — the branch costs more than the multiply on
  // the dense kernel matrices this is used for, and it breaks vectorization.
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      const auto orow = other.row(k);
      const auto out_row = out.row(i);
      for (std::size_t j = 0; j < other.cols(); ++j) {
        out_row[j] += aik * orow[j];
      }
    }
  }
  return out;
}

Vector Matrix::multiply(const Vector& v) const {
  STORMTUNE_REQUIRE(cols_ == v.size(), "Matrix::multiply: vector size mismatch");
  Vector out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const auto r = row(i);
    double acc = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) acc += r[j] * v[j];
    out[i] = acc;
  }
  return out;
}

Cholesky::Cholesky(const Matrix& a) {
  STORMTUNE_REQUIRE(a.rows() == a.cols(), "Cholesky: matrix must be square");
  reserve(a.rows());
  factor_from(a, 1.0, 0.0);
}

Cholesky::Cholesky(const Matrix& a, double scale, double diag_add) {
  STORMTUNE_REQUIRE(a.rows() == a.cols(), "Cholesky: matrix must be square");
  reserve(a.rows());
  factor_from(a, scale, diag_add);
}

Cholesky::Cholesky(const Matrix& a, double scale, double diag_add,
                   std::span<const double> diag_extra) {
  STORMTUNE_REQUIRE(a.rows() == a.cols(), "Cholesky: matrix must be square");
  STORMTUNE_REQUIRE(diag_extra.size() == a.rows(),
                    "Cholesky: diag_extra size mismatch");
  reserve(a.rows());
  factor_from(a, scale, diag_add, diag_extra.data());
}

STORMTUNE_HOT void Cholesky::refactor(const Matrix& a, double scale,
                                      double diag_add) {
  STORMTUNE_REQUIRE(a.rows() == a.cols(), "Cholesky::refactor: must be square");
  reserve_discarding(a.rows());
  factor_from(a, scale, diag_add);
}

STORMTUNE_HOT void Cholesky::refactor(const Matrix& a, double scale,
                                      double diag_add,
                        std::span<const double> diag_extra) {
  STORMTUNE_REQUIRE(a.rows() == a.cols(), "Cholesky::refactor: must be square");
  STORMTUNE_REQUIRE(diag_extra.size() == a.rows(),
                    "Cholesky::refactor: diag_extra size mismatch");
  reserve_discarding(a.rows());
  factor_from(a, scale, diag_add, diag_extra.data());
}

void Cholesky::reserve_discarding(std::size_t rows) {
  if (rows <= cap_) return;
  // No factor worth preserving — the old one is being replaced — so grow
  // by discarding instead of copying. Geometric so a factor that tracks a
  // growing observation set reallocates O(log n) times.
  const std::size_t new_cap = std::max(rows, 2 * cap_);
  ld_ = lk::padded_ld(new_cap);
  lf_.assign(new_cap * ld_, 0.0);
  ltf_.assign(new_cap * ld_, 0.0);
  work_.assign(new_cap, 0.0);
  cap_ = new_cap;
  ++allocs_;
}

void Cholesky::factor_from(const Matrix& a, double scale, double diag_add,
                           const double* diag_extra) {
  n_ = a.rows();
  lf_stale_ = false;
#ifdef STORMTUNE_CHECKED
  // Entry conditions for a factorization attempt: every consumed input must
  // be finite. Non-finite values are caller corruption (a poisoned kernel
  // matrix, an uninitialized buffer), never a legitimate numerical state —
  // unlike non-positive-definiteness, which the factorization itself
  // reports as stormtune::Error so the GP's jitter escalation can retry.
  STORMTUNE_INVARIANT(std::isfinite(scale) && std::isfinite(diag_add),
                      "Cholesky: non-finite scale or diagonal shift");
  if (diag_extra != nullptr) {
    for (std::size_t i = 0; i < n_; ++i) {
      STORMTUNE_INVARIANT(std::isfinite(diag_extra[i]),
                          "Cholesky: non-finite per-row diagonal shift");
    }
  }
  for (std::size_t i = 0; i < n_; ++i) {
    const auto src = a.row(i);
    for (std::size_t j = 0; j <= i; ++j) {
      STORMTUNE_INVARIANT(std::isfinite(src[j]),
                          "Cholesky: non-finite input entry");
    }
  }
#endif
  // The left-looking kernel reads column j of the input as mirror row j,
  // so the scaled lower triangle is copied in transposed.
  double* ltf = ltf_.data();
  for (std::size_t i = 0; i < n_; ++i) {
    const auto src = a.row(i);
    for (std::size_t j = 0; j < i; ++j) ltf[j * ld_ + i] = scale * src[j];
    // The per-row shift is summed before the diagonal add, so a constant
    // diag_extra is bit-identical to folding it into diag_add.
    ltf[i * ld_ + i] = diag_extra ? scale * src[i] + (diag_add + diag_extra[i])
                                  : scale * src[i] + diag_add;
  }
  // Left-looking factorization (linalg/kernels.hpp): column j accumulates
  // its k-ascending subtractions across lanes of rows, reading the finished
  // columns stride-1 from the mirror, then is checked, square-rooted and
  // scaled — the naive kernel's arithmetic per element, so the first
  // column that is not positive definite is the same one it would reject.
  const std::size_t done =
      lk::ops().cholesky_factor(lf_.data(), ltf, ld_, n_);
  STORMTUNE_REQUIRE(done == n_, "Cholesky: matrix not positive definite");
}

STORMTUNE_HOT bool Cholesky::refactor_mirror(
    const Matrix& a, double scale, double diag_add,
    std::span<const double> diag_extra) {
  STORMTUNE_REQUIRE(a.rows() == a.cols(),
                    "Cholesky::refactor_mirror: must be square");
  STORMTUNE_REQUIRE(diag_extra.empty() || diag_extra.size() == a.rows(),
                    "Cholesky::refactor_mirror: diag_extra size mismatch");
  reserve_discarding(a.rows());
  n_ = a.rows();
  lf_stale_ = true;
#ifdef STORMTUNE_CHECKED
  STORMTUNE_INVARIANT(std::isfinite(scale) && std::isfinite(diag_add),
                      "Cholesky: non-finite scale or diagonal shift");
  for (std::size_t i = 0; i < n_; ++i) {
    STORMTUNE_INVARIANT(diag_extra.empty() || std::isfinite(diag_extra[i]),
                        "Cholesky: non-finite per-row diagonal shift");
    for (std::size_t j = 0; j <= i; ++j) {
      STORMTUNE_INVARIANT(std::isfinite(a(i, j)),
                          "Cholesky: non-finite input entry");
      STORMTUNE_INVARIANT(a(i, j) == a(j, i),
                          "Cholesky::refactor_mirror: input not symmetric");
    }
  }
#endif
  // Mirror row j, columns [j, n), is column j of the lower triangle: by
  // symmetry, row j of `a` from its diagonal on — a contiguous copy. The
  // diagonal is summed as factor_from sums it, so both factor the same
  // matrix bits.
  double* ltf = ltf_.data();
  for (std::size_t j = 0; j < n_; ++j) {
    const auto src = a.row(j);
    double* dst = ltf + j * ld_;
    dst[j] = diag_extra.empty()
                 ? scale * src[j] + diag_add
                 : scale * src[j] + (diag_add + diag_extra[j]);
    for (std::size_t i = j + 1; i < n_; ++i) dst[i] = scale * src[i];
  }
  return lk::ops().cholesky_factor_mirror(ltf, ld_, n_) == n_;
}

STORMTUNE_HOT double Cholesky::mirror_forward_sq_norm(
    std::span<double> z) const {
  STORMTUNE_REQUIRE(z.size() == n_,
                    "Cholesky::mirror_forward_sq_norm: size mismatch");
  // Column j of L is mirror row j, so once z_j is final its contribution
  // to every later entry is one stride-1 axpy; two columns share each pass
  // over z. Any order of each entry's inner product is backward stable.
  double ss = 0.0;
  std::size_t j = 0;
  for (; j + 2 <= n_; j += 2) {
    const double* la = ltf_.data() + j * ld_;
    const double* lb = la + ld_;
    const double za = z[j] / la[j];
    const double zb = (z[j + 1] - la[j + 1] * za) / lb[j + 1];
    z[j] = za;
    z[j + 1] = zb;
    ss += za * za;
    ss += zb * zb;
    for (std::size_t i = j + 2; i < n_; ++i) z[i] -= la[i] * za + lb[i] * zb;
  }
  if (j < n_) {
    const double zj = z[j] / ltf_[j * ld_ + j];
    z[j] = zj;
    ss += zj * zj;
  }
  return ss;
}

Matrix Cholesky::lower() const {
  STORMTUNE_DCHECK(!lf_stale_, "Cholesky: row-major factor is stale");
  Matrix out(n_, n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const double* src = lf_.data() + i * ld_;
    const auto dst = out.row(i);
    for (std::size_t j = 0; j <= i; ++j) dst[j] = src[j];
  }
  return out;
}

Vector Cholesky::solve_lower(const Vector& b) const {
  STORMTUNE_REQUIRE(b.size() == n_, "Cholesky::solve_lower: size mismatch");
  Vector y(b);
  solve_lower_in_place(y);
  return y;
}

void Cholesky::solve_lower_in_place(std::span<double> bx) const {
  STORMTUNE_REQUIRE(bx.size() == n_,
                    "Cholesky::solve_lower_in_place: size mismatch");
  STORMTUNE_DCHECK(!lf_stale_, "Cholesky: row-major factor is stale");
  // Fixed-width accumulator splitting: the row dot product runs in four
  // lanes (k mod 4) combined as (s0+s1)+(s2+s3), then the remainder in
  // ascending k. The split depends only on the row length — never on tile
  // sizes or thread counts — so the solve is deterministic; it breaks the
  // single-accumulator dependency chain that made the substitution
  // latency-bound.
  for (std::size_t i = 0; i < n_; ++i) {
    const double* li = lf_.data() + i * ld_;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    std::size_t k = 0;
    for (; k + 4 <= i; k += 4) {
      s0 += li[k] * bx[k];
      s1 += li[k + 1] * bx[k + 1];
      s2 += li[k + 2] * bx[k + 2];
      s3 += li[k + 3] * bx[k + 3];
    }
    double s = (s0 + s1) + (s2 + s3);
    for (; k < i; ++k) s += li[k] * bx[k];
    bx[i] = (bx[i] - s) / li[i];
  }
}

Vector Cholesky::solve_lower_transpose(const Vector& y) const {
  STORMTUNE_REQUIRE(y.size() == n_,
                    "Cholesky::solve_lower_transpose: size mismatch");
  Vector x(y);
  solve_lower_transpose_in_place(x);
  return x;
}

void Cholesky::solve_lower_transpose_in_place(std::span<double> yx) const {
  STORMTUNE_REQUIRE(yx.size() == n_,
                    "Cholesky::solve_lower_transpose_in_place: size mismatch");
  // Row i of the mirror holds column i of L, so the inner loop is stride-1
  // (the old column walk took a cache miss per element past n ≈ 64). Same
  // four-lane accumulator split as the forward solve.
  for (std::size_t ii = n_; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    const double* lti = ltf_.data() + i * ld_;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    std::size_t k = i + 1;
    for (; k + 4 <= n_; k += 4) {
      s0 += lti[k] * yx[k];
      s1 += lti[k + 1] * yx[k + 1];
      s2 += lti[k + 2] * yx[k + 2];
      s3 += lti[k + 3] * yx[k + 3];
    }
    double s = (s0 + s1) + (s2 + s3);
    for (; k < n_; ++k) s += lti[k] * yx[k];
    yx[i] = (yx[i] - s) / lti[i];
  }
}

Vector Cholesky::solve(const Vector& b) const {
  Vector x(b);
  solve_lower_in_place(x);
  solve_lower_transpose_in_place(x);
  return x;
}

STORMTUNE_HOT void Cholesky::append_row(std::span<const double> b,
                                        double c) {
  STORMTUNE_REQUIRE(b.size() == n_, "Cholesky::append_row: size mismatch");
  STORMTUNE_DCHECK(!lf_stale_, "Cholesky: row-major factor is stale");
#ifdef STORMTUNE_CHECKED
  STORMTUNE_INVARIANT(std::isfinite(c),
                      "Cholesky::append_row: non-finite diagonal entry");
  for (const double bi : b) {
    STORMTUNE_INVARIANT(std::isfinite(bi),
                        "Cholesky::append_row: non-finite border entry");
  }
#endif
  // New bottom row of L is [yᵀ, l] with L y = b and l = sqrt(c - yᵀy).
  // The solve runs in the persistent scratch row (work_ is sized with the
  // buffers, and remove_row — its other user — never runs concurrently), so
  // steady-state append/remove window slides never touch the heap.
  if (work_.size() < n_) work_.assign(std::max(n_, cap_), 0.0);
  double* y = work_.data();
  std::copy(b.begin(), b.end(), y);
  solve_lower_in_place({y, n_});
  double yty = 0.0;
  for (std::size_t k = 0; k < n_; ++k) yty += y[k] * y[k];
  const double diag = c - yty;
  STORMTUNE_REQUIRE(diag > 0.0,
                    "Cholesky::append_row: matrix not positive definite");
  if (n_ + 1 > cap_) {
    // grow() resets work_, so it cannot carry y across the reallocation;
    // stage the new row directly into the fresh buffers afterwards.
    std::vector<double> staged(y, y + n_);
    grow(std::max(n_ + 1, 2 * cap_));
    y = work_.data();
    std::copy(staged.begin(), staged.end(), y);
  }
  const double l_new = std::sqrt(diag);
  double* last = lf_.data() + n_ * ld_;
  for (std::size_t k = 0; k < n_; ++k) last[k] = y[k];
  last[n_] = l_new;
  // Mirror: the new row of L is a new column of Lᵀ.
  for (std::size_t k = 0; k < n_; ++k) ltf_[k * ld_ + n_] = y[k];
  ltf_[n_ * ld_ + n_] = l_new;
  ++n_;
}

// Delete row and column `i` from the factored matrix. Partition L at i:
//
//   [ L11        ]            deleting A's row/col i keeps L11 and L31
//   [ l21  lii   ]            verbatim (shifted up), drops row [l21, lii],
//   [ L31  l32  L33 ]         and replaces L33 with L33' satisfying
//                             L33' L33'ᵀ = L33 L33ᵀ + l32 l32ᵀ.
//
// That trailing correction is a rank-1 UPDATE (positive sign): zeroing the
// carry vector v = l32 against the augmented matrix [L33 | v] with one plain
// Givens rotation per column preserves [L33 | v][L33 | v]ᵀ and leaves the
// updated factor. Each rotation's new diagonal is r = sqrt(lkk² + vk²) ≥
// lkk > 0, so a valid factor can never fail — no exception path, unlike
// append_row. The sweep runs on the transposed mirror (row k of Lᵀ = column
// k of L, stride-1) through the dispatched givens_row_update kernel, then
// the trailing block is transpose-copied back into lf_. Everything happens
// inside the tracked capacity plus the persistent work_ row: steady-state
// append/remove cycles are allocation-free.
//
// Determinism: columns are processed in ascending k, each rotation applied
// left-associated per element by every ISA path (see kernels.hpp), so the
// result is bit-identical across portable/AVX2/AVX-512.
STORMTUNE_HOT void Cholesky::remove_row(std::size_t i) {
  STORMTUNE_REQUIRE(i < n_, "Cholesky::remove_row: index out of range");
  STORMTUNE_DCHECK(!lf_stale_, "Cholesky: row-major factor is stale");
  if (i == n_ - 1) {
    // Dropping the last row of L is the whole job: the stale row/column
    // beyond n_ is never read (lower()/log_determinant walk [0, n_)) and is
    // overwritten by the next append_row or refactor.
    --n_;
    return;
  }
  const std::size_t ld = ld_;
  const std::size_t m = n_ - 1 - i;  // trailing block size after deletion
  if (work_.size() < cap_) work_.assign(cap_, 0.0);  // pre-grow() factors only
  double* lf = lf_.data();
  double* ltf = ltf_.data();
  double* v = work_.data();
  // Carry vector: the deleted column below the diagonal, l32 = L(i+1.., i),
  // stride-1 as mirror row i.
  std::copy_n(ltf + i * ld + i + 1, m, v);
  // Shift rows i+1.. of L up by one. Only the column prefix [0, i) survives
  // as-is; columns ≥ i are rebuilt from the mirror after the sweep.
  for (std::size_t j = i + 1; j < n_; ++j) {
    std::copy_n(lf + j * ld, i, lf + (j - 1) * ld);
  }
  // Shift the mirror. Columns < i of L lose one entry: positions [i+1, n_)
  // of mirror row c move forward to [i, n_-1) (std::copy with dest < src).
  for (std::size_t c = 0; c < i; ++c) {
    double* row = ltf + c * ld;
    std::copy(row + i + 1, row + n_, row + i);
  }
  // Columns > i of L become columns c-1 with row i deleted: mirror row c's
  // valid region [c, n_) lands at [c-1, n_-1) of row c-1. Ascending c
  // overwrites row i first — the carry vector was already saved above.
  for (std::size_t c = i + 1; c < n_; ++c) {
    std::copy_n(ltf + c * ld + c, n_ - c, ltf + (c - 1) * ld + c - 1);
  }
  --n_;
  // Rotate the carry vector out of the trailing factor, one column per
  // rotation, through the dispatched kernel (fetched once per call).
  const lk::KernelOps& kops = lk::ops();
  for (std::size_t k = i; k < n_; ++k) {
    const double vk = v[k - i];
    // A zero carry entry is an identity rotation; skipping it (instead of
    // multiplying through c=1, s=0) keeps the column bit-identical.
    if (vk == 0.0) continue;
    double* lrow = ltf + k * ld;
    const double lkk = lrow[k];
    const double r = std::sqrt(lkk * lkk + vk * vk);
    const double c0 = lkk / r;
    const double s0 = vk / r;
    lrow[k] = r;
    kops.givens_row_update(lrow + k + 1, v + (k - i) + 1, c0, s0,
                           n_ - (k + 1));
  }
  // The mirror's trailing rows now hold the updated factor's columns;
  // transpose-copy them back so lf_ and ltf_ agree again.
  for (std::size_t k = i; k < n_; ++k) {
    const double* lrow = ltf + k * ld;
    for (std::size_t j = k; j < n_; ++j) lf[j * ld + k] = lrow[j];
  }
}

void Cholesky::reserve(std::size_t cap) {
  if (cap > cap_) grow(cap);
}

void Cholesky::grow(std::size_t new_cap) {
  const std::size_t new_ld = lk::padded_ld(new_cap);
  std::vector<double> lf(new_cap * new_ld, 0.0);
  std::vector<double> ltf(new_cap * new_ld, 0.0);
  for (std::size_t i = 0; i < n_; ++i) {
    std::copy_n(lf_.data() + i * ld_, i + 1, lf.data() + i * new_ld);
    std::copy_n(ltf_.data() + i * ld_ + i, n_ - i,
                ltf.data() + i * new_ld + i);
  }
  lf_ = std::move(lf);
  ltf_ = std::move(ltf);
  work_.assign(new_cap, 0.0);
  cap_ = new_cap;
  ld_ = new_ld;
  ++allocs_;
}

double Cholesky::log_determinant() const {
  double ld = 0.0;
  for (std::size_t i = 0; i < n_; ++i) ld += std::log(ltf_[i * ld_ + i]);
  return 2.0 * ld;
}

double dot(const Vector& a, const Vector& b) {
  STORMTUNE_REQUIRE(a.size() == b.size(), "dot: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(const Vector& v) { return std::sqrt(dot(v, v)); }

Vector axpy(const Vector& a, double s, const Vector& b) {
  STORMTUNE_REQUIRE(a.size() == b.size(), "axpy: size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + s * b[i];
  return out;
}

}  // namespace stormtune
