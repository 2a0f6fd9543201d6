// Property tests for the dense kernels in linalg/matrix.cpp against the
// naive reference oracles in linalg_reference.hpp.
//
// The size sweep deliberately straddles the lane widths (2/4/8) and strip
// widths (16/32/64) of the kernels plus the tile boundaries 32/48/64/128:
// one-off sizes on either side of a boundary exercise the partial vectors
// and remainder strips of the factorization and the multi-RHS forward solve.
// Agreement with the dividing oracle is required to 1e-9 relative — the
// kernels keep every reduction in ascending-k order, so the only
// divergence is reciprocal-multiply division and accumulator splitting,
// both a few ulps. (The exact, bitwise comparison against the reciprocal
// oracle on every ISA path lives in test_isa_dispatch.cpp.)
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg_reference.hpp"

namespace stormtune {
namespace {

Matrix random_spd(std::size_t n, Rng& rng) {
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  }
  Matrix a = b.multiply(b.transposed());
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

/// Correlation-like SPD matrix: unit diagonal, off-diagonal rho^|i-j|.
/// At rho close to 1 the smallest eigenvalue collapses toward zero, which is
/// exactly the shape of a GP kernel matrix with near-duplicate inputs.
Matrix ar1_correlation(std::size_t n, double rho) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = std::pow(rho, std::fabs(static_cast<double>(i) -
                                        static_cast<double>(j)));
    }
  }
  return a;
}

double rel_diff(double got, double want) {
  const double scale = std::max({std::fabs(got), std::fabs(want), 1.0});
  return std::fabs(got - want) / scale;
}

// Sizes crossing every lane, strip and tile boundary, plus the degenerate
// 1..3 cases where one strip is wider than the matrix.
const std::size_t kSweepSizes[] = {1,  2,  3,  5,  8,   16,  31,  32,  33, 47,
                                   48, 49, 63, 64, 65,  96,  127, 128, 129,
                                   130};

TEST(BlockedCholesky, MatchesNaiveReferenceAcrossTileBoundaries) {
  Rng rng(42);
  for (const std::size_t n : kSweepSizes) {
    const Matrix a = random_spd(n, rng);
    const Matrix want = reference::cholesky_lower(a);
    const Cholesky chol(a);
    const Matrix got = chol.lower();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        EXPECT_LE(rel_diff(got(i, j), want(i, j)), 1e-9)
            << "n=" << n << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(BlockedCholesky, TriangularSolvesMatchNaiveReference) {
  Rng rng(43);
  for (const std::size_t n : kSweepSizes) {
    const Matrix a = random_spd(n, rng);
    const Cholesky chol(a);
    const Matrix l = chol.lower();
    Vector b(n);
    for (auto& x : b) x = rng.normal();
    const Vector fwd_want = reference::solve_lower(l, b);
    const Vector fwd_got = chol.solve_lower(b);
    const Vector bwd_want = reference::solve_lower_transpose(l, fwd_want);
    const Vector bwd_got = chol.solve_lower_transpose(fwd_got);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LE(rel_diff(fwd_got[i], fwd_want[i]), 1e-9) << "n=" << n;
      EXPECT_LE(rel_diff(bwd_got[i], bwd_want[i]), 1e-9) << "n=" << n;
    }
  }
}

TEST(BlockedCholesky, IllConditionedMatchesNaiveReference) {
  // rho = 0.9999 at n = 96 gives a condition number around 1e8 — close to
  // the worst a jittered GP kernel matrix is allowed to reach. The blocked
  // factorization must degrade exactly like the oracle does, not diverge.
  for (const double rho : {0.99, 0.9999}) {
    const std::size_t n = 96;
    const Matrix a = ar1_correlation(n, rho);
    const Matrix want = reference::cholesky_lower(a);
    const Cholesky chol(a);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        EXPECT_LE(rel_diff(chol.lower_at(i, j), want(i, j)), 1e-9)
            << "rho=" << rho << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(BlockedCholesky, NearSingularThrowsLikeReference) {
  // A singular matrix (duplicate rows) must throw from both paths rather
  // than silently producing NaNs.
  Matrix a(3, 3, 1.0);
  EXPECT_THROW(reference::cholesky_lower(a), Error);
  EXPECT_THROW(Cholesky{a}, Error);
}

/// L V = B in place for every column of the size()-row block `v`, through
/// the dispatched kernel the GP predictor calls.
void solve_lower_block(const Cholesky& chol, Matrix& v) {
  linalg_kernels::ops().solve_lower_multi(chol.lower_rows(), chol.stride(),
                                          v.data(), v.cols(), v.cols(),
                                          chol.size());
}

TEST(MultiRhsSolves, MatchSingleRhsSolvesPerColumn) {
  Rng rng(44);
  for (const std::size_t n : {1ul, 5ul, 31ul, 48ul, 64ul, 97ul, 130ul}) {
    const Matrix a = random_spd(n, rng);
    const Cholesky chol(a);
    for (const std::size_t m : {1ul, 2ul, 7ul, 33ul}) {
      Matrix v(n, m);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t r = 0; r < m; ++r) v(i, r) = rng.normal();
      }
      Matrix multi = v;
      solve_lower_block(chol, multi);
      for (std::size_t r = 0; r < m; ++r) {
        Vector col(n);
        for (std::size_t i = 0; i < n; ++i) col[i] = v(i, r);
        chol.solve_lower_in_place(col);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_LE(rel_diff(multi(i, r), col[i]), 1e-12)
              << "n=" << n << " m=" << m << " col=" << r << " row=" << i;
        }
      }
    }
  }
}

TEST(MultiRhsSolves, ColumnResultIndependentOfBlockWidth) {
  // Column 0 solved as part of a 17-wide block must equal column 0 solved
  // alone: the multi-RHS sweep order per column may not depend on m.
  Rng rng(45);
  const std::size_t n = 65;
  const Matrix a = random_spd(n, rng);
  const Cholesky chol(a);
  Matrix wide(n, 17);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < 17; ++r) wide(i, r) = rng.normal();
  }
  Matrix narrow(n, 1);
  for (std::size_t i = 0; i < n; ++i) narrow(i, 0) = wide(i, 0);
  solve_lower_block(chol, wide);
  solve_lower_block(chol, narrow);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(wide(i, 0), narrow(i, 0)) << "row=" << i;
  }
}

TEST(AppendRow, NoAllocationWhileCapacitySuffices) {
  Rng rng(46);
  const std::size_t n_final = 40;
  const Matrix a = random_spd(n_final, rng);
  const std::size_t n0 = 8;
  Matrix head(n0, n0);
  for (std::size_t i = 0; i < n0; ++i) {
    for (std::size_t j = 0; j < n0; ++j) head(i, j) = a(i, j);
  }
  Cholesky chol(head);
  chol.reserve(n_final);
  const std::size_t allocs_after_reserve = chol.allocation_count();
  for (std::size_t n = n0; n < n_final; ++n) {
    Vector b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = a(n, i);
    chol.append_row(b, a(n, n));
    EXPECT_EQ(chol.allocation_count(), allocs_after_reserve)
        << "append to n=" << n + 1 << " allocated despite reserved capacity";
  }
  EXPECT_EQ(chol.size(), n_final);
  // And the grown factor is still the factor of `a`.
  const Matrix want = reference::cholesky_lower(a);
  for (std::size_t i = 0; i < n_final; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_LE(rel_diff(chol.lower_at(i, j), want(i, j)), 1e-9);
    }
  }
}

TEST(AppendRow, GrowthIsGeometricWithoutReserve) {
  // Appending one row at a time without reserve() must reallocate only
  // O(log n) times, not once per append.
  Rng rng(47);
  const std::size_t n_final = 64;
  const Matrix a = random_spd(n_final, rng);
  Matrix head(1, 1);
  head(0, 0) = a(0, 0);
  Cholesky chol(head);
  for (std::size_t n = 1; n < n_final; ++n) {
    Vector b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = a(n, i);
    chol.append_row(b, a(n, n));
  }
  EXPECT_EQ(chol.size(), n_final);
  // Initial allocation + geometric doublings: comfortably under 2 + log2(n).
  EXPECT_LE(chol.allocation_count(), 10u);
}

TEST(Refactor, ReusesBufferAndMatchesScaledFactorization) {
  Rng rng(48);
  const std::size_t n = 49;  // one past a 48-tile boundary
  const Matrix a = random_spd(n, rng);
  Cholesky chol(a);
  const std::size_t allocs = chol.allocation_count();
  const double scale = 2.25;
  const double diag_add = 0.375;
  chol.refactor(a, scale, diag_add);
  EXPECT_EQ(chol.allocation_count(), allocs) << "refactor at same n allocated";
  Matrix scaled(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) scaled(i, j) = scale * a(i, j);
    scaled(i, i) += diag_add;
  }
  const Matrix want = reference::cholesky_lower(scaled);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_LE(rel_diff(chol.lower_at(i, j), want(i, j)), 1e-9);
    }
  }
}

}  // namespace
}  // namespace stormtune
