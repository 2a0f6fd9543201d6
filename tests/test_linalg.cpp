#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg_reference.hpp"

namespace stormtune {

namespace testprobe {
// Binary-wide operator-new counter, defined next to the replacement
// operator new in test_engine_golden.cpp.
std::size_t new_call_count();
}  // namespace testprobe

namespace {

Matrix random_spd(std::size_t n, Rng& rng) {
  // A = B B^T + n * I is SPD for any B.
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  }
  Matrix a = b.multiply(b.transposed());
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

TEST(Matrix, IdentityAndIndexing) {
  const Matrix i3 = Matrix::identity(3);
  EXPECT_EQ(i3.rows(), 3u);
  EXPECT_EQ(i3.cols(), 3u);
  EXPECT_DOUBLE_EQ(i3(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i3(0, 1), 0.0);
}

TEST(Matrix, TransposeInvolution) {
  Rng rng(1);
  Matrix a(3, 5);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 5; ++j) a(i, j) = rng.normal();
  }
  const Matrix att = a.transposed().transposed();
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 5; ++j) EXPECT_DOUBLE_EQ(att(i, j), a(i, j));
  }
}

TEST(Matrix, MultiplyMatchesHandComputation) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  Matrix b(3, 2);
  b(0, 0) = 7; b(0, 1) = 8;
  b(1, 0) = 9; b(1, 1) = 10;
  b(2, 0) = 11; b(2, 1) = 12;
  const Matrix c = a.multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Matrix, MultiplyVector) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 3; a(1, 1) = 4;
  const Vector v{5.0, 6.0};
  const Vector out = a.multiply(v);
  EXPECT_DOUBLE_EQ(out[0], 17.0);
  EXPECT_DOUBLE_EQ(out[1], 39.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(a.multiply(b), Error);
  EXPECT_THROW(a.multiply(Vector{1.0, 2.0}), Error);
}

TEST(Cholesky, FactorReconstructsMatrix) {
  Rng rng(2);
  for (std::size_t n : {1u, 2u, 5u, 20u, 50u}) {
    const Matrix a = random_spd(n, rng);
    const Cholesky chol(a);
    const Matrix l = chol.lower();
    const Matrix llt = l.multiply(l.transposed());
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(llt(i, j), a(i, j), 1e-9 * static_cast<double>(n));
      }
    }
  }
}

TEST(Cholesky, LowerTriangularStructure) {
  Rng rng(3);
  const Matrix a = random_spd(6, rng);
  const Matrix l = Cholesky(a).lower();
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) {
      EXPECT_DOUBLE_EQ(l(i, j), 0.0);
    }
  }
}

TEST(Cholesky, SolveGivesSmallResidual) {
  Rng rng(4);
  const std::size_t n = 30;
  const Matrix a = random_spd(n, rng);
  Vector b(n);
  for (auto& x : b) x = rng.normal();
  const Cholesky chol(a);
  const Vector x = chol.solve(b);
  const Vector ax = a.multiply(x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(ax[i], b[i], 1e-8);
  }
}

TEST(Cholesky, TriangularSolvesCompose) {
  Rng rng(5);
  const Matrix a = random_spd(10, rng);
  Vector b(10);
  for (auto& x : b) x = rng.normal();
  const Cholesky chol(a);
  const Vector y = chol.solve_lower(b);
  const Vector x = chol.solve_lower_transpose(y);
  const Vector direct = chol.solve(b);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(x[i], direct[i], 1e-12);
  }
}

TEST(Cholesky, LogDeterminantMatchesKnownMatrix) {
  // diag(4, 9): |A| = 36, log|A| = log(36).
  Matrix a(2, 2);
  a(0, 0) = 4.0;
  a(1, 1) = 9.0;
  EXPECT_NEAR(Cholesky(a).log_determinant(), std::log(36.0), 1e-12);
}

TEST(Cholesky, IdentityHasZeroLogDet) {
  EXPECT_NEAR(Cholesky(Matrix::identity(7)).log_determinant(), 0.0, 1e-12);
}

TEST(Cholesky, RejectsNonSpd) {
  Matrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 2.0; a(1, 1) = 1.0;  // eigenvalues 3, -1
  EXPECT_THROW(Cholesky{a}, Error);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(Cholesky{Matrix(2, 3)}, Error);
}

TEST(Cholesky, SolveSizeMismatchThrows) {
  const Cholesky chol(Matrix::identity(3));
  EXPECT_THROW(chol.solve(Vector{1.0, 2.0}), Error);
}

TEST(Cholesky, SolveLowerInPlaceMatchesAllocatingSolve) {
  Rng rng(6);
  const Matrix a = random_spd(12, rng);
  Vector b(12);
  for (auto& x : b) x = rng.normal();
  const Cholesky chol(a);
  const Vector expected = chol.solve_lower(b);
  Vector in_place = b;
  chol.solve_lower_in_place(in_place);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_DOUBLE_EQ(in_place[i], expected[i]);
  }
}

TEST(Cholesky, AppendRowMatchesFullFactorization) {
  // Grow an SPD matrix one bordered row at a time; the O(n²) rank-grow
  // factor must match refactorizing the extended matrix from scratch.
  Rng rng(7);
  const std::size_t n_final = 18;
  const Matrix a = random_spd(n_final, rng);
  const std::size_t n0 = 10;
  Matrix head(n0, n0);
  for (std::size_t i = 0; i < n0; ++i) {
    for (std::size_t j = 0; j < n0; ++j) head(i, j) = a(i, j);
  }
  Cholesky grown(head);
  for (std::size_t n = n0; n < n_final; ++n) {
    Vector b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = a(i, n);
    grown.append_row(b, a(n, n));
    ASSERT_EQ(grown.size(), n + 1);
    Matrix sub(n + 1, n + 1);
    for (std::size_t i = 0; i <= n; ++i) {
      for (std::size_t j = 0; j <= n; ++j) sub(i, j) = a(i, j);
    }
    const Matrix grown_l = grown.lower();
    const Matrix full_l = Cholesky(sub).lower();
    for (std::size_t i = 0; i <= n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        EXPECT_NEAR(grown_l(i, j), full_l(i, j), 1e-9)
            << "n=" << n << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(Cholesky, AppendRowRejectsNonSpdExtension) {
  // Border the identity with a row making the extension indefinite
  // (c <= bᵀb); the factor must be left unchanged.
  Cholesky chol(Matrix::identity(3));
  const Vector b{1.0, 1.0, 1.0};
  EXPECT_THROW(chol.append_row(b, 2.0), Error);
  EXPECT_EQ(chol.size(), 3u);
  EXPECT_NEAR(chol.log_determinant(), 0.0, 1e-12);
}

TEST(Cholesky, AppendRowSizeMismatchThrows) {
  Cholesky chol(Matrix::identity(3));
  EXPECT_THROW(chol.append_row(Vector{1.0, 2.0}, 10.0), Error);
}

TEST(Cholesky, ConstantDiagExtraBitIdenticalToFoldedScalar) {
  // A constant per-row diagonal extension sigma2 with diag_add = 0 must
  // reproduce the scalar diag_add = sigma2 factorization BITWISE:
  // scale*a + (0.0 + sigma2) == scale*a + sigma2 in IEEE arithmetic. The
  // heteroscedastic GP path depends on this to leave homoscedastic goldens
  // untouched.
  Rng rng(11);
  const std::size_t n = 9;
  const Matrix a = random_spd(n, rng);
  constexpr double kSigma2 = 1e-3;
  const Cholesky scalar(a, /*scale=*/1.0, /*diag_add=*/kSigma2);
  const std::vector<double> extra(n, kSigma2);
  const Cholesky het(a, /*scale=*/1.0, /*diag_add=*/0.0, extra);
  const Matrix ls = scalar.lower();
  const Matrix lh = het.lower();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_EQ(lh(i, j), ls(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

TEST(Cholesky, DiagExtraFactorReconstructsShiftedMatrix) {
  Rng rng(13);
  const std::size_t n = 7;
  const Matrix a = random_spd(n, rng);
  std::vector<double> extra(n);
  for (std::size_t i = 0; i < n; ++i) extra[i] = 0.1 * (i + 1);
  const double scale = 0.5;
  const double diag_add = 0.25;
  Cholesky chol(Matrix::identity(2));
  chol.refactor(a, scale, diag_add, extra);
  const Matrix l = chol.lower();
  const Matrix reconstructed = l.multiply(l.transposed());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double expected =
          scale * a(i, j) + (i == j ? diag_add + extra[i] : 0.0);
      EXPECT_NEAR(reconstructed(i, j), expected, 1e-10)
          << "(" << i << "," << j << ")";
    }
  }
}

TEST(Cholesky, DiagExtraSizeMismatchThrows) {
  Rng rng(17);
  const Matrix a = random_spd(4, rng);
  const std::vector<double> extra(3, 0.1);
  EXPECT_THROW(Cholesky(a, 1.0, 0.0, extra), Error);
}

TEST(Cholesky, RemoveRowMatchesFreshFactorization) {
  // Deleting any row/column from the factored matrix via the O(n²) Givens
  // downdate must match refactorizing the reduced matrix from scratch.
  Rng rng(19);
  const std::size_t n = 20;
  const Matrix a = random_spd(n, rng);
  for (const std::size_t i : {0u, 1u, 7u, 18u, 19u}) {
    Cholesky chol(a);
    chol.remove_row(i);
    ASSERT_EQ(chol.size(), n - 1);
    const Matrix expected =
        reference::cholesky_lower(reference::remove_row_col(a, i));
    const Matrix got = chol.lower();
    for (std::size_t r = 0; r < n - 1; ++r) {
      for (std::size_t c = 0; c <= r; ++c) {
        EXPECT_NEAR(got(r, c), expected(r, c), 1e-9)
            << "i=" << i << " (" << r << "," << c << ")";
      }
    }
  }
}

TEST(Cholesky, RemoveRowThenSolveGivesSmallResidual) {
  // The downdated factor must solve against the reduced matrix, not just
  // reconstruct it: residual check through both triangular sweeps.
  Rng rng(23);
  const std::size_t n = 24;
  const Matrix a = random_spd(n, rng);
  Cholesky chol(a);
  chol.remove_row(5);
  chol.remove_row(0);
  chol.remove_row(15);
  const Matrix reduced = reference::remove_row_col(
      reference::remove_row_col(reference::remove_row_col(a, 5), 0), 15);
  ASSERT_EQ(chol.size(), reduced.rows());
  Vector b(reduced.rows());
  for (auto& v : b) v = rng.normal();
  const Vector x = chol.solve(b);
  const Vector ax = reduced.multiply(x);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

TEST(Cholesky, RemoveRowOutOfRangeThrows) {
  Cholesky chol(Matrix::identity(3));
  EXPECT_THROW(chol.remove_row(3), Error);
  EXPECT_EQ(chol.size(), 3u);
}

TEST(Cholesky, RemoveRowLastRowTruncates) {
  // The i == n-1 fast path: dropping the last row of L is exact (no
  // rotations), so the surviving factor matches bitwise.
  Rng rng(29);
  const Matrix a = random_spd(9, rng);
  Cholesky chol(a);
  const Matrix before = chol.lower();
  chol.remove_row(8);
  const Matrix after = chol.lower();
  ASSERT_EQ(chol.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_EQ(after(i, j), before(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

TEST(Cholesky, RandomizedAppendRemoveInterleavingsMatchOracle) {
  // Satellite sweep for the sliding-window fast path: long random
  // interleavings of O(n²) appends and O(n²) Givens downdates, with and
  // without a per-row diag_extra shift, must track the fresh-refactorization
  // oracle through every step. Active rows index into one master SPD pool,
  // so every intermediate principal submatrix is SPD by construction.
  Rng rng(31);
  const std::size_t pool = 160;
  const Matrix master = random_spd(pool, rng);
  for (const bool het : {false, true}) {
    for (const std::size_t window : {6u, 12u, 24u}) {
      std::vector<double> extra(pool, 0.0);
      if (het) {
        for (std::size_t i = 0; i < pool; ++i) {
          extra[i] = 0.05 * static_cast<double>(i % 7 + 1);
        }
      }
      auto diag_of = [&](std::size_t i) { return master(i, i) + extra[i]; };
      std::vector<std::size_t> active{0, 1, 2};
      std::size_t next = 3;
      Matrix seed_m(3, 3);
      for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t c = 0; c < 3; ++c) {
          seed_m(r, c) = master(active[r], active[c]);
        }
        seed_m(r, r) = diag_of(active[r]);
      }
      Cholesky chol(seed_m);
      std::size_t ops = 0;
      for (std::size_t step = 0; step < 220; ++step) {
        const bool can_append = next < pool;
        const bool must_remove = active.size() >= window || !can_append;
        const bool must_append = active.size() <= 2 && can_append;
        const bool append =
            must_append || (!must_remove && rng.uniform() < 0.5);
        if (append) {
          Vector b(active.size());
          for (std::size_t k = 0; k < active.size(); ++k) {
            b[k] = master(active[k], next);
          }
          chol.append_row(b, diag_of(next));
          active.push_back(next++);
        } else {
          const std::size_t pos = std::min(
              active.size() - 1,
              static_cast<std::size_t>(rng.uniform() *
                                       static_cast<double>(active.size())));
          chol.remove_row(pos);
          active.erase(active.begin() + static_cast<std::ptrdiff_t>(pos));
        }
        ++ops;
        ASSERT_EQ(chol.size(), active.size());
        const std::size_t n = active.size();
        Matrix sub(n, n);
        for (std::size_t r = 0; r < n; ++r) {
          for (std::size_t c = 0; c < n; ++c) {
            sub(r, c) = master(active[r], active[c]);
          }
          sub(r, r) = diag_of(active[r]);
        }
        const Matrix expected = reference::cholesky_lower(sub);
        const Matrix got = chol.lower();
        for (std::size_t r = 0; r < n; ++r) {
          for (std::size_t c = 0; c <= r; ++c) {
            ASSERT_NEAR(got(r, c), expected(r, c), 1e-8)
                << "het=" << het << " window=" << window << " step=" << step
                << " (" << r << "," << c << ")";
          }
        }
      }
      EXPECT_GE(ops, 220u);
    }
  }
}

TEST(Cholesky, SlidingWindowSteadyStateAllocationFree) {
  // A window slide is remove_row(0) + append_row. Once capacity and the
  // scratch row are established, slides must never touch the heap — this is
  // what keeps the windowed GP's per-step cost flat at production length.
  if constexpr (kCheckedBuild) {
    GTEST_SKIP() << "zero-allocation guarantee applies to release builds";
  }
  Rng rng(37);
  const std::size_t pool = 96;
  const std::size_t window = 32;
  const Matrix master = random_spd(pool, rng);
  std::vector<std::size_t> active(window);
  for (std::size_t i = 0; i < window; ++i) active[i] = i;
  Matrix seed_m(window, window);
  for (std::size_t r = 0; r < window; ++r) {
    for (std::size_t c = 0; c < window; ++c) {
      seed_m(r, c) = master(r, c);
    }
  }
  Cholesky chol(seed_m);
  Vector b(window - 1);
  std::size_t next = window;
  auto slide = [&] {
    chol.remove_row(0);
    active.erase(active.begin());
    for (std::size_t k = 0; k + 1 < window; ++k) {
      b[k] = master(active[k], next);
    }
    chol.append_row(b, master(next, next));
    active.push_back(next++);
  };
  for (int warm = 0; warm < 2; ++warm) slide();
  const std::size_t allocs_before = chol.allocation_count();
  const std::size_t news_before = testprobe::new_call_count();
  for (int rep = 0; rep < 16; ++rep) slide();
  EXPECT_EQ(testprobe::new_call_count() - news_before, 0u)
      << "steady-state window slides touched the heap";
  EXPECT_EQ(chol.allocation_count(), allocs_before);
  EXPECT_EQ(chol.size(), window);
}

TEST(VectorOps, DotAndNorm) {
  const Vector a{1.0, 2.0, 3.0};
  const Vector b{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 12.0);
  EXPECT_DOUBLE_EQ(norm2(Vector{3.0, 4.0}), 5.0);
  EXPECT_THROW(dot(a, Vector{1.0}), Error);
}

TEST(VectorOps, Axpy) {
  const Vector a{1.0, 2.0};
  const Vector b{10.0, 20.0};
  const Vector c = axpy(a, 0.5, b);
  EXPECT_DOUBLE_EQ(c[0], 6.0);
  EXPECT_DOUBLE_EQ(c[1], 12.0);
}

}  // namespace
}  // namespace stormtune
