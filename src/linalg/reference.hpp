// Naive textbook kernels kept as the correctness oracle for the kernels in
// matrix.cpp: unblocked left-looking Cholesky, single-accumulator
// triangular solves (the Lᵀ solve with a column-strided walk). Tests sweep
// sizes across lane and strip boundaries and compare; production code
// should never call these.
#pragma once

#include "linalg/matrix.hpp"

namespace stormtune::reference {

/// How the oracles finish an element once its k-ascending subtractions are
/// done: divide by the diagonal (the textbook form) or multiply by the
/// diagonal's reciprocal, which is what the production kernels do — one
/// divide per column or row instead of one per element. With kReciprocal
/// the oracles reproduce the production factor and solves bit for bit.
enum class Scale { kDivide, kReciprocal };

/// Unblocked Cholesky: returns the lower factor of SPD `a` (strict upper
/// zero). Throws stormtune::Error if not (numerically) SPD.
Matrix cholesky_lower(const Matrix& a, Scale scale = Scale::kDivide);

/// Forward substitution L y = b against an explicit lower factor.
Vector solve_lower(const Matrix& l, const Vector& b,
                   Scale scale = Scale::kDivide);

/// Backward substitution Lᵀ x = y, walking l column-wise like the
/// pre-mirror implementation did.
Vector solve_lower_transpose(const Matrix& l, const Vector& y,
                             Scale scale = Scale::kDivide);

/// `a` with row and column `i` deleted — builds the (n−1)×(n−1) matrix a
/// fresh refactorization sees after a window eviction. Oracle input for
/// Cholesky::remove_row: the downdated factor must match
/// cholesky_lower(remove_row_col(a, i)) to tight tolerance.
Matrix remove_row_col(const Matrix& a, std::size_t i);

}  // namespace stormtune::reference
