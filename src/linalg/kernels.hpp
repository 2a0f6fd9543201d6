// The dense kernels under the Cholesky factor and the GP distance caches,
// behind a runtime ISA dispatch table (common/isa.hpp).
//
// Everything here is single-threaded and evaluates every floating-point
// reduction in one fixed order (k ascending, left-associated, separate
// multiply and subtract/add — no FMA contraction), independent of how the
// elements are grouped into lanes, strips or tiles. The kernels only choose
// the memory walk and which elements share a vector register; each element
// sees the same operands in the same sequence a scalar k-loop would apply.
// That is what keeps the factor and the solves equal element-for-element to
// the naive reference kernels (tests/linalg_reference.hpp, reciprocal
// scaling), keeps GP fits reproducible run-to-run, and makes the portable,
// AVX2 and AVX-512 paths bit-identical (verified by
// tests/test_isa_dispatch.cpp).
// Two kinds of entry are exceptions: the correlation transform, whose exp
// lanes come from each width's libmvec routine, and the bound-class
// kernels at the end of the table, which only ever feed rigorous bounds and
// are valid, not bit-identical, on every path.
#pragma once

#include <cstddef>

#include "common/isa.hpp"

namespace stormtune::linalg_kernels {

/// The stationary kernels' unit-amplitude correlations g(r²) (gp::Kernel).
enum class KernelFamily {
  kSquaredExponential,
  kMatern32,
  kMatern52,
};

/// g(r²) for an already-scaled squared distance r² = Σ((x_k−y_k)/l_k)²:
/// e^{−r²/2}, (1 + √(3r²))·e^{−√(3r²)} or
/// (1 + √(5r²) + 5r²/3)·e^{−√(5r²)}, in that operation order. The scalar
/// form of KernelOps::correlation, whose lanes follow it step for step.
/// Defined in the portable translation unit, so every path's checked-build
/// sampling compares against baseline code.
double correlation_from_scaled_sq(KernelFamily family, double r2);

/// The kernel entry points one ISA path provides. The dispatch unit is a
/// whole routine (a factorization, a solve sweep, a distance block), never
/// a row update: the rows at this library's sizes are a few dozen elements
/// long, so routing each through a function pointer would cost more than
/// the wide lanes save. Call sites fetch the table once per routine. Each
/// path's table is detail::make_ops over its lane type, instantiated in the
/// path's own translation unit, so the lane operations inline into the
/// loops (linalg/kernels_blocks.hpp).
struct KernelOps {
  /// Left-looking Cholesky of the n×n SPD matrix whose lower triangle is
  /// held transposed in `ltf` on entry (row j, columns [j, n) = column j of
  /// A). Column j of L accumulates across lanes of rows i ≥ j:
  /// A(i,j) − L(i,0)·L(j,0) − … − L(i,j−1)·L(j,j−1), k ascending, reading
  /// the finished columns stride-1 from the mirror rows. The diagonal then
  /// must be > 0; L(j,j) = sqrt(d) and every L(i,j) below it is the sum
  /// times 1/L(j,j). L is written to both the row-major factor `lf` and the
  /// mirror `ltf` (both leading dimension ld). Returns n on success, or the
  /// first column whose diagonal is not positive (factor then unspecified).
  std::size_t (*cholesky_factor)(double* lf, double* ltf, std::size_t ld,
                                 std::size_t n);
  /// One Givens rotation applied across a factor row and the downdate
  /// carry vector: per element, t = c*lrow[j] + s*v[j];
  /// v[j] = c*v[j] - s*lrow[j]; lrow[j] = t — separate multiply/add/sub
  /// and elementwise-independent lanes, so every path produces the scalar
  /// sequence bit for bit. This is the inner sweep of Cholesky::remove_row:
  /// rotating the deleted row's column out of the trailing factor, one
  /// column (= one stride-1 mirror row) at a time.
  void (*givens_row_update)(double* lrow, double* v, double c, double s,
                            std::size_t len);
  /// Forward substitution L V = B over the first m columns of an n-row
  /// row-major block `v` (row stride ldv ≥ m), in column strips: per row
  /// i, the strip's accumulators take
  /// v(i,r) − L(i,0)·v(0,r) − … − L(i,i−1)·v(i−1,r) in registers, k
  /// ascending, then one multiply by 1/L(i,i).
  void (*solve_lower_multi)(const double* lf, std::size_t ld, double* v,
                            std::size_t ldv, std::size_t m, std::size_t n);
  /// Squared distances from `rows` query points (row r at q + r·ldq, d
  /// coordinates) to n points held transposed in `xt` (d rows of leading
  /// dimension ldx, column i = point i):
  /// out[r·ldo + i] = 0 + (x_i0 − q_r0)² + … + (x_i,d−1 − q_r,d−1)², k
  /// ascending, lanes across the points i. With per-coordinate weights
  /// `w` (the GP's ARD 1/l_k²) each term is (x_ik − q_rk)²·w_k, the
  /// square rounded before the product; w = nullptr leaves them unscaled.
  void (*sq_dist_rows)(const double* xt, std::size_t ldx, std::size_t n,
                       std::size_t d, const double* q, std::size_t ldq,
                       std::size_t rows, double* out, std::size_t ldo,
                       const double* w);
  /// Weighted column sums over the first m columns of an n-row block `v`
  /// (row stride ldv ≥ m): out[c] = 0 + v(0,c)·w[0] + … + v(n−1,c)·w[n−1],
  /// i ascending, lanes across the columns c. The GP's predictive means
  /// (w = α, one column per candidate).
  void (*column_dots)(const double* v, std::size_t ldv, std::size_t n,
                      std::size_t m, const double* w, double* out);
  /// Column sums of squares over the same layout:
  /// out[c] = 0 + v(0,c)² + … + v(n−1,c)², i ascending. The GP's predictive
  /// variances subtract this from a² after the forward solve.
  void (*column_sq_sums)(const double* v, std::size_t ldv, std::size_t n,
                         std::size_t m, double* out);

  /// In-place buf[i] = scale · g(buf[i]), g the unit correlation of
  /// `family` (correlation_from_scaled_sq, same operation order) and buf
  /// holding scaled squared distances r² ≥ 0; `scale` is a² for
  /// covariances and 1 for correlation matrices. Every correlation the GP
  /// materializes goes through this one map. Its exp lanes are libmvec's
  /// width-matched routines on x86-64/glibc (per-lane std::exp
  /// elsewhere), which are lane-independent: a path's bits depend on
  /// neither len nor an element's position, and run to run they repeat.
  /// Across paths they may differ by a few ulps from each other and from
  /// the scalar form. Checked builds compare up to four elements per call
  /// against the scalar form within 1e-12 relative.
  void (*correlation)(KernelFamily family, double scale, double* buf,
                      std::size_t len);

  // The bound kernels. Unlike every entry above they are NOT bit-identical
  // across paths: they may contract to FMA, sum in any order, and EI's
  // erfc is a lane template over each path's exp. They feed only rigorous
  // bounds — the local search's upper bounds and the hyper sampler's
  // log-posterior allowances (DESIGN.md §8, "Bounded local search" and
  // "Certified slice comparisons") — whose rounding allowances cover any
  // summation order and the errors stated here, so each path's result is
  // valid though its bits differ.

  /// Left-looking Cholesky held in the mirror alone: on entry row j,
  /// columns [j, n), of `ltf` is column j of the SPD matrix A; on return
  /// it is column j of L. Columns go in fours, so each mirror vector
  /// loaded in the k < j sweep feeds four columns; each update is one
  /// V::fma (a separate multiply and add on the portable and AVX2 paths);
  /// each column then takes its terms from the block's earlier columns
  /// and is scaled by 1/L(j,j) in one strip pass; and no row-major factor
  /// is written. Returns n on success, or the first
  /// column whose diagonal is not positive. Any such factor is backward
  /// stable (L·Lᵀ = A + ΔA, |ΔA| ≤ γ_{n+2}·|L|·|Lᵀ|), which is all its
  /// callers use.
  std::size_t (*cholesky_factor_mirror)(double* ltf, std::size_t ld,
                                        std::size_t n);

  /// For each of `sets` weight sets s, four n-vectors a, b, c, e at
  /// w + 4·n·s, the six column sums over the n × d row-major block `x`
  /// (row stride ldx) into out + 6·d·s, d entries each: Xᵀa, Xᵀb,
  /// (X∘X)ᵀb, Xᵀc, Xᵀe and (X∘X)ᵀe. One pass over X; the squares are
  /// formed on the fly.
  void (*bound_sums)(const double* x, std::size_t ldx, std::size_t n,
                     std::size_t d, const double* w, std::size_t sets,
                     double* out);
  /// An approximation w of (L·Lᵀ)⁻¹k by forward and back substitution
  /// through the n lower rows of L (row i at lower + i·ld, a positive
  /// diagonal), and lt = Lᵀw computed from that w. Any w serves the
  /// caller; only lt must be Lᵀw up to the rounding of its own products.
  void (*bound_solve)(const double* lower, std::size_t ld, std::size_t n,
                      const double* k, double* w, double* lt);
  /// Upper bounds on the expected improvement of m Gaussians:
  /// out[r] = EI(mean[r], var[r]; best, xi)
  ///          + (eps + kEiBoundUlps)·(max(0, mean[r] − best − xi) + σ_r)
  ///          + eps·(|best| + |xi|),
  /// σ_r = √var[r], var[r] ≥ 0, and +∞ where mean[r] is NaN or ±∞. EI
  /// takes bo::expected_improvement's operations with the lane erfc (the
  /// `erfc` entry) and the path's exp lanes. `out` may alias `mean`.
  void (*ei_bounds)(const double* mean, const double* var, std::size_t m,
                    double best, double xi, double eps, double* out);
  /// In-place buf[i] = erfc(buf[i]) by ei_bounds' table-free lane erfc
  /// (linalg/kernels_blocks.hpp), within kErfcLaneUlps for every x.
  void (*erfc)(double* buf, std::size_t len);
};

/// The lane erfc's allowed error relative to max(|erfc(x)|, DBL_MIN), so
/// a subnormal result is judged by its absolute error: 12u, u = 2⁻⁵³
/// (measured 9.5u; IsaDispatch.LaneErfcMatchesErfclOnEveryPath).
inline constexpr double kErfcLaneUlps = 12.0 * 0x1p-53;

/// ei_bounds' allowance for its erfc and exp lanes: four times the 23u of
/// max(0, imp) + σ by which they can move EI (DESIGN.md §8, "Bounded local
/// search", Allowances).
inline constexpr double kEiBoundUlps = 92.0 * 0x1p-53;

/// Row stride, in doubles, for a row-major block at least `cols` wide
/// whose column strips the kernels walk down: whole 64-byte lines, and an
/// odd number of them, so consecutive rows start in different L1 sets. A
/// stride that is a multiple of 4 KiB maps every row of a strip to the
/// same few sets and turns an L1-resident strip into L2 traffic
/// (measured: n=128 factorization 50 µs at stride 128, 30 µs at 136).
constexpr std::size_t padded_ld(std::size_t cols) {
  const std::size_t lines = (cols + 7) / 8;
  return 8 * (lines % 2 == 0 ? lines + 1 : lines);
}

/// The table for the currently selected ISA path (isa::selected()).
const KernelOps& ops();

/// The table for a specific compiled-in path, or nullptr when this binary
/// does not contain it. Test hook: the exact-equality sweep drives every
/// compiled path against the portable one through this.
const KernelOps* ops_for(isa::Path path);

}  // namespace stormtune::linalg_kernels
