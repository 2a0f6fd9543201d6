// AVX2 (4-lane) kernels. Compiled with -mavx2 as its own translation unit;
// reached only through the dispatch table in kernels.cpp after a runtime
// CPU check (common/isa.hpp).
//
// Bit-identity with the portable path: every update is a separate multiply
// and subtract/add — deliberately NOT vfmadd, whose single rounding would
// change the result — so per element the arithmetic sequence is exactly
// the scalar loop's. The vector lanes touch disjoint elements; no reduction
// crosses a lane, so lane width cannot reorder anything.
#ifdef STORMTUNE_HAVE_ISA_AVX2

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "linalg/kernels.hpp"
#include "linalg/kernels_blocks.hpp"
#include "common/check.hpp"

#if defined(__x86_64__) && defined(__GLIBC__)
#define STORMTUNE_HAVE_VECTOR_EXP 1
// libmvec's 4-lane AVX2 exp ('d' ABI mangling), linked like the portable
// TU's 2-lane one.
extern "C" __m256d _ZGVdN4v_exp(__m256d);
#if __GLIBC_PREREQ(2, 35)
#define STORMTUNE_HAVE_VECTOR_ERFC 1
// libmvec's 4-lane AVX2 erfc (glibc ≥ 2.35).
extern "C" __m256d _ZGVdN4v_erfc(__m256d);
#endif
#else
#define STORMTUNE_HAVE_VECTOR_EXP 0
#endif
#ifndef STORMTUNE_HAVE_VECTOR_ERFC
#define STORMTUNE_HAVE_VECTOR_ERFC 0
#endif

namespace stormtune::linalg_kernels::avx2 {

// The lane type lives in the anonymous namespace so it inlines into the
// kernel loops; see kernels_avx512.cpp.
namespace {

struct Lanes {
  using Reg = __m256d;
  using Mask = __m256i;
  static constexpr std::size_t kLanes = 4;

  static Mask tail_mask(std::size_t len) {
    const auto on = [len](std::size_t l) -> std::int64_t {
      return l < len ? -1 : 0;
    };
    return _mm256_setr_epi64x(on(0), on(1), on(2), on(3));
  }
  static Reg load(const double* p) { return _mm256_loadu_pd(p); }
  static Reg load(const double* p, Mask m) { return _mm256_maskload_pd(p, m); }
  static void store(double* p, Reg x) { _mm256_storeu_pd(p, x); }
  static void store(double* p, Reg x, Mask m) { _mm256_maskstore_pd(p, m, x); }
  static Reg set1(double a) { return _mm256_set1_pd(a); }
  static Reg zero() { return _mm256_setzero_pd(); }
  static Reg add(Reg a, Reg b) { return _mm256_add_pd(a, b); }
  static Reg sub(Reg a, Reg b) { return _mm256_sub_pd(a, b); }
  static Reg mul(Reg a, Reg b) { return _mm256_mul_pd(a, b); }
  static Reg div(Reg a, Reg b) { return _mm256_div_pd(a, b); }
  static Reg sqrt(Reg x) { return _mm256_sqrt_pd(x); }
  static Reg exp(Reg x) {
#if STORMTUNE_HAVE_VECTOR_EXP
    return _ZGVdN4v_exp(x);
#else
    double l[kLanes];
    store(l, x);
    for (double& e : l) e = std::exp(e);
    return load(l);
#endif
  }
  // Multiply then add: this TU is built without -mfma.
  static Reg fma(Reg a, Reg b, Reg c) { return add(mul(a, b), c); }
};

}  // namespace

STORMTUNE_HOT std::size_t cholesky_factor(double* lf, double* ltf,
                                          std::size_t ld, std::size_t n) {
  return detail::cholesky_factor<Lanes>(lf, ltf, ld, n);
}

STORMTUNE_HOT void givens_row_update(double* lrow, double* v, double c,
                                     double s, std::size_t len) {
  detail::givens_row_update<Lanes>(lrow, v, c, s, len);
}

STORMTUNE_HOT void solve_lower_multi(const double* lf, std::size_t ld,
                                     double* v, std::size_t ldv,
                                     std::size_t m, std::size_t n) {
  detail::solve_lower_multi<Lanes>(lf, ld, v, ldv, m, n);
}

STORMTUNE_HOT void solve_lower_transpose_multi(const double* ltf,
                                               std::size_t ld, double* v,
                                               std::size_t ldv, std::size_t m,
                                               std::size_t n) {
  detail::solve_lower_transpose_multi<Lanes>(ltf, ld, v, ldv, m, n);
}

STORMTUNE_HOT void sq_dist_rows(const double* xt, std::size_t ldx,
                                std::size_t n, std::size_t d, const double* q,
                                std::size_t ldq, std::size_t rows, double* out,
                                std::size_t ldo) {
  detail::sq_dist_rows<Lanes>(xt, ldx, n, d, q, ldq, rows, out, ldo);
}

STORMTUNE_HOT void column_dots(const double* v, std::size_t ldv, std::size_t n,
                               std::size_t m, const double* w, double* out) {
  detail::column_sums<Lanes, false>(v, ldv, n, m, w, out);
}

STORMTUNE_HOT void column_sq_sums(const double* v, std::size_t ldv,
                                  std::size_t n, std::size_t m, double* out) {
  detail::column_sums<Lanes, true>(v, ldv, n, m, nullptr, out);
}

STORMTUNE_HOT void correlation(KernelFamily family, double scale, double* buf,
                               std::size_t len) {
  detail::correlation<Lanes>(family, scale, buf, len);
}

STORMTUNE_HOT std::size_t cholesky_factor_mirror(double* ltf, std::size_t ld,
                                                 std::size_t n) {
  return detail::cholesky_factor_mirror<Lanes, 2>(ltf, ld, n);
}

STORMTUNE_HOT void bound_sums(const double* x, std::size_t ldx, std::size_t n,
                              std::size_t d, const double* w, std::size_t sets,
                              double* out) {
  detail::bound_sums<Lanes, 1>(x, ldx, n, d, w, sets, out);
}

STORMTUNE_HOT void bound_solve(const double* lower, std::size_t ld,
                               std::size_t n, const double* k, double* w,
                               double* lt) {
  detail::bound_solve<Lanes>(lower, ld, n, k, w, lt);
}

#if STORMTUNE_HAVE_VECTOR_ERFC

// EI as bo::expected_improvement writes it, four lanes at a time, with
// libmvec's erfc and exp; masked-off tail lanes read 0 and are not stored.
STORMTUNE_HOT void ei_bounds(const double* mean, const double* var,
                             std::size_t m, double best, double xi, double eps,
                             double* out) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d vbest = _mm256_set1_pd(best);
  const __m256d vxi = _mm256_set1_pd(xi);
  const __m256d slack = _mm256_set1_pd(eps + kEiBoundUlps);
  const __m256d fixed =
      _mm256_set1_pd(eps * (std::fabs(best) + std::fabs(xi)));
  const __m256d inf =
      _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d sign = _mm256_set1_pd(-0.0);
  for (std::size_t r = 0; r < m; r += 4) {
    const __m256i mask = Lanes::tail_mask(m - r < 4 ? m - r : 4);
    const __m256d mu = _mm256_maskload_pd(mean + r, mask);
    const __m256d v = _mm256_maskload_pd(var + r, mask);
    const __m256d imp = _mm256_sub_pd(_mm256_sub_pd(mu, vbest), vxi);
    const __m256d pos = _mm256_max_pd(imp, zero);
    const __m256d sd = Lanes::sqrt(v);
    const __m256d z = _mm256_div_pd(imp, sd);
    const __m256d cdf = _mm256_mul_pd(
        _mm256_set1_pd(0.5),
        _ZGVdN4v_erfc(_mm256_mul_pd(_mm256_xor_pd(z, sign),
                                    _mm256_set1_pd(0.70710678118654752440))));
    const __m256d pdf = _mm256_mul_pd(
        Lanes::exp(_mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(-0.5), z), z)),
        _mm256_set1_pd(0.39894228040143267794));
    __m256d ei = _mm256_add_pd(_mm256_mul_pd(imp, cdf), _mm256_mul_pd(sd, pdf));
    ei = _mm256_blendv_pd(ei, pos, _mm256_cmp_pd(v, zero, _CMP_EQ_OQ));
    __m256d res = _mm256_add_pd(
        ei, _mm256_add_pd(_mm256_mul_pd(slack, _mm256_add_pd(pos, sd)), fixed));
    const __m256d finite =
        _mm256_cmp_pd(_mm256_andnot_pd(sign, mu), inf, _CMP_LT_OQ);
    res = _mm256_blendv_pd(inf, res, finite);
    _mm256_maskstore_pd(out + r, mask, res);
  }
}

#else

STORMTUNE_HOT void ei_bounds(const double* mean, const double* var,
                             std::size_t m, double best, double xi, double eps,
                             double* out) {
  for (std::size_t r = 0; r < m; ++r) {
    out[r] = detail::ei_bound_scalar(mean[r], var[r], best, xi, eps);
  }
}

#endif

}  // namespace stormtune::linalg_kernels::avx2

#endif  // STORMTUNE_HAVE_ISA_AVX2
