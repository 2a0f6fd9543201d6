// AVX-512F (8-lane) kernels. Compiled with -mavx512f as its own translation
// unit; reached only through the dispatch table in kernels.cpp after a
// runtime CPU check (common/isa.hpp).
//
// Same bit-identity argument as the AVX2 file: separate multiply and
// subtract/add (no FMA), lanes touch disjoint elements. Partial vectors use
// masked loads and stores, so a tail element gets the same vector
// arithmetic as a full one.
#ifdef STORMTUNE_HAVE_ISA_AVX512

#include <immintrin.h>

#include <cmath>
#include <cstddef>

#include "linalg/kernels.hpp"
#include "linalg/kernels_blocks.hpp"
#include "common/check.hpp"

#if defined(__x86_64__) && defined(__GLIBC__)
#define STORMTUNE_HAVE_VECTOR_EXP 1
// libmvec's 8-lane AVX-512 exp ('e' ABI mangling).
extern "C" __m512d _ZGVeN8v_exp(__m512d);
#if __GLIBC_PREREQ(2, 35)
#define STORMTUNE_HAVE_VECTOR_ERFC 1
// libmvec's 8-lane AVX-512 erfc (glibc ≥ 2.35).
extern "C" __m512d _ZGVeN8v_erfc(__m512d);
#endif
#else
#define STORMTUNE_HAVE_VECTOR_EXP 0
#endif
#ifndef STORMTUNE_HAVE_VECTOR_ERFC
#define STORMTUNE_HAVE_VECTOR_ERFC 0
#endif

namespace stormtune::linalg_kernels::avx512 {

// The lane type lives in the anonymous namespace so its operations inline
// into the kernel loops below — an external symbol would stay a real call
// per vector, which is exactly the overhead the routine-level dispatch
// removes.
namespace {

struct Lanes {
  using Reg = __m512d;
  using Mask = __mmask8;
  static constexpr std::size_t kLanes = 8;

  static Mask tail_mask(std::size_t len) {
    return static_cast<Mask>((1u << len) - 1u);
  }
  static Reg load(const double* p) { return _mm512_loadu_pd(p); }
  static Reg load(const double* p, Mask m) {
    return _mm512_maskz_loadu_pd(m, p);
  }
  static void store(double* p, Reg x) { _mm512_storeu_pd(p, x); }
  static void store(double* p, Reg x, Mask m) {
    _mm512_mask_storeu_pd(p, m, x);
  }
  static Reg set1(double a) { return _mm512_set1_pd(a); }
  static Reg zero() { return _mm512_setzero_pd(); }
  static Reg add(Reg a, Reg b) { return _mm512_add_pd(a, b); }
  static Reg sub(Reg a, Reg b) { return _mm512_sub_pd(a, b); }
  static Reg mul(Reg a, Reg b) { return _mm512_mul_pd(a, b); }
  static Reg div(Reg a, Reg b) { return _mm512_div_pd(a, b); }
  // The all-lanes masked sqrt is the same vsqrtpd as _mm512_sqrt_pd, whose
  // gcc 12 expansion reads _mm512_undefined_pd() and trips
  // -Wmaybe-uninitialized under STORMTUNE_WERROR.
  static Reg sqrt(Reg x) { return _mm512_maskz_sqrt_pd(0xFF, x); }
  static Reg exp(Reg x) {
#if STORMTUNE_HAVE_VECTOR_EXP
    return _ZGVeN8v_exp(x);
#else
    double l[kLanes];
    store(l, x);
    for (double& e : l) e = std::exp(e);
    return load(l);
#endif
  }
  static Reg fma(Reg a, Reg b, Reg c) { return _mm512_fmadd_pd(a, b, c); }
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
                                std::size_t ldo, const double* w) {
  detail::sq_dist_rows<Lanes>(xt, ldx, n, d, q, ldq, rows, out, ldo, w);
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
  return detail::cholesky_factor_mirror<Lanes, 4>(ltf, ld, n);
}

// Two column vectors at a time: twelve accumulators, inside AVX-512's 32
// registers.
STORMTUNE_HOT void bound_sums(const double* x, std::size_t ldx, std::size_t n,
                              std::size_t d, const double* w, std::size_t sets,
                              double* out) {
  detail::bound_sums<Lanes, 2>(x, ldx, n, d, w, sets, out);
}

STORMTUNE_HOT void bound_solve(const double* lower, std::size_t ld,
                               std::size_t n, const double* k, double* w,
                               double* lt) {
  detail::bound_solve<Lanes>(lower, ld, n, k, w, lt);
}

#if STORMTUNE_HAVE_VECTOR_ERFC

namespace {

// All-lanes masked max, for the reason Lanes::sqrt is masked.
inline __m512d max8(__m512d a, __m512d b) {
  return _mm512_maskz_max_pd(0xFF, a, b);
}

}  // namespace

// EI as bo::expected_improvement writes it, eight lanes at a time, with
// libmvec's erfc and exp; masked-off tail lanes read 0 and are not stored.
STORMTUNE_HOT void ei_bounds(const double* mean, const double* var,
                             std::size_t m, double best, double xi, double eps,
                             double* out) {
  const __m512d zero = _mm512_setzero_pd();
  const __m512d vbest = _mm512_set1_pd(best);
  const __m512d vxi = _mm512_set1_pd(xi);
  const __m512d slack = _mm512_set1_pd(eps + kEiBoundUlps);
  const __m512d fixed =
      _mm512_set1_pd(eps * (std::fabs(best) + std::fabs(xi)));
  const __m512d inf = _mm512_set1_pd(detail::kInf);
  for (std::size_t r = 0; r < m; r += 8) {
    const __mmask8 mask =
        m - r < 8 ? Lanes::tail_mask(m - r) : static_cast<__mmask8>(0xFF);
    const __m512d mu = _mm512_maskz_loadu_pd(mask, mean + r);
    const __m512d v = _mm512_maskz_loadu_pd(mask, var + r);
    const __m512d imp = _mm512_sub_pd(_mm512_sub_pd(mu, vbest), vxi);
    const __m512d pos = max8(imp, zero);
    const __m512d sd = Lanes::sqrt(v);
    const __m512d z = _mm512_div_pd(imp, sd);
    const __m512d cdf = _mm512_mul_pd(
        _mm512_set1_pd(0.5),
        _ZGVeN8v_erfc(_mm512_mul_pd(_mm512_sub_pd(zero, z),
                                    _mm512_set1_pd(0.70710678118654752440))));
    const __m512d pdf = _mm512_mul_pd(
        Lanes::exp(_mm512_mul_pd(_mm512_mul_pd(_mm512_set1_pd(-0.5), z), z)),
        _mm512_set1_pd(0.39894228040143267794));
    __m512d ei = _mm512_add_pd(_mm512_mul_pd(imp, cdf), _mm512_mul_pd(sd, pdf));
    ei = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(v, zero, _CMP_EQ_OQ), ei,
                              pos);
    __m512d res = _mm512_add_pd(
        ei, _mm512_add_pd(_mm512_mul_pd(slack, _mm512_add_pd(pos, sd)), fixed));
    const __mmask8 finite =
        _mm512_cmp_pd_mask(_mm512_abs_pd(mu), inf, _CMP_LT_OQ);
    res = _mm512_mask_blend_pd(finite, inf, res);
    _mm512_mask_storeu_pd(out + r, mask, res);
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

}  // namespace stormtune::linalg_kernels::avx512

#endif  // STORMTUNE_HAVE_ISA_AVX512
