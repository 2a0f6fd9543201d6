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

#include <cstddef>

#include "linalg/kernels.hpp"
#include "linalg/kernels_blocks.hpp"
#include "common/check.hpp"

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
};

}  // namespace

STORMTUNE_HOT std::size_t cholesky_factor(double* lf, double* ltf,
                                          std::size_t ld, std::size_t n) {
  return detail::cholesky_factor<Lanes>(lf, ltf, ld, n);
}

// Givens rotation across a factor row and the downdate carry vector: both
// products per output evaluated with separate mul/add/sub (no vfmadd),
// lanes touch disjoint elements, so the sequence per element is exactly
// the portable loop's.
STORMTUNE_HOT void givens_row_update(double* lrow, double* v, double c,
                                     double s, std::size_t len) {
  const __m512d vc = _mm512_set1_pd(c);
  const __m512d vs = _mm512_set1_pd(s);
  std::size_t j = 0;
  for (; j + 8 <= len; j += 8) {
    const __m512d l = _mm512_loadu_pd(lrow + j);
    const __m512d w = _mm512_loadu_pd(v + j);
    const __m512d t = _mm512_add_pd(_mm512_mul_pd(vc, l), _mm512_mul_pd(vs, w));
    const __m512d nw =
        _mm512_sub_pd(_mm512_mul_pd(vc, w), _mm512_mul_pd(vs, l));
    _mm512_storeu_pd(v + j, nw);
    _mm512_storeu_pd(lrow + j, t);
  }
  for (; j < len; ++j) {
    const double t = c * lrow[j] + s * v[j];
    v[j] = c * v[j] - s * lrow[j];
    lrow[j] = t;
  }
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

}  // namespace stormtune::linalg_kernels::avx512

#endif  // STORMTUNE_HAVE_ISA_AVX512
