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

#include <cstddef>
#include <cstdint>

#include "linalg/kernels.hpp"
#include "linalg/kernels_blocks.hpp"
#include "common/check.hpp"

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
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t j = 0;
  for (; j + 4 <= len; j += 4) {
    const __m256d l = _mm256_loadu_pd(lrow + j);
    const __m256d w = _mm256_loadu_pd(v + j);
    const __m256d t = _mm256_add_pd(_mm256_mul_pd(vc, l), _mm256_mul_pd(vs, w));
    const __m256d nw =
        _mm256_sub_pd(_mm256_mul_pd(vc, w), _mm256_mul_pd(vs, l));
    _mm256_storeu_pd(v + j, nw);
    _mm256_storeu_pd(lrow + j, t);
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

}  // namespace stormtune::linalg_kernels::avx2

#endif  // STORMTUNE_HAVE_ISA_AVX2
