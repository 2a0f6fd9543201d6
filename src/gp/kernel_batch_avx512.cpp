// AVX-512F (8-lane) batched correlation transform around libmvec's 8-lane
// vector exp. Compiled with -mavx512f as its own translation unit; reached
// only through the dispatch table in kernel_batch.cpp after a runtime CPU
// check (common/isa.hpp). See kernel_batch_avx2.cpp for the determinism and
// tail-handling rationale — this file is the same structure at twice the
// lane width.
#ifdef STORMTUNE_HAVE_ISA_AVX512

#include "gp/kernel_batch_paths.hpp"

#if defined(__x86_64__) && defined(__GLIBC__)

#include <immintrin.h>
#include "common/check.hpp"

// libmvec's 8-lane AVX-512 vector exp ('e' ABI mangling).
extern "C" __m512d _ZGVeN8v_exp(__m512d);

namespace stormtune::gp::detail {

namespace {

inline __m512d oct_sqexp(__m512d r2, __m512d scale) {
  const __m512d e = _ZGVeN8v_exp(_mm512_mul_pd(_mm512_set1_pd(-0.5), r2));
  return _mm512_mul_pd(scale, e);
}

// The all-lanes masked sqrt is the same vsqrtpd as _mm512_sqrt_pd, whose
// gcc 12 expansion reads _mm512_undefined_pd() and trips
// -Wmaybe-uninitialized under STORMTUNE_WERROR.
inline __m512d sqrt8(__m512d x) { return _mm512_maskz_sqrt_pd(0xFF, x); }

inline __m512d oct_matern32(__m512d r2, __m512d scale) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d sr = sqrt8(_mm512_mul_pd(_mm512_set1_pd(3.0), r2));
  const __m512d e = _ZGVeN8v_exp(_mm512_sub_pd(_mm512_setzero_pd(), sr));
  return _mm512_mul_pd(scale, _mm512_mul_pd(_mm512_add_pd(one, sr), e));
}

inline __m512d oct_matern52(__m512d r2, __m512d scale) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d sr = sqrt8(_mm512_mul_pd(_mm512_set1_pd(5.0), r2));
  const __m512d e = _ZGVeN8v_exp(_mm512_sub_pd(_mm512_setzero_pd(), sr));
  const __m512d poly = _mm512_add_pd(
      _mm512_add_pd(one, sr),
      _mm512_div_pd(_mm512_mul_pd(sr, sr), _mm512_set1_pd(3.0)));
  return _mm512_mul_pd(scale, _mm512_mul_pd(poly, e));
}

template <__m512d (*Oct)(__m512d, __m512d)>
void run(double scale, double* buf, std::size_t len) {
  const __m512d vscale = _mm512_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    _mm512_storeu_pd(buf + i, Oct(_mm512_loadu_pd(buf + i), vscale));
  }
  if (i < len) {
    const std::size_t rem = len - i;
    double tmp[8];
    for (std::size_t k = 0; k < 8; ++k) {
      tmp[k] = buf[i + (k < rem ? k : rem - 1)];
    }
    const __m512d g = Oct(_mm512_loadu_pd(tmp), vscale);
    _mm512_storeu_pd(tmp, g);
    for (std::size_t k = 0; k < rem; ++k) buf[i + k] = tmp[k];
  }
}

}  // namespace

STORMTUNE_HOT void transform_avx512(KernelFamily family, double scale, double* buf,
                      std::size_t len) {
  switch (family) {
    case KernelFamily::kSquaredExponential:
      run<oct_sqexp>(scale, buf, len);
      return;
    case KernelFamily::kMatern32:
      run<oct_matern32>(scale, buf, len);
      return;
    case KernelFamily::kMatern52:
      run<oct_matern52>(scale, buf, len);
      return;
  }
}

}  // namespace stormtune::gp::detail

#else  // no glibc libmvec: degrade to the portable transform

namespace stormtune::gp::detail {

STORMTUNE_HOT void transform_avx512(KernelFamily family, double scale, double* buf,
                      std::size_t len) {
  transform_portable(family, scale, buf, len);
}

}  // namespace stormtune::gp::detail

#endif

#endif  // STORMTUNE_HAVE_ISA_AVX512
