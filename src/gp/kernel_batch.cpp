// Dispatching front end of the batched correlation transform, plus the
// portable path (the pre-dispatch behavior every golden test pins).
//
// Wide paths live in kernel_batch_<isa>.cpp, each its own translation unit
// compiled with the matching -m<isa> flag and reached only through the
// dispatch table after a runtime CPU check. The checked-build agreement
// sampling below wraps the dispatch, so every path — portable and wide —
// is continuously compared against the scalar reference expressions.
#include "gp/kernel_batch.hpp"

#include <cmath>

#include "common/check.hpp"
#include "gp/kernel_batch_paths.hpp"

#if defined(__x86_64__) && defined(__GLIBC__)
#define STORMTUNE_HAVE_VECTOR_EXP 1
#include <emmintrin.h>

// libmvec's 2-lane SSE vector exp (glibc ≥ 2.22 links it through the libm
// linker script). The symbol dispatches internally on CPU features, so the
// baseline x86-64 build stays portable; lanes are evaluated independently,
// within a few ulp of a correctly rounded exp, and bit-identical run-to-run.
extern "C" __m128d _ZGVbN2v_exp(__m128d);
#endif

namespace stormtune::gp {

#ifdef STORMTUNE_CHECKED
namespace {

/// The scalar expressions of Kernel::correlation_from_scaled_sq, used as
/// the agreement reference for the batch transform.
double checked_scalar_reference(KernelFamily family, double scale, double r2) {
  switch (family) {
    case KernelFamily::kSquaredExponential:
      return scale * std::exp(-0.5 * r2);
    case KernelFamily::kMatern32: {
      const double sr = std::sqrt(3.0 * r2);
      return scale * ((1.0 + sr) * std::exp(-sr));
    }
    case KernelFamily::kMatern52: {
      const double sr = std::sqrt(5.0 * r2);
      return scale * ((1.0 + sr + sr * sr / 3.0) * std::exp(-sr));
    }
  }
  return 0.0;
}

/// Agreement sampling: a handful of inputs per batch call are re-evaluated
/// through the scalar reference and compared against the batch output. On
/// the scalar fallback the two are the same expressions (exact match); on
/// the libmvec paths — any lane width — the lanes are specified within a
/// few ulp of correctly rounded exp, so 1e-12 relative (plus an absolute
/// floor for results that underflow toward denormals) leaves three orders
/// of magnitude of margin while still catching any use of a reassociated
/// or approximate transform. Because the sampling wraps the dispatch, the
/// checked build exercises whichever ISA path is selected.
void checked_sample_agreement(KernelFamily family, double scale,
                              const double* out, const double* in,
                              const std::size_t* idx, std::size_t count) {
  for (std::size_t s = 0; s < count; ++s) {
    const double ref = checked_scalar_reference(family, scale, in[s]);
    const double got = out[idx[s]];
    const double tol =
        1e-12 * std::max(std::fabs(ref), std::fabs(got)) + 1e-280;
    STORMTUNE_INVARIANT(std::fabs(got - ref) <= tol,
                        "kernel_batch: batch path disagrees with the scalar "
                        "reference beyond ulp tolerance");
  }
}

}  // namespace
#endif

namespace detail {

#ifdef STORMTUNE_HAVE_VECTOR_EXP

namespace {

// Each helper computes one pair of lanes with the same operation sequence
// as the scalar expressions in Kernel::correlation_from_scaled_sq (sqrt,
// negate, exp, left-associated polynomial), so the two differ only through
// the exp implementation.
inline __m128d pair_sqexp(__m128d r2, __m128d scale) {
  const __m128d e = _ZGVbN2v_exp(_mm_mul_pd(_mm_set1_pd(-0.5), r2));
  return _mm_mul_pd(scale, e);
}

inline __m128d pair_matern32(__m128d r2, __m128d scale) {
  const __m128d one = _mm_set1_pd(1.0);
  const __m128d sr = _mm_sqrt_pd(_mm_mul_pd(_mm_set1_pd(3.0), r2));
  const __m128d e = _ZGVbN2v_exp(_mm_sub_pd(_mm_setzero_pd(), sr));
  return _mm_mul_pd(scale, _mm_mul_pd(_mm_add_pd(one, sr), e));
}

inline __m128d pair_matern52(__m128d r2, __m128d scale) {
  const __m128d one = _mm_set1_pd(1.0);
  const __m128d sr = _mm_sqrt_pd(_mm_mul_pd(_mm_set1_pd(5.0), r2));
  const __m128d e = _ZGVbN2v_exp(_mm_sub_pd(_mm_setzero_pd(), sr));
  const __m128d poly = _mm_add_pd(
      _mm_add_pd(one, sr),
      _mm_div_pd(_mm_mul_pd(sr, sr), _mm_set1_pd(3.0)));
  return _mm_mul_pd(scale, _mm_mul_pd(poly, e));
}

template <__m128d (*Pair)(__m128d, __m128d)>
void run(double scale, double* buf, std::size_t len) {
  const __m128d vscale = _mm_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 2 <= len; i += 2) {
    _mm_storeu_pd(buf + i, Pair(_mm_loadu_pd(buf + i), vscale));
  }
  if (i < len) {
    // Odd tail: both lanes carry the same value so the result matches the
    // in-pair evaluation bit for bit (libmvec lanes are independent).
    const __m128d g = Pair(_mm_set1_pd(buf[i]), vscale);
    _mm_store_sd(buf + i, g);
  }
}

}  // namespace

STORMTUNE_HOT void transform_portable(KernelFamily family, double scale, double* buf,
                        std::size_t len) {
  switch (family) {
    case KernelFamily::kSquaredExponential:
      run<pair_sqexp>(scale, buf, len);
      return;
    case KernelFamily::kMatern32:
      run<pair_matern32>(scale, buf, len);
      return;
    case KernelFamily::kMatern52:
      run<pair_matern52>(scale, buf, len);
      return;
  }
}

#else  // scalar fallback

STORMTUNE_HOT void transform_portable(KernelFamily family, double scale, double* buf,
                        std::size_t len) {
  switch (family) {
    case KernelFamily::kSquaredExponential:
      for (std::size_t i = 0; i < len; ++i) {
        buf[i] = scale * std::exp(-0.5 * buf[i]);
      }
      return;
    case KernelFamily::kMatern32:
      for (std::size_t i = 0; i < len; ++i) {
        const double sr = std::sqrt(3.0 * buf[i]);
        buf[i] = scale * ((1.0 + sr) * std::exp(-sr));
      }
      return;
    case KernelFamily::kMatern52:
      for (std::size_t i = 0; i < len; ++i) {
        const double sr = std::sqrt(5.0 * buf[i]);
        buf[i] = scale * ((1.0 + sr + sr * sr / 3.0) * std::exp(-sr));
      }
      return;
  }
}

#endif

TransformFn transform_for(isa::Path path) {
  switch (path) {
    case isa::Path::kPortable:
      return transform_portable;
    case isa::Path::kAvx2:
#ifdef STORMTUNE_HAVE_ISA_AVX2
      return transform_avx2;
#else
      return nullptr;
#endif
    case isa::Path::kAvx512:
#ifdef STORMTUNE_HAVE_ISA_AVX512
      return transform_avx512;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

}  // namespace detail

STORMTUNE_HOT void correlation_from_scaled_sq_batch(KernelFamily family, double scale,
                                      double* buf, std::size_t len) {
#ifdef STORMTUNE_CHECKED
  // Snapshot up to four inputs before the in-place transform overwrites
  // them; compared against the scalar reference afterwards.
  std::size_t sample_idx[4];
  double sample_in[4];
  std::size_t samples = 0;
  if (len > 0) {
    const std::size_t candidates[4] = {0, len / 3, (2 * len) / 3, len - 1};
    for (const std::size_t c : candidates) {
      if (samples > 0 && sample_idx[samples - 1] == c) continue;
      sample_idx[samples] = c;
      sample_in[samples] = buf[c];
      ++samples;
    }
  }
#endif
  const detail::TransformFn fn = detail::transform_for(isa::selected());
  (fn != nullptr ? fn : detail::transform_portable)(family, scale, buf, len);
#ifdef STORMTUNE_CHECKED
  checked_sample_agreement(family, scale, buf, sample_in, sample_idx, samples);
#endif
}

}  // namespace stormtune::gp
