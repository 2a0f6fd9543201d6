// Portable kernels and the ISA dispatch table.
//
// The portable lane type is a two-double GCC/Clang vector: baseline SSE2 on
// x86-64, Advanced SIMD on AArch64, scalar code elsewhere. The wide
// implementations live in kernels_<isa>.cpp, each compiled as its own
// translation unit with the matching -m<isa> flag so the rest of the
// library never emits instructions the baseline target lacks.
#include "linalg/kernels.hpp"

#include <cmath>

#include "linalg/kernels_blocks.hpp"
#include "common/check.hpp"

#if defined(__x86_64__) && defined(__GLIBC__)
#define STORMTUNE_HAVE_VECTOR_EXP 1
#include <emmintrin.h>

// libmvec's 2-lane SSE exp (glibc ≥ 2.22 links it through the libm linker
// script; glibc's math-vector.h declares it only under -ffast-math, which
// this project never enables). The symbol dispatches internally on CPU
// features, so the baseline build stays portable; lanes are evaluated
// independently, within a few ulp of a correctly rounded exp.
extern "C" __m128d _ZGVbN2v_exp(__m128d);
#else
#define STORMTUNE_HAVE_VECTOR_EXP 0
#endif

namespace stormtune::linalg_kernels {

double correlation_from_scaled_sq(KernelFamily family, double r2) {
  switch (family) {
    case KernelFamily::kSquaredExponential:
      return std::exp(-0.5 * r2);
    case KernelFamily::kMatern52: {
      const double sr = std::sqrt(5.0 * r2);
      return (1.0 + sr + sr * sr / 3.0) * std::exp(-sr);
    }
  }
  return 0.0;
}

#ifdef STORMTUNE_CHECKED
void detail::check_correlation_samples(KernelFamily family, double scale,
                                       const double* buf,
                                       const std::size_t* idx,
                                       const double* in,
                                       std::size_t samples) {
  // libmvec's lanes are within a few ulp of a correctly rounded exp, so
  // 1e-12 relative (plus an absolute floor for results near the denormals)
  // leaves three orders of magnitude of margin while catching any
  // reassociated or approximate transform.
  for (std::size_t k = 0; k < samples; ++k) {
    const double ref = scale * correlation_from_scaled_sq(family, in[k]);
    const double got = buf[idx[k]];
    const double tol =
        1e-12 * std::max(std::fabs(ref), std::fabs(got)) + 1e-280;
    STORMTUNE_INVARIANT(std::fabs(got - ref) <= tol,
                        "correlation: a lane disagrees with the scalar form "
                        "beyond ulp tolerance");
  }
}
#endif

namespace portable {

// The lane type lives in the anonymous namespace so it inlines into the
// kernel loops; see kernels_avx512.cpp.
namespace {

struct Lanes {
  typedef double Reg __attribute__((vector_size(16)));
  using Mask = std::size_t;  // number of leading lanes
  static constexpr std::size_t kLanes = 2;

  static Mask tail_mask(std::size_t len) { return len; }
  static Reg load(const double* p) { return Reg{p[0], p[1]}; }
  static Reg load(const double* p, Mask len) {
    Reg x = {0.0, 0.0};
    for (std::size_t l = 0; l < len; ++l) x[l] = p[l];
    return x;
  }
  static void store(double* p, Reg x) {
    p[0] = x[0];
    p[1] = x[1];
  }
  static void store(double* p, Reg x, Mask len) {
    for (std::size_t l = 0; l < len; ++l) p[l] = x[l];
  }
  static Reg set1(double a) { return Reg{a, a}; }
  static Reg zero() { return Reg{0.0, 0.0}; }
  static Reg add(Reg a, Reg b) { return a + b; }
  static Reg sub(Reg a, Reg b) { return a - b; }
  static Reg mul(Reg a, Reg b) { return a * b; }
  static Reg div(Reg a, Reg b) { return a / b; }
  static Reg fma(Reg a, Reg b, Reg c) { return a * b + c; }
  static Reg select_lt(Reg a, Reg b, Reg x, Reg y) { return a < b ? x : y; }
#if STORMTUNE_HAVE_VECTOR_EXP
  static Reg sqrt(Reg x) { return _mm_sqrt_pd(x); }
  static Reg exp(Reg x) { return _ZGVbN2v_exp(x); }
#else
  static Reg sqrt(Reg x) { return Reg{std::sqrt(x[0]), std::sqrt(x[1])}; }
  static Reg exp(Reg x) { return Reg{std::exp(x[0]), std::exp(x[1])}; }
#endif
};

}  // namespace

extern constinit const KernelOps kOps = detail::make_ops<Lanes, 2, 1>();

}  // namespace portable

// The wide tables, each defined in its own kernels_<isa>.cpp.
#ifdef STORMTUNE_HAVE_ISA_AVX2
namespace avx2 {
extern const KernelOps kOps;
}  // namespace avx2
#endif
#ifdef STORMTUNE_HAVE_ISA_AVX512
namespace avx512 {
extern const KernelOps kOps;
}  // namespace avx512
#endif

STORMTUNE_HOT const KernelOps* ops_for(isa::Path path) {
  switch (path) {
    case isa::Path::kPortable:
      return &portable::kOps;
    case isa::Path::kAvx2:
#ifdef STORMTUNE_HAVE_ISA_AVX2
      return &avx2::kOps;
#else
      return nullptr;
#endif
    case isa::Path::kAvx512:
#ifdef STORMTUNE_HAVE_ISA_AVX512
      return &avx512::kOps;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

STORMTUNE_HOT const KernelOps& ops() {
  const KernelOps* t = ops_for(isa::selected());
  return t != nullptr ? *t : portable::kOps;
}

}  // namespace stormtune::linalg_kernels
