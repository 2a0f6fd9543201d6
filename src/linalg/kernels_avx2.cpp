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

#include "linalg/kernels.hpp"
#include "linalg/kernels_blocks.hpp"

#if defined(__x86_64__) && defined(__GLIBC__)
#define STORMTUNE_HAVE_VECTOR_EXP 1
// libmvec's 4-lane AVX2 exp ('d' ABI mangling), linked like the portable
// TU's 2-lane one.
extern "C" __m256d _ZGVdN4v_exp(__m256d);
#else
#define STORMTUNE_HAVE_VECTOR_EXP 0
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
  static Reg select_lt(Reg a, Reg b, Reg x, Reg y) {
    return _mm256_blendv_pd(y, x, _mm256_cmp_pd(a, b, _CMP_LT_OQ));
  }
};

}  // namespace

extern constinit const KernelOps kOps = detail::make_ops<Lanes, 2, 1>();

}  // namespace stormtune::linalg_kernels::avx2

#endif  // STORMTUNE_HAVE_ISA_AVX2
