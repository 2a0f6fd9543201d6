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

#if defined(__x86_64__) && defined(__GLIBC__)
#define STORMTUNE_HAVE_VECTOR_EXP 1
// libmvec's 8-lane AVX-512 exp ('e' ABI mangling).
extern "C" __m512d _ZGVeN8v_exp(__m512d);
#else
#define STORMTUNE_HAVE_VECTOR_EXP 0
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
  static Reg select_lt(Reg a, Reg b, Reg x, Reg y) {
    return _mm512_mask_blend_pd(_mm512_cmp_pd_mask(a, b, _CMP_LT_OQ), y, x);
  }
};

}  // namespace

// The mirror factor's strips four vectors wide, and bound_sums two column
// vectors at a time: twelve accumulators, inside AVX-512's 32 registers.
extern constinit const KernelOps kOps = detail::make_ops<Lanes, 4, 2>();

}  // namespace stormtune::linalg_kernels::avx512

#endif  // STORMTUNE_HAVE_ISA_AVX512
