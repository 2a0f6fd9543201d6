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
    case KernelFamily::kMatern32: {
      const double sr = std::sqrt(3.0 * r2);
      return (1.0 + sr) * std::exp(-sr);
    }
    case KernelFamily::kMatern52: {
      const double sr = std::sqrt(5.0 * r2);
      return (1.0 + sr + sr * sr / 3.0) * std::exp(-sr);
    }
  }
  return 0.0;
}

namespace portable {

// Anonymous-namespace lane type and helpers inline into the exported
// kernels; see kernels_avx512.cpp.
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
#if STORMTUNE_HAVE_VECTOR_EXP
  static Reg sqrt(Reg x) { return _mm_sqrt_pd(x); }
  static Reg exp(Reg x) { return _ZGVbN2v_exp(x); }
#else
  static Reg sqrt(Reg x) { return Reg{std::sqrt(x[0]), std::sqrt(x[1])}; }
  static Reg exp(Reg x) { return Reg{std::exp(x[0]), std::exp(x[1])}; }
#endif
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

STORMTUNE_HOT void ei_bounds(const double* mean, const double* var,
                             std::size_t m, double best, double xi, double eps,
                             double* out) {
  for (std::size_t r = 0; r < m; ++r) {
    out[r] = detail::ei_bound_scalar(mean[r], var[r], best, xi, eps);
  }
}

}  // namespace portable

#define STORMTUNE_DECLARE_KERNELS                                            \
  STORMTUNE_HOT std::size_t cholesky_factor(double* lf, double* ltf,         \
                                            std::size_t ld, std::size_t n);  \
  STORMTUNE_HOT void givens_row_update(double* lrow, double* v, double c,    \
                                       double s, std::size_t len);           \
  STORMTUNE_HOT void solve_lower_multi(const double* lf, std::size_t ld,     \
                                       double* v, std::size_t ldv,           \
                                       std::size_t m, std::size_t n);        \
  STORMTUNE_HOT void solve_lower_transpose_multi(                            \
      const double* ltf, std::size_t ld, double* v, std::size_t ldv,         \
      std::size_t m, std::size_t n);                                         \
  STORMTUNE_HOT void sq_dist_rows(const double* xt, std::size_t ldx,         \
                                  std::size_t n, std::size_t d,              \
                                  const double* q, std::size_t ldq,          \
                                  std::size_t rows, double* out,             \
                                  std::size_t ldo);                          \
  STORMTUNE_HOT void column_dots(const double* v, std::size_t ldv,           \
                                 std::size_t n, std::size_t m,               \
                                 const double* w, double* out);              \
  STORMTUNE_HOT void column_sq_sums(const double* v, std::size_t ldv,        \
                                    std::size_t n, std::size_t m,            \
                                    double* out);                            \
  STORMTUNE_HOT void correlation(KernelFamily family, double scale,          \
                                 double* buf, std::size_t len);              \
  STORMTUNE_HOT std::size_t cholesky_factor_mirror(                         \
      double* ltf, std::size_t ld, std::size_t n);                           \
  STORMTUNE_HOT void bound_sums(const double* x, std::size_t ldx,            \
                                std::size_t n, std::size_t d,                \
                                const double* w, std::size_t sets,           \
                                double* out);                                \
  STORMTUNE_HOT void bound_solve(const double* lower, std::size_t ld,        \
                                 std::size_t n, const double* k, double* w,  \
                                 double* lt);                                \
  STORMTUNE_HOT void ei_bounds(const double* mean, const double* var,        \
                               std::size_t m, double best, double xi,        \
                               double eps, double* out);

#ifdef STORMTUNE_HAVE_ISA_AVX2
namespace avx2 {
STORMTUNE_DECLARE_KERNELS
}  // namespace avx2
#endif

#ifdef STORMTUNE_HAVE_ISA_AVX512
namespace avx512 {
STORMTUNE_DECLARE_KERNELS
}  // namespace avx512
#endif

#undef STORMTUNE_DECLARE_KERNELS

namespace {

#define STORMTUNE_KERNEL_TABLE(ns)                                       \
  KernelOps {                                                            \
    ns::cholesky_factor, ns::givens_row_update, ns::solve_lower_multi,   \
        ns::solve_lower_transpose_multi, ns::sq_dist_rows,               \
        ns::column_dots, ns::column_sq_sums, ns::correlation,            \
        ns::cholesky_factor_mirror, ns::bound_sums, ns::bound_solve,     \
        ns::ei_bounds                                                    \
  }

constexpr KernelOps kPortableOps = STORMTUNE_KERNEL_TABLE(portable);
#ifdef STORMTUNE_HAVE_ISA_AVX2
constexpr KernelOps kAvx2Ops = STORMTUNE_KERNEL_TABLE(avx2);
#endif
#ifdef STORMTUNE_HAVE_ISA_AVX512
constexpr KernelOps kAvx512Ops = STORMTUNE_KERNEL_TABLE(avx512);
#endif

#undef STORMTUNE_KERNEL_TABLE

}  // namespace

STORMTUNE_HOT const KernelOps* ops_for(isa::Path path) {
  switch (path) {
    case isa::Path::kPortable:
      return &kPortableOps;
    case isa::Path::kAvx2:
#ifdef STORMTUNE_HAVE_ISA_AVX2
      return &kAvx2Ops;
#else
      return nullptr;
#endif
    case isa::Path::kAvx512:
#ifdef STORMTUNE_HAVE_ISA_AVX512
      return &kAvx512Ops;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

STORMTUNE_HOT const KernelOps& ops() {
  const KernelOps* t = ops_for(isa::selected());
  return t != nullptr ? *t : kPortableOps;
}

}  // namespace stormtune::linalg_kernels
