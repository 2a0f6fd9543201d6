// Agreement and override tests for the runtime ISA dispatch layer.
//
// Three properties are pinned here:
//
//  1. The linalg kernels (left-looking Cholesky, multi-RHS solves, Givens
//     rows, squared distances) are BITWISE identical across every compiled
//     path and equal to the naive reference loops: each lane evaluates the
//     same left-associated multiply/subtract sequence, and the TUs are
//     built with -ffp-contract=off, so lane width cannot change a bit.
//
//  2. The correlation transform (KernelOps::correlation) is an element-wise
//     map whose only divergence is the math library's vector exp: libmvec
//     documents ≤4 ulp for the _ZGV* entry points. Measured end-to-end
//     divergence against the scalar expressions on a 4-core Xeon with
//     glibc 2.36 is 4 ulp (sqexp) and 5 ulp (matern32/52, where the ulp
//     error of exp is amplified by the polynomial factor); the sweep
//     asserts ≤ 8 ulp to leave headroom for other libm builds while still
//     catching any real algorithmic drift. Each path's own bits are pinned
//     too, at lengths that end in every kind of partial vector.
//
//  3. The bound kernels (KernelOps::bound_sums, bound_solve, ei_bounds)
//     feed only rigorous bounds and are not bit-identical across paths:
//     each path must agree with the scalar loops within its stated
//     allowance, and ei_bounds must lie above the scalar EI.
//
//  4. The portable path is exactly the pre-dispatch behavior, so the
//     end-to-end suggest() golden below — captured BEFORE the fused batched
//     scoring rework — must still match bit-for-bit with the portable path
//     pinned. This is the proof that neither the dispatch layer nor the
//     fused scoring changed the optimizer's arithmetic.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bayesopt/acquisition.hpp"
#include "bayesopt/bayesopt.hpp"
#include "common/isa.hpp"
#include "common/rng.hpp"
#include "gp/gp_regressor.hpp"
#include "gp/kernel.hpp"
#include "common/error.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "linalg/reference.hpp"

namespace stormtune {
namespace {

namespace lk = linalg_kernels;

/// Pin the runtime ISA selection for the duration of a test and restore it
/// afterwards (same guard as test_gp_golden.cpp).
class ScopedIsa {
 public:
  explicit ScopedIsa(isa::Path path) : prev_(isa::selected()) {
    isa::select(path);
  }
  ~ScopedIsa() { isa::select(prev_); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  isa::Path prev_;
};

/// Distance in representable doubles between two finite same-sign values.
std::uint64_t ulp_diff(double a, double b) {
  auto ordered = [](double v) -> std::int64_t {
    const auto bits = std::bit_cast<std::int64_t>(v);
    return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits : bits;
  };
  const std::int64_t oa = ordered(a), ob = ordered(b);
  return oa > ob ? static_cast<std::uint64_t>(oa - ob)
                 : static_cast<std::uint64_t>(ob - oa);
}

/// Every path whose kernels are compiled into this binary AND executable on
/// this CPU. Always contains kPortable.
std::vector<isa::Path> runnable_paths() {
  std::vector<isa::Path> paths;
  for (std::size_t i = 0; i < isa::kNumPaths; ++i) {
    const auto p = static_cast<isa::Path>(i);
    if (isa::compiled(p) && isa::supported(p)) paths.push_back(p);
  }
  return paths;
}

TEST(IsaDispatch, ParseAndToStringRoundTrip) {
  for (std::size_t i = 0; i < isa::kNumPaths; ++i) {
    const auto p = static_cast<isa::Path>(i);
    isa::Path parsed;
    ASSERT_TRUE(isa::parse(isa::to_string(p), parsed)) << isa::to_string(p);
    EXPECT_EQ(parsed, p);
  }
  isa::Path out;
  EXPECT_FALSE(isa::parse("auto", out));  // callers resolve "auto" themselves
  EXPECT_FALSE(isa::parse("", out));
  EXPECT_FALSE(isa::parse("sse9", out));
}

TEST(IsaDispatch, PortableAlwaysRunnable) {
  EXPECT_TRUE(isa::compiled(isa::Path::kPortable));
  EXPECT_TRUE(isa::supported(isa::Path::kPortable));
  EXPECT_NE(lk::ops_for(isa::Path::kPortable), nullptr);
  // detect_best() must always land on something this process can run.
  EXPECT_TRUE(isa::supported(isa::detect_best()));
}

TEST(IsaDispatch, SelectClampsUnsupportedToPortable) {
  const ScopedIsa restore(isa::selected());
  for (std::size_t i = 0; i < isa::kNumPaths; ++i) {
    const auto p = static_cast<isa::Path>(i);
    const isa::Path got = isa::select(p);
    if (isa::supported(p)) {
      EXPECT_EQ(got, p);
    } else {
      EXPECT_EQ(got, isa::Path::kPortable);
    }
    EXPECT_EQ(isa::selected(), got);
  }
}

TEST(IsaDispatch, EnvironmentOverrideHonored) {
  const char* old = std::getenv("STORMTUNE_ISA");
  const std::string saved = old ? old : "";
  ASSERT_EQ(setenv("STORMTUNE_ISA", "portable", 1), 0);
  EXPECT_EQ(isa::from_environment(), isa::Path::kPortable);
  ASSERT_EQ(setenv("STORMTUNE_ISA", "auto", 1), 0);
  EXPECT_EQ(isa::from_environment(), isa::detect_best());
  // An explicit request that cannot be honored pins portable, never a
  // silently substituted wide path.
  ASSERT_EQ(setenv("STORMTUNE_ISA", "no-such-isa", 1), 0);
  EXPECT_EQ(isa::from_environment(), isa::Path::kPortable);
  // No NEON kernels exist; AArch64 runs the portable path.
  ASSERT_EQ(setenv("STORMTUNE_ISA", "neon", 1), 0);
  EXPECT_EQ(isa::from_environment(), isa::Path::kPortable);
  if (old) {
    setenv("STORMTUNE_ISA", saved.c_str(), 1);
  } else {
    unsetenv("STORMTUNE_ISA");
  }
}

// Property sweep: every runnable transform path, every kernel family,
// random r² buffers at every vector-tail length 0..7 (the widest path is
// 8 lanes, so lengths 24..31 exercise every remainder) plus the tiny
// lengths that never fill one vector.
TEST(IsaDispatch, TransformAgreesWithScalarReference) {
  const double scale = 1.7;
  const gp::KernelFamily families[] = {gp::KernelFamily::kSquaredExponential,
                                       gp::KernelFamily::kMatern32,
                                       gp::KernelFamily::kMatern52};
  std::vector<std::size_t> lengths = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  for (std::size_t tail = 0; tail < 8; ++tail) lengths.push_back(24 + tail);

  for (const isa::Path path : runnable_paths()) {
    const lk::KernelOps* ops = lk::ops_for(path);
    ASSERT_NE(ops, nullptr) << isa::to_string(path);
    Rng rng(2015);
    for (const gp::KernelFamily family : families) {
      for (const std::size_t len : lengths) {
        std::vector<double> buf(len);
        for (double& v : buf) v = 25.0 * rng.uniform();  // r² ≥ 0
        std::vector<double> expected = buf;
        for (double& v : expected) {
          v = scale * lk::correlation_from_scaled_sq(family, v);
        }
        ops->correlation(family, scale, buf.data(), len);
        for (std::size_t i = 0; i < len; ++i) {
          EXPECT_LE(ulp_diff(buf[i], expected[i]), 8u)
              << isa::to_string(path) << " family "
              << static_cast<int>(family) << " len " << len << " elem " << i
              << ": " << buf[i] << " vs " << expected[i];
        }
      }
    }
  }
}

// Each path's correlation bits, captured from the per-ISA transforms that
// preceded KernelOps::correlation (hexfloats, so the comparison is exact).
// Inputs are r² values; twelve of them are ones where libmvec's 2-lane exp
// rounds differently from its 4- and 8-lane ones, which agree with each
// other: kWideCorrelation lists the AVX2/AVX-512 outputs that differ from
// the portable table. A shorter buffer is a prefix of the inputs and must
// give a prefix of the outputs: lanes are independent, so neither len nor
// the masked tail may move a bit.
const double kCorrelationInputs[31] = {
    0x1.55fe4a231585ap+4, 0x1.cdcb55b4ba099p+3, 0x1.1b331542beb2bp+4,
    0x1.35c28f5c28f5cp+1, 0x1.9ae147ae147aep+1, 0x1.ab0ccc40c591ep+1,
    0x1.65327f0202617p-1, 0x1.0402d80e71c2cp+2, 0x1.994d98fd1ab2ep-1,
    0x1.ca3d70a3d70a4p+2, 0x1.fcccccccccccdp+2, 0x1.17ae147ae147cp+3,
    0x1.4a87fed0e145fp+4, 0x1.4a3d70a3d70a4p+3, 0x1.63851eb851eb9p+3,
    0x1.7cccccccccccep+3, 0x1.425efd221cccep+2, 0x1.af5c28f5c28f6p+3,
    0x1.c8a3d70a3d70bp+3, 0x1.e1eb851eb852p+3, 0x1.fb33333333334p+3,
    0x1.0a3d70a3d70a4p+4, 0x1.16e147ae147afp+4, 0x1.23851eb851eb9p+4,
    0x1.ef5b6d0d0cea8p+1, 0x1.3cccccccccccdp+4, 0x1.4970a3d70a3d7p+4,
    0x1.56147ae147ae2p+4, 0x1.62b851eb851ecp+4, 0x1.279a7c9f7e68p+4,
    0x1.43a4bc9135fecp+4,
};

const double kPortableCorrelation[3][31] = {
    {// squared exponential
     0x1.459dfb29ee17ap-15, 0x1.479549a1780dfp-10, 0x1.ff2f97173a649p-13,
     0x1.038d0891e2b9p-1, 0x1.5db562b1714f1p-2, 0x1.484d7d46b043cp-2,
     0x1.330a6a2dc4595p+0, 0x1.c8a59b493014ep-3, 0x1.23ced0dcd6518p+0,
     0x1.843547a05aa5bp-5, 0x1.05872f396b783p-5, 0x1.605f5a68e2156p-6,
     0x1.d1df68d0c471fp-15, 0x1.3fd84684703b9p-7, 0x1.aef236e0e2a6ep-8,
     0x1.2251dfab34373p-8, 0x1.188abfd35ceccp-3, 0x1.078530ecddfe1p-9,
     0x1.630e84088a70dp-10, 0x1.de63a452737c8p-11, 0x1.4248017b7ce7bp-11,
     0x1.b23a9a8d4855ap-12, 0x1.248806f8ef6efp-12, 0x1.8a252364b0e07p-13,
     0x1.f6d54a60a9932p-3, 0x1.65c2e9b1df0b4p-14, 0x1.e2088cd44b724p-15,
     0x1.44bc7cc9278cbp-15, 0x1.b58965122fe84p-16, 0x1.5aecfe2c2fceep-13,
     0x1.20e0f0945dea2p-14,
    },
    {// Matérn-3/2
     0x1.4e10a900fb514p-8, 0x1.2511f8c553a03p-6, 0x1.3bf09105bf34bp-7,
     0x1.b2a0b5f9bf5f1p-2, 0x1.40beedea8cc17p-2, 0x1.325fae7782ed4p-2,
     0x1.f531549f3baebp-1, 0x1.dc618adfea4eap-3, 0x1.d77b020d071c5p-1,
     0x1.7cf422da397cp-4, 0x1.361bfcefe1ceep-4, 0x1.fd19d396d8b4bp-5,
     0x1.78bb43e5f39cdp-8, 0x1.5e5f59137c263p-5, 0x1.2554dbfa09f4dp-5,
     0x1.edc4a02060994p-6, 0x1.5cd4538bf778dp-3, 0x1.62bedfc8c24edp-6,
     0x1.2e95fa3c5ef0cp-6, 0x1.031251e390626p-6, 0x1.bd3031571f099p-7,
     0x1.7fc1ffdd2d072p-7, 0x1.4bd11d3973dadp-7, 0x1.1fbadf6ddb42ap-7,
     0x1.fc5b2de97441bp-3, 0x1.b4267a5edd517p-8, 0x1.7d1a9044076f2p-8,
     0x1.4dc38be26ab6ep-8, 0x1.24efd4511086fp-8, 0x1.12f0848c11941p-7,
     0x1.954f49ac7860cp-8,
    },
    {// Matérn-5/2
     0x1.52d7f54b3edc3p-9, 0x1.7e58e3e7e91bp-7, 0x1.6d13b7c8e1231p-8,
     0x1.c92b3470dea09p-2, 0x1.482433df00e8ap-2, 0x1.37f4a7459e296p-2,
     0x1.0ef75617e3723p+0, 0x1.d78dd77ce45bp-3, 0x1.fe9e910a9794p-1,
     0x1.4bff466116a15p-4, 0x1.059396d327169p-4, 0x1.9fb84a43d2b31p-5,
     0x1.87c572ca7e6aep-9, 0x1.0c5b7dc50c6d3p-5, 0x1.b3618220a4438p-6,
     0x1.632d2ed0f7ffp-6, 0x1.4bee61be25faep-3, 0x1.dff0462f8eba1p-7,
     0x1.8d2f7008c5766p-7, 0x1.4a0d602efcd99p-7, 0x1.135178adaa2a2p-7,
     0x1.ccf8a9439d8f3p-8, 0x1.833546ffc69cep-8, 0x1.4647ce54fec98p-8,
     0x1.fb0eb1a1b7104p-3, 0x1.d374cb61ea07p-9, 0x1.8d43cf4d14368p-9,
     0x1.527977ad228ffp-9, 0x1.21159c1f87a1p-9, 0x1.34ec8ddb15b9cp-8,
     0x1.abe6a6a736c32p-9,
    },
};

struct WideBits {
  std::size_t index;
  double value;
};

const WideBits kWideCorrelation[3][4] = {
    {{0, 0x1.459dfb29ee17bp-15}, {6, 0x1.330a6a2dc4594p+0},
     {8, 0x1.23ced0dcd6517p+0}, {30, 0x1.20e0f0945dea1p-14}},
    {{1, 0x1.2511f8c553a04p-6}, {7, 0x1.dc618adfea4e8p-3},
     {16, 0x1.5cd4538bf779p-3}, {29, 0x1.12f0848c1194p-7}},
    {{2, 0x1.6d13b7c8e122ep-8}, {5, 0x1.37f4a7459e295p-2},
     {12, 0x1.87c572ca7e6acp-9}, {24, 0x1.fb0eb1a1b7105p-3}},
};

TEST(IsaDispatch, CorrelationBitsPinnedOnEveryPath) {
#if !(defined(__x86_64__) && defined(__GLIBC__))
  GTEST_SKIP() << "golden values pin the glibc/x86-64 vector-exp path";
#endif
  const gp::KernelFamily families[] = {gp::KernelFamily::kSquaredExponential,
                                       gp::KernelFamily::kMatern32,
                                       gp::KernelFamily::kMatern52};
  for (const isa::Path path : runnable_paths()) {
    const lk::KernelOps* ops = lk::ops_for(path);
    ASSERT_NE(ops, nullptr) << isa::to_string(path);
    for (std::size_t f = 0; f < 3; ++f) {
      std::vector<double> expected(std::begin(kPortableCorrelation[f]),
                                   std::end(kPortableCorrelation[f]));
      if (path != isa::Path::kPortable) {
        for (const WideBits& w : kWideCorrelation[f]) {
          expected[w.index] = w.value;
        }
      }
      for (const std::size_t len : {1ul, 7ul, 9ul, 31ul}) {
        std::vector<double> buf(kCorrelationInputs, kCorrelationInputs + len);
        ops->correlation(families[f], 1.7, buf.data(), len);
        for (std::size_t i = 0; i < len; ++i) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(buf[i]),
                    std::bit_cast<std::uint64_t>(expected[i]))
              << isa::to_string(path) << " family " << f << " len " << len
              << " elem " << i << ": " << std::hexfloat << buf[i] << " vs "
              << expected[i];
        }
      }
    }
  }
}

// The linalg kernels must agree EXACTLY across paths — not within an ulp
// bound — because the solve/factorization results feed golden tests and
// run-to-run determinism checks that compare bits.
TEST(IsaDispatch, RowUpdateKernelsBitIdenticalAcrossPaths) {
#ifdef STORMTUNE_NATIVE_BUILD
  GTEST_SKIP() << "-march=native may contract the portable reference TU";
#endif
  const lk::KernelOps* portable = lk::ops_for(isa::Path::kPortable);
  ASSERT_NE(portable, nullptr);
  for (const isa::Path path : runnable_paths()) {
    if (path == isa::Path::kPortable) continue;
    const lk::KernelOps* wide = lk::ops_for(path);
    ASSERT_NE(wide, nullptr) << isa::to_string(path);
    Rng rng(7);
    for (std::size_t len = 0; len <= 40; ++len) {
      std::vector<double> c(len), p0(len);
      for (std::size_t j = 0; j < len; ++j) {
        c[j] = rng.normal();
        p0[j] = rng.normal();
      }
      const double a0 = rng.normal(), a1 = rng.normal();
      // Givens rotation (the remove_row downdate sweep): both outputs per
      // element, factor row and carry vector, must match bitwise.
      const double gr = std::sqrt(a0 * a0 + a1 * a1);
      const double gc = a0 / gr, gs = a1 / gr;
      std::vector<double> expect_l = c, expect_v = p0;
      portable->givens_row_update(expect_l.data(), expect_v.data(), gc, gs,
                                  len);
      std::vector<double> got_l = c, got_v = p0;
      wide->givens_row_update(got_l.data(), got_v.data(), gc, gs, len);
      for (std::size_t j = 0; j < len; ++j) {
        ASSERT_EQ(got_l[j], expect_l[j])
            << isa::to_string(path) << " givens L len " << len << " elem "
            << j;
        ASSERT_EQ(got_v[j], expect_v[j])
            << isa::to_string(path) << " givens v len " << len << " elem "
            << j;
      }
    }
  }
}

// Sizes on both sides of every lane width (2, 4, 8) and strip width
// (8, 16, 32), plus the bo100 history length.
const std::size_t kKernelSizes[] = {1, 7, 8, 9, 31, 33, 64, 100, 129};

Matrix random_spd(std::size_t n, Rng& rng) {
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  }
  Matrix a = b.multiply(b.transposed());
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

Matrix leading_block(const Matrix& a, std::size_t k) {
  Matrix out(k, k);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) out(i, j) = a(i, j);
  }
  return out;
}

// The left-looking factorization gives every element the reference's
// k-ascending subtractions and reciprocal scaling, so on every path it
// equals the unblocked oracle bit for bit.
TEST(IsaDispatch, CholeskyMatchesReferenceExactlyOnEveryPath) {
#ifdef STORMTUNE_NATIVE_BUILD
  GTEST_SKIP() << "-march=native may contract the reference TU's callers";
#endif
  for (const isa::Path path : runnable_paths()) {
    const ScopedIsa pin(path);
    Rng rng(31);
    for (const std::size_t n : kKernelSizes) {
      const Matrix a = random_spd(n, rng);
      const Matrix want =
          reference::cholesky_lower(a, reference::Scale::kReciprocal);
      const Cholesky chol(a);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
          ASSERT_EQ(chol.lower_at(i, j), want(i, j))
              << isa::to_string(path) << " n=" << n << " (" << i << ","
              << j << ")";
        }
      }
    }
  }
}

// A matrix that is SPD up to column c and not at c must be rejected at
// column c on every path, exactly where the oracle rejects it: the kernel
// reports the column, and the reference factors the leading c×c block but
// not the leading (c+1)×(c+1) one.
TEST(IsaDispatch, NonSpdFailsAtReferenceColumnOnEveryPath) {
  for (const isa::Path path : runnable_paths()) {
    const lk::KernelOps* ops = lk::ops_for(path);
    ASSERT_NE(ops, nullptr) << isa::to_string(path);
    const ScopedIsa pin(path);
    Rng rng(37);
    for (const std::size_t n : kKernelSizes) {
      for (const std::size_t c : {std::size_t{0}, n / 2, n - 1}) {
        Matrix a = random_spd(n, rng);
        const Matrix l = reference::cholesky_lower(a);
        a(c, c) -= 1.5 * l(c, c) * l(c, c);
        if (c > 0) {
          EXPECT_NO_THROW(reference::cholesky_lower(leading_block(a, c)));
        }
        EXPECT_THROW(reference::cholesky_lower(leading_block(a, c + 1)),
                     Error);
        EXPECT_THROW(Cholesky{a}, Error) << isa::to_string(path);
        std::vector<double> lf(n * n), ltf(n * n);
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j <= i; ++j) ltf[j * n + i] = a(i, j);
        }
        EXPECT_EQ(ops->cholesky_factor(lf.data(), ltf.data(), n, n), c)
            << isa::to_string(path) << " n=" << n;
      }
    }
  }
}

// Forward and backward multi-RHS solves against the single-accumulator
// oracles with reciprocal scaling, at right-hand-side counts that leave a
// partial vector and a partial strip on every lane width.
TEST(IsaDispatch, MultiRhsSolvesMatchReferenceExactlyOnEveryPath) {
#ifdef STORMTUNE_NATIVE_BUILD
  GTEST_SKIP() << "-march=native may contract the reference TU's callers";
#endif
  for (const isa::Path path : runnable_paths()) {
    const ScopedIsa pin(path);
    Rng rng(41);
    for (const std::size_t n : kKernelSizes) {
      const Matrix a = random_spd(n, rng);
      const Cholesky chol(a);
      const Matrix l = chol.lower();
      for (const std::size_t m : {1ul, 3ul, 5ul, 13ul, 37ul, 202ul}) {
        Matrix v(n, m);
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t r = 0; r < m; ++r) v(i, r) = rng.normal();
        }
        Matrix fwd = v;
        chol.solve_lower_multi_in_place(fwd);
        Matrix bwd = fwd;
        chol.solve_lower_transpose_multi_in_place(bwd);
        for (std::size_t r = 0; r < m; ++r) {
          Vector col(n);
          for (std::size_t i = 0; i < n; ++i) col[i] = v(i, r);
          const Vector y =
              reference::solve_lower(l, col, reference::Scale::kReciprocal);
          const Vector x = reference::solve_lower_transpose(
              l, y, reference::Scale::kReciprocal);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(fwd(i, r), y[i]) << isa::to_string(path) << " n=" << n
                                       << " m=" << m << " (" << i << "," << r
                                       << ")";
            ASSERT_EQ(bwd(i, r), x[i]) << isa::to_string(path) << " n=" << n
                                       << " m=" << m << " (" << i << "," << r
                                       << ")";
          }
        }
      }
    }
  }
}

// The lane-parallel distance kernel against the scalar loop it replaced.
TEST(IsaDispatch, SqDistRowsMatchNaiveLoopOnEveryPath) {
#ifdef STORMTUNE_NATIVE_BUILD
  GTEST_SKIP() << "-march=native may contract the naive loop";
#endif
  for (const isa::Path path : runnable_paths()) {
    const lk::KernelOps* ops = lk::ops_for(path);
    ASSERT_NE(ops, nullptr) << isa::to_string(path);
    Rng rng(43);
    for (const std::size_t n : kKernelSizes) {
      for (const std::size_t d : {1ul, 3ul, 101ul}) {
        const std::size_t rows = 5;
        Matrix x(n, d), q(rows, d);
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t k = 0; k < d; ++k) x(i, k) = rng.uniform();
        }
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t k = 0; k < d; ++k) q(r, k) = rng.uniform(-0.5, 1.5);
        }
        const Matrix xt = x.transposed();
        Matrix got(rows, n);
        ops->sq_dist_rows(xt.data(), n, n, d, q.data(), d, rows, got.data(),
                          n);
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t i = 0; i < n; ++i) {
            double s = 0.0;
            for (std::size_t k = 0; k < d; ++k) {
              const double diff = x(i, k) - q(r, k);
              s += diff * diff;
            }
            ASSERT_EQ(got(r, i), s) << isa::to_string(path) << " n=" << n
                                    << " d=" << d << " (" << r << "," << i
                                    << ")";
          }
        }
      }
    }
  }
}

// The moment kernels (the predictive means' Σ v·α and the variances'
// Σ v²) against the scalar column loops they replaced, on every path and
// across lane, strip and tail widths — so the paths agree with each other
// bit for bit too.
TEST(IsaDispatch, ColumnMomentsMatchNaiveLoopOnEveryPath) {
#ifdef STORMTUNE_NATIVE_BUILD
  GTEST_SKIP() << "-march=native may contract the naive loop";
#endif
  for (const isa::Path path : runnable_paths()) {
    const lk::KernelOps* ops = lk::ops_for(path);
    ASSERT_NE(ops, nullptr) << isa::to_string(path);
    Rng rng(47);
    for (const std::size_t n : {1ul, 7ul, 40ul, 101ul}) {
      for (const std::size_t m : kKernelSizes) {
        const std::size_t ldv = lk::padded_ld(m);
        std::vector<double> v(n * ldv), w(n);
        for (auto& e : v) e = rng.normal();
        for (auto& e : w) e = rng.normal();
        std::vector<double> dots(m), squares(m);
        ops->column_dots(v.data(), ldv, n, m, w.data(), dots.data());
        ops->column_sq_sums(v.data(), ldv, n, m, squares.data());
        for (std::size_t c = 0; c < m; ++c) {
          double dot = 0.0, sq = 0.0;
          for (std::size_t i = 0; i < n; ++i) {
            dot += v[i * ldv + c] * w[i];
            sq += v[i * ldv + c] * v[i * ldv + c];
          }
          ASSERT_EQ(dots[c], dot) << isa::to_string(path) << " n=" << n
                                  << " m=" << m << " col " << c;
          ASSERT_EQ(squares[c], sq) << isa::to_string(path) << " n=" << n
                                    << " m=" << m << " col " << c;
        }
      }
    }
  }
}

// The block prediction (training-point-major distances, one transform per
// training point, one multi-RHS solve and the moment kernels across the
// block) must be bitwise identical to the chunked path — on every runnable
// ISA path, since both go through the same dispatch.
TEST(IsaDispatch, FusedPredictMatchesChunkedOnEveryPath) {
  const std::size_t n = 24, d = 3, m = 70;  // m > kPredictChunk = 64
  Rng rng(99);
  Matrix x(n, d);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < d; ++k) x(i, k) = rng.normal();
    y[i] = rng.normal();
  }
  Matrix q(m, d);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t k = 0; k < d; ++k) q(r, k) = rng.normal();
  }
  const Matrix qt = q.transposed();
  const std::size_t ld = lk::padded_ld(m);
  for (const isa::Path path : runnable_paths()) {
    const ScopedIsa pin(path);
    for (const gp::KernelFamily family :
         {gp::KernelFamily::kSquaredExponential, gp::KernelFamily::kMatern32,
          gp::KernelFamily::kMatern52}) {
      gp::Kernel kern(family, d, false);
      kern.set_amplitude(1.4);
      kern.set_lengthscales({0.9});
      gp::GpRegressor gp(kern, 1e-2, 0.2);
      gp.fit(x, y);

      std::vector<gp::Prediction> chunked;
      gp.predict_rows(q, 0, m, chunked);

      std::vector<double> d2t(n * ld), v(n * ld), means(m), vars(m);
      gp.unscaled_sq_dist_block(qt.data(), qt.cols(), m, d2t.data(), ld);
      gp::predict_mv_from_sq_dist_block(gp.posterior(), d2t.data(), ld, m,
                                        v.data(), ld, means, vars);

      ASSERT_EQ(chunked.size(), m);
      for (std::size_t r = 0; r < m; ++r) {
        ASSERT_EQ(means[r], chunked[r].mean)
            << isa::to_string(path) << " family "
            << static_cast<int>(family) << " row " << r;
        ASSERT_EQ(vars[r], chunked[r].variance)
            << isa::to_string(path) << " family "
            << static_cast<int>(family) << " row " << r;
      }
    }
  }
}

// The fused bound sweep against six naive column loops, and the bound
// solve against the definition of its outputs, on every path: FMA and
// lane sums move only the last bits, well inside the eps·Σ|term| the
// local search allows per sum (DESIGN.md §8, "Bounded local search").
// The hyper sampler's fused factor is a bound-class kernel: its bits differ
// by path, but on every path L·Lᵀ reproduces A within Higham's backward
// error γ_{n+2}·|L|·|Lᵀ|, which is all the log-posterior allowance assumes,
// and a matrix that is not positive definite is refused at its first bad
// column.
TEST(IsaDispatch, CholeskyFactorMirrorIsBackwardStableOnEveryPath) {
  for (const isa::Path path : runnable_paths()) {
    const lk::KernelOps* ops = lk::ops_for(path);
    ASSERT_NE(ops, nullptr) << isa::to_string(path);
    Rng rng(67);
    for (const std::size_t n : {1ul, 2ul, 3ul, 7ul, 16ul, 33ul, 64ul, 101ul}) {
      Matrix b(n, n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
      }
      Matrix a = b.multiply(b.transposed());
      for (std::size_t i = 0; i < n; ++i) a(i, i) += 1e-3;
      const std::size_t ld = lk::padded_ld(n);
      std::vector<double> ltf(n * ld, 0.0);
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = j; i < n; ++i) ltf[j * ld + i] = a(j, i);
      }
      ASSERT_EQ(ops->cholesky_factor_mirror(ltf.data(), ld, n), n)
          << isa::to_string(path) << " n=" << n;
      const double gamma = (n + 2.0) * 0x1p-53 / (1.0 - (n + 2.0) * 0x1p-53);
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = j; i < n; ++i) {
          long double prod = 0.0L, mag = 0.0L;
          for (std::size_t k = 0; k <= j; ++k) {
            const long double lik = ltf[k * ld + i], ljk = ltf[k * ld + j];
            prod += lik * ljk;
            mag += std::fabs(lik * ljk);
          }
          EXPECT_LE(std::fabs(prod - static_cast<long double>(a(i, j))),
                    gamma * mag)
              << isa::to_string(path) << " n=" << n << " (" << i << ", "
              << j << ")";
        }
      }
      if (n >= 3) {
        std::vector<double> bad(n * ld, 0.0);
        for (std::size_t j = 0; j < n; ++j) bad[j * ld + j] = 1.0;
        bad[2 * ld + 2] = -1.0;
        EXPECT_EQ(ops->cholesky_factor_mirror(bad.data(), ld, n), 2u)
            << isa::to_string(path) << " n=" << n;
      }
    }
  }
}

TEST(IsaDispatch, BoundSumsAndSolveAgreeWithNaiveLoopsOnEveryPath) {
  constexpr double kTol = 64.0 * 0x1p-53;
  for (const isa::Path path : runnable_paths()) {
    const lk::KernelOps* ops = lk::ops_for(path);
    ASSERT_NE(ops, nullptr) << isa::to_string(path);
    Rng rng(61);
    for (const std::size_t n : {1ul, 16ul, 40ul, 100ul}) {
      for (const std::size_t d : {1ul, 3ul, 8ul, 17ul, 51ul, 101ul}) {
        const std::size_t sets = 3;
        std::vector<double> x(n * d), w(4 * n * sets), out(6 * d * sets);
        for (auto& e : x) e = rng.uniform();
        for (auto& e : w) e = rng.normal();
        ops->bound_sums(x.data(), d, n, d, w.data(), sets, out.data());
        for (std::size_t s = 0; s < sets; ++s) {
          const double* wt = w.data() + 4 * n * s;
          for (std::size_t j = 0; j < d; ++j) {
            // (weight vector, power of x) per output row.
            const std::pair<int, int> rows[6] = {{0, 1}, {1, 1}, {1, 2},
                                                 {2, 1}, {3, 1}, {3, 2}};
            for (int q = 0; q < 6; ++q) {
              double sum = 0.0, mag = 0.0;
              for (std::size_t i = 0; i < n; ++i) {
                const double xv = x[i * d + j];
                const double term = wt[rows[q].first * n + i] *
                                    (rows[q].second == 2 ? xv * xv : xv);
                sum += term;
                mag += std::fabs(term);
              }
              ASSERT_NEAR(out[6 * d * s + q * d + j], sum, kTol * mag)
                  << isa::to_string(path) << " n=" << n << " d=" << d
                  << " set " << s << " row " << q << " col " << j;
            }
          }
        }
      }
      // A well-conditioned factor: w must solve L·Lᵀw = k closely, and lt
      // must be Lᵀw for that w.
      const std::size_t ld = lk::padded_ld(n);
      std::vector<double> lower(n * ld, 0.0), k(n), w(n), lt(n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < i; ++j) lower[i * ld + j] = 0.1 * rng.normal();
        lower[i * ld + i] = 1.0 + rng.uniform();
        k[i] = rng.normal();
      }
      ops->bound_solve(lower.data(), ld, n, k.data(), w.data(), lt.data());
      for (std::size_t j = 0; j < n; ++j) {
        double ltw = 0.0, mag = 0.0;
        for (std::size_t i = j; i < n; ++i) {
          ltw += lower[i * ld + j] * w[i];
          mag += std::fabs(lower[i * ld + j] * w[i]);
        }
        ASSERT_NEAR(lt[j], ltw, kTol * mag)
            << isa::to_string(path) << " n=" << n << " entry " << j;
      }
      for (std::size_t i = 0; i < n; ++i) {
        double llw = 0.0;
        for (std::size_t j = 0; j <= i; ++j) llw += lower[i * ld + j] * lt[j];
        ASSERT_NEAR(llw, k[i], 1e-9 * (1.0 + std::fabs(k[i])))
            << isa::to_string(path) << " n=" << n << " row " << i;
      }
    }
  }
}

// ei_bounds on every path against bo::expected_improvement, the exact
// path's scalar EI: never below it, and above it by no more than the
// stated allowance plus 1e-12 relative (the survivor count is that
// sensitive to a loose bound), over z in [−40, 40], σ² = 0, subnormal σ²
// and a non-finite mean, which must give +∞.
TEST(IsaDispatch, EiBoundsCoverExpectedImprovementOnEveryPath) {
  const double eps = 2.0 * (100 + 101 + 64) * 0x1p-53;
  const double inf = std::numeric_limits<double>::infinity();
  for (const double best : {0.0, 1.7, -2.3}) {
    for (const double xi : {0.0, 0.01}) {
      std::vector<double> mean, var;
      for (const double sd : {1e-3, 0.3, 1.0, 7.0}) {
        for (int k = -400; k <= 400; ++k) {
          mean.push_back(best + xi + 0.1 * k * sd);
          var.push_back(sd * sd);
        }
      }
      for (const double imp : {-1.0, -1e-300, 0.0, 1e-300, 2.5}) {
        for (const double v : {0.0, 4.9e-324, 1e-310, 2.2e-308}) {
          mean.push_back(best + xi + imp);
          var.push_back(v);
        }
      }
      const std::size_t finite = mean.size();
      for (const double mu : {std::nan(""), inf, -inf}) {
        mean.push_back(mu);
        var.push_back(0.5);
      }
      const std::size_t m = mean.size();
      for (const isa::Path path : runnable_paths()) {
        const lk::KernelOps* ops = lk::ops_for(path);
        ASSERT_NE(ops, nullptr) << isa::to_string(path);
        std::vector<double> out(m);
        ops->ei_bounds(mean.data(), var.data(), m, best, xi, eps, out.data());
        // In place, as the local search calls it.
        std::vector<double> aliased = mean;
        ops->ei_bounds(aliased.data(), var.data(), m, best, xi, eps,
                       aliased.data());
        for (std::size_t r = 0; r < m; ++r) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(aliased[r]),
                    std::bit_cast<std::uint64_t>(out[r]))
              << isa::to_string(path) << " entry " << r;
          if (r >= finite) {
            EXPECT_EQ(out[r], inf) << isa::to_string(path) << " mean "
                                   << mean[r];
            continue;
          }
          const double exact =
              bo::expected_improvement(mean[r], var[r], best, xi);
          const double imp = mean[r] - best - xi;
          const double allowance =
              (eps + lk::kEiBoundUlps) *
                  ((imp > 0.0 ? imp : 0.0) + std::sqrt(var[r])) +
              eps * (std::fabs(best) + std::fabs(xi));
          EXPECT_GE(out[r], exact)
              << isa::to_string(path) << " mean " << mean[r] << " var "
              << var[r] << " best " << best << " xi " << xi;
          EXPECT_LE(out[r], exact * (1.0 + 1e-12) + allowance)
              << isa::to_string(path) << " mean " << mean[r] << " var "
              << var[r] << " best " << best << " xi " << xi;
        }
      }
    }
  }
}

// End-to-end suggest() golden, captured with the portable path BEFORE the
// fused batched acquisition rework (hexfloats, so comparison is exact).
// This pins two things at once: the portable path still is the pre-dispatch
// arithmetic, and the fused scoring rework changed memory traffic only.
// Regenerate by printing suggest() with %a after intentional numeric
// changes.
TEST(IsaDispatch, SuggestGoldenPortablePath) {
#if !(defined(__x86_64__) && defined(__GLIBC__))
  GTEST_SKIP() << "golden values pin the glibc/x86-64 vector-exp path";
#endif
#ifdef STORMTUNE_NATIVE_BUILD
  GTEST_SKIP() << "-march=native contracts non-kernel TUs";
#endif
  const ScopedIsa pin(isa::Path::kPortable);
  bo::ParamSpace space({bo::ParamSpec::real("x", 0.0, 1.0),
                        bo::ParamSpec::real("w", -2.0, 2.0),
                        bo::ParamSpec::integer("k", 1, 10)});
  bo::BayesOptOptions opts;
  opts.hyper_mode = bo::HyperMode::kSliceSample;
  opts.hyper_samples = 3;
  opts.hyper_burn_in = 3;
  opts.num_candidates = 64;
  opts.local_search_iters = 5;
  opts.seed = 2015;
  bo::BayesOpt opt(space, opts);
  Rng rng(77);
  for (int i = 0; i < 12; ++i) {
    auto x = space.sample(rng);
    const double y =
        -x[0] * x[0] + 0.3 * x[1] - 0.05 * x[2] + 0.1 * rng.normal();
    opt.observe(std::move(x), y);
  }
  const double golden[3][3] = {
      {0x1.117211593f74dp-3, 0x1p+1, 0x1p+0},
      {0x1.73284b01f0dd2p-2, 0x1p+1, 0x1p+0},
      {0x1.561755e5b21cdp-4, 0x1p+1, 0x1.8p+1},
  };
  for (int s = 0; s < 3; ++s) {
    const auto x = opt.suggest();
    ASSERT_EQ(x.size(), 3u);
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(x[k], golden[s][k]) << "suggest " << s << " param " << k;
    }
    opt.observe(x, -x[0] * x[0] + 0.3 * x[1] - 0.05 * x[2]);
  }
}

// bo100-large's shape: 101 integer hints, five slice-sampled posteriors and
// a 60-observation history, where the local search's 202 neighbours are
// bounded before any is scored (DESIGN.md §8, "Bounded local search"). The
// golden was captured before the bound existed, so a prune that changed a
// move, a halving or the argmax among tied neighbours fails it.
TEST(IsaDispatch, SuggestGoldenD101PortablePath) {
#if !(defined(__x86_64__) && defined(__GLIBC__))
  GTEST_SKIP() << "golden values pin the glibc/x86-64 vector-exp path";
#endif
#ifdef STORMTUNE_NATIVE_BUILD
  GTEST_SKIP() << "-march=native contracts non-kernel TUs";
#endif
  const ScopedIsa pin(isa::Path::kPortable);
  constexpr std::size_t kDims = 101;
  std::vector<bo::ParamSpec> specs;
  for (std::size_t i = 0; i < kDims; ++i) {
    specs.push_back(bo::ParamSpec::integer("h" + std::to_string(i), 1, 20));
  }
  const bo::ParamSpace space(specs);
  bo::BayesOptOptions opts;
  opts.hyper_samples = 5;
  opts.seed = 2015;
  opts.num_threads = 1;  // only a one-thread pool bounds
  bo::BayesOpt opt(space, opts);
  // A smooth objective with an interior optimum, so the local search moves
  // as well as halves.
  const auto objective = [](const bo::ParamValues& x) {
    double y = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double c = 4.0 + static_cast<double>(i % 13);
      y -= (x[i] - c) * (x[i] - c) / (1.0 + static_cast<double>(i % 5));
    }
    return y;
  };
  Rng rng(101);
  for (int i = 0; i < 60; ++i) {
    auto x = space.sample(rng);
    const double y = objective(x) + rng.normal();
    opt.observe(std::move(x), y);
  }
  const int golden[3][kDims] = {
      {
        12,  5,  1, 11, 10,  2,  4,  7,  3, 13, 20, 20, 14,  4,  4, 10,  3,
         7,  6, 12, 12, 17, 11,  7, 20, 15,  8, 10,  8,  6, 10, 16,  9, 16,
        14, 19, 15,  3, 11,  9,  1,  8,  8,  4, 12,  1, 12, 13, 12, 15, 15,
        12,  9,  5, 11,  6, 15, 14,  3, 12, 17, 17, 18, 14, 10,  3,  4,  4,
         7, 13,  1, 15, 15,  9, 20,  9,  3,  3, 19, 11,  8,  4, 10, 16, 17,
        20, 19,  7,  2, 10, 11,  2,  1, 14,  5, 14,  6, 10,  3,  6,  3,
      },
      {
        12,  1,  1,  2,  4,  2,  4,  7, 11, 13, 20, 20, 14,  4,  4,  6,  1,
         7,  6, 12, 12, 17, 11, 15, 20, 19,  8, 10,  7,  6, 10, 16,  3, 16,
        14, 19, 15, 10, 11,  9,  1,  8, 12,  4, 12,  1, 12, 13, 12, 15, 19,
        16, 18,  5, 11,  6, 15, 14,  3, 12,  7, 17, 18, 14, 10,  3,  4, 12,
        16, 13,  1, 15, 15,  9, 20,  9,  7,  3, 19, 11,  8,  4, 10, 16, 17,
        20, 19,  7,  2, 10, 11,  2,  1, 14,  5, 14,  6, 10,  3,  6, 11,
      },
      {
         8,  1,  1,  4,  4,  2,  4,  4, 11, 13, 20, 20, 14,  4,  4,  6,  1,
         7,  6, 12, 12, 17, 11, 15, 20, 19,  8, 10,  7,  6, 10, 16,  3, 16,
        14, 19, 15, 10, 11,  9,  1,  8, 12,  4, 12,  1, 12, 13, 12, 15, 19,
        16, 10,  5, 11,  6, 13, 10,  3, 10,  7, 17, 18, 14, 10,  3,  4, 12,
        14, 13,  1, 15, 15,  7,  6, 11,  7,  9, 19, 11,  6,  4, 10, 16, 17,
        20, 19, 17,  6, 10, 15,  2,  1, 20,  5, 14,  6, 10,  3,  6, 11,
      },
  };
  for (int s = 0; s < 3; ++s) {
    const auto x = opt.suggest();
    ASSERT_EQ(x.size(), kDims);
    for (std::size_t k = 0; k < kDims; ++k) {
      EXPECT_EQ(x[k], golden[s][k]) << "suggest " << s << " hint " << k;
    }
    opt.observe(x, objective(x));
  }
}

// 60 real parameters, three slice-sampled posteriors and 20 observations:
// the local search bounds its 120 neighbours and scores only those whose
// bound can win. The golden is the unpruned search's trajectory (it was
// captured while a four-thread suggest scored every neighbour), so a prune
// that changed a move, a halving or an argmax tie fails it.
TEST(IsaDispatch, SuggestGoldenD60MatchesUnprunedSearch) {
#if !(defined(__x86_64__) && defined(__GLIBC__))
  GTEST_SKIP() << "golden values pin the glibc/x86-64 vector-exp path";
#endif
#ifdef STORMTUNE_NATIVE_BUILD
  GTEST_SKIP() << "-march=native contracts non-kernel TUs";
#endif
  const ScopedIsa pin(isa::Path::kPortable);
  constexpr std::size_t kDims = 60;
  std::vector<bo::ParamSpec> specs;
  for (std::size_t i = 0; i < kDims; ++i) {
    specs.push_back(bo::ParamSpec::real("x" + std::to_string(i), 0.0, 1.0));
  }
  const bo::ParamSpace space(specs);
  bo::BayesOptOptions opts;
  opts.hyper_samples = 3;
  opts.hyper_burn_in = 3;
  opts.num_candidates = 128;
  opts.seed = 29;
  bo::BayesOpt opt(space, opts);
  const auto objective = [](const bo::ParamValues& x) {
    double y = 0.0;
    for (std::size_t k = 0; k < x.size(); ++k) {
      y -= (x[k] - 0.5) * (x[k] - 0.5) * static_cast<double>(1 + k % 3);
    }
    return y;
  };
  Rng rng(31);
  for (int i = 0; i < 20; ++i) {
    auto x = space.sample(rng);
    const double y = objective(x);
    opt.observe(std::move(x), y);
  }
  const double golden[3][kDims] = {
      {
      0x1.65f9d3c6078fep-2, 0x1.9d5c3ed8cd0bcp-2, 0x1.2a01ec00a1866p-1,
      0x1.2df5f93e7b3ecp-1, 0x1.7923f48ee2385p-1, 0x1.0c5b7a72ccf44p-1,
      0x1.5a3dec7ed4e61p-1, 0x1.69c3aa6404a83p-1, 0x1.4df5323ceec26p-2,
      0x1.4e87fcecd611cp-1, 0x1.8e7afb608f91cp-3, 0x1.0696b6f2a309cp-3,
      0x1.ecbda42689aep-3, 0x1.38912eb8d60fdp-1, 0x1.5210f80f80b98p-2,
      0x1.1c8d6ec8e624ep-1, 0x1.bdcff8f108a46p-2, 0x1.45467b9586884p-2,
      0x1.3a7a14e9f28bcp-1, 0x1.c00051e9e9e7dp-2, 0x1.5f332856d00dbp-1,
      0x1.ce41a37ca7097p-1, 0x1.3583011ccad41p-1, 0x1.716f686ff4808p-4,
      0x1.700892a20c712p-1, 0x1.52ddc2e7adec8p-2, 0x1.16219157258c1p-1,
      0x1.996f75f9a200ep-1, 0x1.c643b8bcfc81p-4, 0x1.dab8186b9c698p-2,
      0x1.8cf67bdac6a1ep-1, 0x1.a7193870da6f7p-1, 0x1.6dbe4dad82bd8p-1,
      0x1.dc010acc508abp-1, 0x1.afbb05092ac28p-1, 0x1.519ee24b8a122p-2,
      0x1.2572a08e982aep-2, 0x1.a8f011322db1p-2, 0x1.8bf01a2202e17p-1,
      0x1.ad0928569a59cp-2, 0x1.6417bb981a712p-1, 0x1.4d1836ff90e6p-4,
      0x1.e4002dc810f15p-2, 0x1.60483a42e0f5dp-1, 0x1.11ef5a25fc74fp-1,
      0x1.8f96bb8fbb822p-2, 0x1.836f90d0f8abp-3, 0x1.0245129f5e782p-1,
      0x1.42fc3d9cd9e6ap-2, 0x1.b94bca623d2ecp-2, 0x1.04dee3296c9f8p-1,
      0x1.2326e5363263ap-1, 0x1.2ace5037cf914p-2, 0x1.7bbaca44673cp-6,
      0x1.34f2535e2adc2p-1, 0x1.0366fec9931bap-2, 0x1.027bbbb7a11eep-2,
      0x1.bb95c7a752397p-1, 0x1.30feca61f25aep-1, 0x1.6b6812f551966p-2,
      },
      {
      0x1.61820b04ecdf5p-2, 0x1.8a12f9425ea78p-2, 0x1.2a01ec00a1866p-1,
      0x1.2df5f93e7b3ecp-1, 0x1.7923f48ee2385p-1, 0x1.0c5b7a72ccf44p-1,
      0x1.73d786186e7fap-1, 0x1.835d43fd9e41dp-1, 0x1.1ac1ff09bb8f3p-2,
      0x1.4e87fcecd611cp-1, 0x1.835c5d278589ep-4, 0x1.ce4f512eb1e78p-6,
      0x1.ecbda42689aep-3, 0x1.38912eb8d60fdp-1, 0x1.5210f80f80b98p-2,
      0x1.20c8ef4e3987ap-1, 0x1.bdcff8f108a46p-2, 0x1.1213486253551p-2,
      0x1.3a7a14e9f28bcp-1, 0x1.c00051e9e9e7dp-2, 0x1.92665b8a0340ep-1,
      0x1.ce41a37ca7097p-1, 0x1.3583011ccad41p-1, 0x1.716f686ff4808p-4,
      0x1.700892a20c712p-1, 0x1.d8eeb9028f0c3p-3, 0x1.16219157258c1p-1,
      0x1.996f75f9a200ep-1, 0x1.c643b8bcfc81p-4, 0x1.dab8186b9c698p-2,
      0x1.8cf67bdac6a1ep-1, 0x1.a7193870da6f7p-1, 0x1.6dbe4dad82bd8p-1,
      0x1p+0, 0x1.afbb05092ac28p-1, 0x1.519ee24b8a122p-2,
      0x1.2572a08e982aep-2, 0x1.a8f011322db1p-2, 0x1.8bf01a2202e17p-1,
      0x1.ad0928569a59cp-2, 0x1.6417bb981a712p-1, 0x0p+0,
      0x1.e4002dc810f15p-2, 0x1.60483a42e0f5dp-1, 0x1.11ef5a25fc74fp-1,
      0x1.8f96bb8fbb822p-2, 0x1.836f90d0f8abp-3, 0x1.0245129f5e782p-1,
      0x1.42fc3d9cd9e6ap-2, 0x1.b94bca623d2ecp-2, 0x1.04dee3296c9f8p-1,
      0x1.378ee358a12ccp-1, 0x1.2ace5037cf914p-2, 0x0p+0,
      0x1.34f2535e2adc2p-1, 0x1.0366fec9931bap-2, 0x1.027bbbb7a11eep-2,
      0x1.eec8fada856cap-1, 0x1.30feca61f25aep-1, 0x1.6b6812f551966p-2,
      },
      {
      0x1.65f9d3c6078fep-2, 0x1.9d5c3ed8cd0bcp-2, 0x1.2a01ec00a1866p-1,
      0x1.2df5f93e7b3ecp-1, 0x1.7923f48ee2385p-1, 0x1.0c5b7a72ccf44p-1,
      0x1.5a3dec7ed4e61p-1, 0x1.69c3aa6404a83p-1, 0x1.b45b98a35528cp-2,
      0x1.4e87fcecd611cp-1, 0x1.940a4a7d1495ap-2, 0x1.8881c81d69496p-2,
      0x1.ecbda42689aep-3, 0x1.38912eb8d60fdp-1, 0x1.5210f80f80b98p-2,
      0x1.1c8d6ec8e624ep-1, 0x1.bdcff8f108a46p-2, 0x1.45467b9586884p-2,
      0x1.3a7a14e9f28bcp-1, 0x1.c00051e9e9e7dp-2, 0x1.f19983e0d34eap-2,
      0x1p+0, 0x1.3583011ccad41p-1, 0x1.716f686ff4808p-4,
      0x1.a33bc5d53fa45p-1, 0x1.b944294e1452ep-2, 0x1.16219157258c1p-1,
      0x1.cca2a92cd5341p-1, 0x1.c643b8bcfc81p-4, 0x1.7451b20536032p-2,
      0x1.c029af0df9d51p-1, 0x1.a7193870da6f7p-1, 0x1.6dbe4dad82bd8p-1,
      0x1.dc010acc508abp-1, 0x1.d4a2ee1f4ed27p-1, 0x1.519ee24b8a122p-2,
      0x1.2572a08e982aep-2, 0x1.a8f011322db1p-2, 0x1.8bf01a2202e17p-1,
      0x1.ad0928569a59cp-2, 0x1.6417bb981a712p-1, 0x1.7358e84c953fdp-3,
      0x1.e4002dc810f15p-2, 0x1.60483a42e0f5dp-1, 0x1.11ef5a25fc74fp-1,
      0x1.29305529551bcp-2, 0x1.836f90d0f8abp-3, 0x1.0245129f5e782p-1,
      0x1.42fc3d9cd9e6ap-2, 0x1.b94bca623d2ecp-2, 0x1.04dee3296c9f8p-1,
      0x1.dfe76405fe60ep-2, 0x1.2ace5037cf914p-2, 0x1.7bbaca44673cp-6,
      0x1.34f2535e2adc2p-1, 0x1.0366fec9931bap-2, 0x1.027bbbb7a11eep-2,
      0x1.886294741f064p-1, 0x1.30feca61f25aep-1, 0x1.6b6812f551966p-2,
      },
  };
  for (int s = 0; s < 3; ++s) {
    const auto x = opt.suggest();
    ASSERT_EQ(x.size(), kDims);
    for (std::size_t k = 0; k < kDims; ++k) {
      EXPECT_EQ(x[k], golden[s][k]) << "suggest " << s << " param " << k;
    }
    opt.observe(x, objective(x));
  }
}

}  // namespace
}  // namespace stormtune
