// Golden-equivalence test for GpRegressor::fit / predict.
//
// The expected values below were captured (as hexfloats, so the comparison
// is exact) from the regressor AFTER the PR-3 dense-kernel overhaul: blocked
// Cholesky with reciprocal-multiply panel sweep, split-accumulator scalar
// solves, multi-RHS prediction solves, and the batched correlation
// transform (now linalg_kernels::KernelOps::correlation). Any future change
// to those numerics — reassociating a reduction, changing the exp path,
// reordering the panel sweep — flips these bits and must be a conscious
// decision.
//
// The values pin the portable path's glibc/x86-64 vector exp (libmvec's
// 2-lane routine); on platforms where the per-lane std::exp is compiled
// instead, correlations may differ in the last ulp, so the test skips
// itself there.
//
// Regenerate by printing log_marginal_likelihood() and predict() mean and
// variance with %a for the cases below (fixed Rng seed 2015,
// n = 12, d = 2, 3 query points drawn after the training data).
#include <gtest/gtest.h>

#include <vector>

#include "common/isa.hpp"
#include "common/rng.hpp"
#include "gp/gp_regressor.hpp"
#include "gp/kernel.hpp"

namespace stormtune::gp {
namespace {

/// Pin the runtime ISA selection for the duration of a test and restore it
/// afterwards. Goldens pin the portable path; on machines whose auto
/// selection picks a wide path, the last-ulp exp differences would
/// (correctly) flip the pinned bits otherwise.
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

struct GoldenPrediction {
  double mean;
  double variance;
};

struct GoldenCase {
  const char* name;
  KernelFamily family;
  bool ard;
  double amp;
  std::vector<double> ls;
  double noise;
  double mean_value;
  double lml;
  std::vector<GoldenPrediction> predictions;
};

const GoldenCase kGolden[] = {
    {"sqexp", KernelFamily::kSquaredExponential, false, 1.5, {0.8}, 1e-2, 0.3,
     -0x1.618c87e721ce3p+5,
     {{-0x1.886e24dddc86p-1, 0x1.f6a619395b34p-4},
      {-0x1.f49854f6156bp-1, 0x1.456db5dddd0ap-4},
      {0x1.150689b69ce16p+1, 0x1.5aaddbdc2fc67p+0}}},
    {"matern52_ard", KernelFamily::kMatern52, true, 0.9, {0.5, 1.3}, 5e-3,
     -0.1, -0x1.098ea6da1b952p+5,
     {{-0x1.ebda89696e3c1p-1, 0x1.2b1b2df50f88p-3},
      {-0x1.0f1ab835272fap+0, 0x1.4e04293a8b268p-4},
      {0x1.c51857fd6892dp-3, 0x1.114774864c10cp-1}}},
    {"matern52", KernelFamily::kMatern52, false, 2.0, {1.1}, 2e-2, 0.0,
     -0x1.00cf4e99d122fp+5,
     {{-0x1.c20447d93c29cp-1, 0x1.daa7989888bcp-3},
      {-0x1.09ea9f87289bcp+0, 0x1.4901162e0bcp-3},
      {0x1.3fb5a023934d8p+0, 0x1.181fd94ea7be4p+1}}},
};

TEST(GpGolden, FitAndPredictAreBitwiseStable) {
#if !(defined(__x86_64__) && defined(__GLIBC__))
  GTEST_SKIP() << "golden values pin the glibc/x86-64 vector-exp path";
#endif
  const ScopedIsa pin(isa::Path::kPortable);
  const std::size_t n = 12, d = 2;
  for (const GoldenCase& c : kGolden) {
    SCOPED_TRACE(c.name);
    Rng rng(2015);
    Matrix x(n, d);
    Vector y(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < d; ++k) x(i, k) = rng.normal();
      y[i] = rng.normal();
    }
    Matrix q(c.predictions.size(), d);
    for (std::size_t i = 0; i < c.predictions.size(); ++i) {
      for (std::size_t k = 0; k < d; ++k) q(i, k) = rng.normal();
    }
    Kernel kern(c.family, d, c.ard);
    kern.set_amplitude(c.amp);
    kern.set_lengthscales(c.ls);
    GpRegressor gp(kern, c.noise, c.mean_value);
    gp.fit(x, y);
    EXPECT_EQ(gp.log_marginal_likelihood(), c.lml);
    for (std::size_t i = 0; i < c.predictions.size(); ++i) {
      const Prediction p = gp.predict(q.row(i));
      EXPECT_EQ(p.mean, c.predictions[i].mean) << "query " << i;
      EXPECT_EQ(p.variance, c.predictions[i].variance) << "query " << i;
    }
  }
}

}  // namespace
}  // namespace stormtune::gp
