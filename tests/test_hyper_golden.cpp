// Bit-exact goldens of the hyperparameter sampler, captured before it
// decided its comparisons from log-posterior estimates. Only comparisons
// read the log posterior, so the estimates and their exact fallback must
// reproduce every θ the exact-only code produced, bit for bit, on every ISA
// path this host runs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/isa.hpp"
#include "common/rng.hpp"
#include "gp/gp_regressor.hpp"
#include "gp/hyper.hpp"
#include "gp/kernel.hpp"

namespace stormtune::gp {
namespace {

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

std::vector<isa::Path> runnable_paths() {
  std::vector<isa::Path> paths;
  for (std::size_t i = 0; i < isa::kNumPaths; ++i) {
    const auto p = static_cast<isa::Path>(i);
    if (isa::compiled(p) && isa::supported(p)) paths.push_back(p);
  }
  return paths;
}

struct Data {
  Matrix x;
  Vector y;
};

/// n points uniform in [0, 1]^d and a smooth response with N(0, 0.1²)
/// noise, standardized as BayesOpt standardizes its targets.
Data make_data(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Data out{Matrix(n, d), Vector(n)};
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t k = 0; k < d; ++k) {
      out.x(i, k) = rng.uniform();
      s += std::sin(3.0 * out.x(i, k) + static_cast<double>(k));
    }
    out.y[i] = s + rng.normal(0.0, 0.1);
  }
  double mean = 0.0;
  for (const double v : out.y) mean += v;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (const double v : out.y) var += (v - mean) * (v - mean);
  const double sd = std::sqrt(var / static_cast<double>(n));
  for (double& v : out.y) v = (v - mean) / sd;
  return out;
}

std::string hex(const std::vector<double>& v) {
  std::string s = "{";
  char buf[40];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%a", i ? ", " : "", v[i]);
    s += buf;
  }
  return s + "}";
}

/// Captured on the portable path; the AVX2 and AVX-512 paths gave the
/// same bits, so one table serves every path.
using Golden = std::vector<std::vector<double>>;

void expect_thetas(const std::vector<std::vector<double>>& got,
                   const Golden& want, const char* what, isa::Path path) {
  if (got.size() != want.size()) {
    std::string table;
    for (const auto& row : got) table += "    " + hex(row) + ",\n";
    FAIL() << what << " on " << isa::to_string(path) << ": " << got.size()
           << " rows, golden has " << want.size() << "; got\n" << table;
  }
  for (std::size_t s = 0; s < got.size(); ++s) {
    EXPECT_EQ(got[s], want[s]) << what << " on " << isa::to_string(path)
                               << ", row " << s << ": got " << hex(got[s]);
  }
}

bool golden_host() {
#if !(defined(__x86_64__) && defined(__GLIBC__))
  return false;  // the goldens pin glibc's x86-64 vector exp
#else
  return true;
#endif
}

std::vector<std::vector<double>> sample(const Kernel& kernel, const Data& d,
                                        const HyperSamplerOptions& opts,
                                        std::uint64_t seed,
                                        std::span<const double> ratios = {}) {
  GpRegressor gp(kernel, 0.05);
  Rng rng(seed);
  std::vector<std::vector<double>> thetas;
  for (const auto& s : sample_hyperparams(gp, d.x, d.y, opts, rng, ratios)) {
    thetas.push_back(s.theta);
  }
  return thetas;
}

TEST(HyperGolden, SampleHyperparamsColdChain) {
  if (!golden_host()) GTEST_SKIP() << "goldens pin glibc/x86-64";
  const Data d = make_data(24, 3, 11);
  HyperSamplerOptions opts;
  opts.num_samples = 4;
  opts.burn_in = 6;
  opts.thin = 2;
  static const Golden kGolden = {
      {0x1.84bef3808ea38p-4, -0x1.1dfc2aecc6c61p-2, -0x1.81a686c461b6bp+1,
       -0x1.2a02c2d0c0a88p-3},
      {0x1.44187e114de2cp-2, -0x1.1daa3807dfd32p-3, -0x1.e93902ad3745fp+1,
       0x1.e8a283c7f76dp-2},
      {0x1.2d157ac96ee0cp-4, -0x1.ea26ff7444b0ap-2, -0x1.de65712c26379p+1,
       0x1.02f74a761633p-3},
      {0x1.12eca584062bcp-3, -0x1.5011a881769d4p-2, -0x1.1408bf0db5e82p+2,
       -0x1.38adcad893378p-2},
  };
  for (const isa::Path p : runnable_paths()) {
    const ScopedIsa pin(p);
    expect_thetas(
        sample(Kernel(KernelFamily::kMatern52, 3, false), d, opts, 5),
        kGolden, "cold chain", p);
  }
}

TEST(HyperGolden, SampleHyperparamsWarmStart) {
  if (!golden_host()) GTEST_SKIP() << "goldens pin glibc/x86-64";
  const Data d = make_data(40, 3, 12);
  HyperSamplerOptions opts;
  opts.num_samples = 3;
  opts.burn_in = 2;
  opts.thin = 1;
  opts.initial_theta = {0.3, -0.4, 0.1, -0.2, -2.0, 0.05};
  static const Golden kGolden = {
      {0x1.84e801b59d058p-1, -0x1.3f5f53839e1ccp-3, 0x1.03c7c4547a0aap-2,
       0x1.0c489be6c689bp-1, -0x1.27721e2d4c735p+1, 0x1.3311d0eb3bd4p-1},
      {0x1.8ad460ce7a568p-1, 0x1.2f5d529bcad12p-2, 0x1.5b7cd20e517e2p-1,
       0x1.740e82b5a483p-1, -0x1.13a36a79e494dp+1, 0x1.9dbf1c0f014ep-2},
      {0x1.4b23479816cb7p+0, 0x1.498d15812d1a4p-1, 0x1.df0256c8c924ap-1,
       0x1.126017c1d5be9p-1, -0x1.21aa82ecdae77p+1, -0x1.645c0111b41cp+0},
  };
  for (const isa::Path p : runnable_paths()) {
    const ScopedIsa pin(p);
    expect_thetas(
        sample(Kernel(KernelFamily::kMatern52, 3, true), d, opts, 6),
        kGolden, "warm start", p);
  }
}

/// Captured as the Matérn-5/2 twin of a Matérn-3/2 golden on the same data
/// and chain, before Matérn-3/2 was removed.
TEST(HyperGolden, SampleHyperparamsNoiseRatioDiagonalMatern52) {
  if (!golden_host()) GTEST_SKIP() << "goldens pin glibc/x86-64";
  const Data d = make_data(30, 2, 13);
  std::vector<double> ratios(30);
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    ratios[i] = i % 3 == 0 ? 1.0 : (i % 3 == 1 ? 4.0 : 16.0);
  }
  HyperSamplerOptions opts;
  opts.num_samples = 3;
  opts.burn_in = 4;
  opts.thin = 2;
  static const Golden kGolden = {
      {0x1.ef5d861928341p-2, -0x1.117b75ad1e66ap-2, -0x1.6b026ff0c149ep+1,
       -0x1.5e60dc0b6b157p+0},
      {0x1.d8c72439360c5p-2, -0x1.27fede4db8f2bp-2, -0x1.597e10297fa2ap+1,
       -0x1.d1259ed73c108p-2},
      {0x1.af9b2f00b77dp-4, -0x1.4190ca1a77123p-2, -0x1.375b4c380f2d2p+1,
       -0x1.fbc33018f88f2p-1},
  };
  for (const isa::Path p : runnable_paths()) {
    const ScopedIsa pin(p);
    expect_thetas(
        sample(Kernel(KernelFamily::kMatern52, 2, false), d, opts, 7, ratios),
        kGolden, "noise-ratio diagonal, Matérn-5/2", p);
  }
}

}  // namespace
}  // namespace stormtune::gp
