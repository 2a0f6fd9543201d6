#include "bayesopt/bayesopt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace stormtune::testprobe {
// Allocations of at least 64 KiB, and bytes requested, counted by the
// replacement operator new in test_engine_golden.cpp.
std::size_t large_new_call_count();
std::size_t new_byte_count();
}  // namespace stormtune::testprobe

namespace stormtune::bo {
namespace {

// Negated Branin function (maximization); global maxima value ~ -0.397887.
double neg_branin(double x1, double x2) {
  const double a = 1.0, b = 5.1 / (4.0 * M_PI * M_PI), c = 5.0 / M_PI;
  const double r = 6.0, s = 10.0, t = 1.0 / (8.0 * M_PI);
  const double v = a * std::pow(x2 - b * x1 * x1 + c * x1 - r, 2) +
                   s * (1.0 - t) * std::cos(x1) + s;
  return -v;
}

ParamSpace branin_space() {
  return ParamSpace({ParamSpec::real("x1", -5.0, 10.0),
                     ParamSpec::real("x2", 0.0, 15.0)});
}

BayesOptOptions fast_options(std::uint64_t seed) {
  BayesOptOptions o;
  o.hyper_mode = HyperMode::kMle;
  o.num_candidates = 256;
  o.local_search_iters = 10;
  o.initial_design = 5;
  o.seed = seed;
  return o;
}

TEST(BayesOpt, SuggestsWithinBounds) {
  BayesOpt opt(branin_space(), fast_options(1));
  for (int i = 0; i < 8; ++i) {
    const ParamValues x = opt.suggest();
    ASSERT_EQ(x.size(), 2u);
    EXPECT_GE(x[0], -5.0);
    EXPECT_LE(x[0], 10.0);
    EXPECT_GE(x[1], 0.0);
    EXPECT_LE(x[1], 15.0);
    opt.observe(x, neg_branin(x[0], x[1]));
  }
  EXPECT_EQ(opt.num_observations(), 8u);
}

/// bo100-large's optimizer: 101 hints, five slice-sampled GPs, 512
/// candidates, holding `n` random observations.
BayesOpt bo100_shaped(std::size_t n) {
  std::vector<ParamSpec> specs;
  for (int i = 0; i < 101; ++i) {
    specs.push_back(ParamSpec::integer("h" + std::to_string(i), 1, 20));
  }
  BayesOptOptions o;
  o.hyper_mode = HyperMode::kSliceSample;
  o.hyper_samples = 5;
  o.num_candidates = 512;
  o.seed = 11;
  BayesOpt opt(ParamSpace(specs), o);
  Rng rng(12);
  for (std::size_t i = 0; i < n; ++i) {
    auto x = opt.space().sample(rng);
    opt.observe(std::move(x), rng.normal());
  }
  return opt;
}

TEST(BayesOpt, RepeatedSuggestMakesNoLargeAllocations) {
  // The acquisition search streams candidates through a block that lives
  // across suggest() calls, so once they are sized a suggest at
  // the same history length allocates nothing of 64 KiB or more — no
  // candidate matrix, distance, solve or neighbour block. This pins those
  // blocks at n = 40, where every fit buffer (the inputs, distance cache,
  // correlation matrix, factor and each sample's posterior) is still under
  // 64 KiB; at bo100-large's n = 100 the fit buffers are that large, and
  // RepeatedSuggestFootprintAtBo100Shape bounds their sum instead.
  BayesOpt opt = bo100_shaped(40);
  const ParamValues first = opt.suggest();
  const std::size_t before = testprobe::large_new_call_count();
  const ParamValues again = opt.suggest();
  EXPECT_EQ(testprobe::large_new_call_count() - before, 0u);
  EXPECT_EQ(again.size(), first.size());
}

TEST(BayesOpt, RepeatedSuggestFootprintAtBo100Shape) {
  // At n = 100 one suggest's surrogate is the sampler GP (its inputs,
  // distance cache, correlation matrix and factor) plus one posterior —
  // the factor's lower rows and α — per hyper sample, about 1 MB. Five
  // whole GP copies, one per sample, took it to 2.7 MB.
  BayesOpt opt = bo100_shaped(100);
  const ParamValues first = opt.suggest();
  const std::size_t before = testprobe::new_byte_count();
  const ParamValues again = opt.suggest();
  const std::size_t bytes = testprobe::new_byte_count() - before;
  EXPECT_LE(bytes, 1200u * 1000u) << bytes << " bytes allocated";
  EXPECT_EQ(again.size(), first.size());
}

TEST(BayesOpt, BestTracksMaximum) {
  BayesOpt opt(branin_space(), fast_options(2));
  opt.observe({0.0, 5.0}, -10.0);
  opt.observe({1.0, 2.0}, -3.0);
  opt.observe({2.0, 2.0}, -7.0);
  const auto best = opt.best();
  EXPECT_DOUBLE_EQ(best.y, -3.0);
  EXPECT_EQ(best.step, 1u);
  EXPECT_DOUBLE_EQ(best.x[0], 1.0);
}

TEST(BayesOpt, BestKeepsEarliestOfEqualMaxima) {
  // The incumbent is tracked incrementally by observe(); ties must resolve
  // to the earliest observation, as a full rescan would.
  BayesOpt opt(branin_space(), fast_options(12));
  opt.observe({0.0, 5.0}, -2.0);
  opt.observe({1.0, 2.0}, -1.0);
  opt.observe({2.0, 2.0}, -1.0);  // equal to the step-1 maximum
  EXPECT_EQ(opt.best().step, 1u);
  opt.observe({3.0, 1.0}, 0.5);
  EXPECT_EQ(opt.best().step, 3u);
  EXPECT_DOUBLE_EQ(opt.best().y, 0.5);
}

TEST(BayesOpt, BestWithoutObservationsThrows) {
  BayesOpt opt(branin_space(), fast_options(3));
  EXPECT_THROW(opt.best(), Error);
}

TEST(BayesOpt, ObserveRejectsNonFinite) {
  BayesOpt opt(branin_space(), fast_options(4));
  EXPECT_THROW(opt.observe({0.0, 5.0},
                           std::numeric_limits<double>::quiet_NaN()),
               Error);
}

TEST(BayesOpt, BeatsRandomSearchOnBranin) {
  // Property the paper relies on: with the same evaluation budget, the
  // Bayesian optimizer should find markedly better points than uniform
  // random sampling. Compare average best over several seeds.
  const int budget = 30;
  double bo_total = 0.0, rand_total = 0.0;
  const int trials = 3;
  for (int trial = 0; trial < trials; ++trial) {
    BayesOpt opt(branin_space(), fast_options(100 + trial));
    for (int i = 0; i < budget; ++i) {
      const ParamValues x = opt.suggest();
      opt.observe(x, neg_branin(x[0], x[1]));
    }
    bo_total += opt.best().y;

    Rng rng(200 + trial);
    const ParamSpace space = branin_space();
    double best_rand = -1e300;
    for (int i = 0; i < budget; ++i) {
      const ParamValues x = space.sample(rng);
      best_rand = std::max(best_rand, neg_branin(x[0], x[1]));
    }
    rand_total += best_rand;
  }
  EXPECT_GT(bo_total / trials, rand_total / trials);
  // And it should get close to the global optimum (-0.3979).
  EXPECT_GT(bo_total / trials, -2.5);
}

TEST(BayesOpt, HandlesConstantObjective) {
  BayesOpt opt(branin_space(), fast_options(5));
  for (int i = 0; i < 10; ++i) {
    const ParamValues x = opt.suggest();
    opt.observe(x, 1.0);
  }
  EXPECT_DOUBLE_EQ(opt.best().y, 1.0);
}

TEST(BayesOpt, IntegerParametersStayIntegral) {
  ParamSpace space({ParamSpec::integer("a", 1, 20),
                    ParamSpec::integer("b", 1, 20)});
  BayesOpt opt(space, fast_options(6));
  for (int i = 0; i < 10; ++i) {
    const ParamValues x = opt.suggest();
    EXPECT_DOUBLE_EQ(x[0], std::round(x[0]));
    EXPECT_DOUBLE_EQ(x[1], std::round(x[1]));
    // Quadratic with max at (12, 7).
    const double y = -std::pow(x[0] - 12.0, 2) - std::pow(x[1] - 7.0, 2);
    opt.observe(x, y);
  }
  EXPECT_GT(opt.best().y, -200.0);
}

TEST(BayesOpt, SliceSamplingModeRuns) {
  BayesOptOptions o = fast_options(7);
  o.hyper_mode = HyperMode::kSliceSample;
  o.hyper_samples = 3;
  o.hyper_burn_in = 3;
  BayesOpt opt(branin_space(), o);
  for (int i = 0; i < 8; ++i) {
    const ParamValues x = opt.suggest();
    opt.observe(x, neg_branin(x[0], x[1]));
  }
  EXPECT_EQ(opt.num_observations(), 8u);
}

TEST(BayesOpt, FixedHyperModeRuns) {
  BayesOptOptions o = fast_options(8);
  o.hyper_mode = HyperMode::kFixed;
  BayesOpt opt(branin_space(), o);
  for (int i = 0; i < 8; ++i) {
    const ParamValues x = opt.suggest();
    opt.observe(x, neg_branin(x[0], x[1]));
  }
  EXPECT_EQ(opt.num_observations(), 8u);
}

TEST(BayesOpt, StateRoundTripPreservesHistory) {
  BayesOpt opt(branin_space(), fast_options(9));
  for (int i = 0; i < 6; ++i) {
    const ParamValues x = opt.suggest();
    opt.observe(x, neg_branin(x[0], x[1]));
  }
  const Json state = opt.save_state();
  BayesOpt resumed = BayesOpt::load_state(state);
  EXPECT_EQ(resumed.num_observations(), opt.num_observations());
  EXPECT_DOUBLE_EQ(resumed.best().y, opt.best().y);
  EXPECT_EQ(resumed.best().step, opt.best().step);
  // States saved while suggest had a thread pool carry its width; the key
  // is ignored, so such a state resumes to the same suggestion.
  EXPECT_FALSE(state.at("options").contains("num_threads"));
  Json pooled = state;
  pooled["options"]["num_threads"] = 4;
  BayesOpt resumed_pooled = BayesOpt::load_state(pooled);
  // Resumed optimizer keeps working.
  const ParamValues x = resumed.suggest();
  EXPECT_EQ(resumed_pooled.suggest(), x);
  resumed.observe(x, neg_branin(x[0], x[1]));
  EXPECT_EQ(resumed.num_observations(), opt.num_observations() + 1);
}

TEST(BayesOpt, StateSurvivesTextSerialization) {
  BayesOpt opt(branin_space(), fast_options(10));
  for (int i = 0; i < 4; ++i) {
    const ParamValues x = opt.suggest();
    opt.observe(x, neg_branin(x[0], x[1]));
  }
  const std::string text = opt.save_state().dump(2);
  BayesOpt resumed = BayesOpt::load_state(Json::parse(text));
  EXPECT_DOUBLE_EQ(resumed.best().y, opt.best().y);
}

TEST(BayesOpt, OptionsJsonRoundTrip) {
  BayesOptOptions o;
  o.kernel = gp::KernelFamily::kMatern32;
  o.ard = true;
  o.acquisition = AcquisitionKind::kUpperConfidenceBound;
  o.hyper_mode = HyperMode::kMle;
  o.hyper_samples = 9;
  o.xi = 0.25;
  o.seed = 777;
  const BayesOptOptions back = BayesOptOptions::from_json(o.to_json());
  EXPECT_EQ(back.kernel, o.kernel);
  EXPECT_EQ(back.ard, o.ard);
  EXPECT_EQ(back.acquisition, o.acquisition);
  EXPECT_EQ(back.hyper_mode, o.hyper_mode);
  EXPECT_EQ(back.hyper_samples, o.hyper_samples);
  EXPECT_DOUBLE_EQ(back.xi, o.xi);
  EXPECT_EQ(back.seed, o.seed);
}

TEST(BayesOpt, ExploresAfterInitialDesign) {
  // Suggestions after the initial design should not all collapse onto a
  // single point when observations differ.
  BayesOpt opt(branin_space(), fast_options(11));
  for (int i = 0; i < 12; ++i) {
    const ParamValues x = opt.suggest();
    opt.observe(x, neg_branin(x[0], x[1]));
  }
  const auto& obs = opt.observations();
  bool distinct = false;
  for (std::size_t i = 6; i < obs.size(); ++i) {
    if (std::abs(obs[i].x[0] - obs[5].x[0]) > 1e-6) distinct = true;
  }
  EXPECT_TRUE(distinct);
}

// Sliding-window sweep: the bounded-window optimizer must agree bit for bit
// with the unbounded one while the history still fits the window, and keep
// producing valid suggestions once evictions start, in every hyper mode.
class WindowSweep : public ::testing::TestWithParam<HyperMode> {};

TEST_P(WindowSweep, BitIdenticalToUnwindowedWhileHistoryFits) {
  BayesOptOptions base = fast_options(31);
  base.hyper_mode = GetParam();
  base.hyper_samples = 3;
  base.hyper_burn_in = 4;
  BayesOptOptions windowed = base;
  windowed.max_observations = 64;  // never overflows in this test
  BayesOpt a(branin_space(), base);
  BayesOpt b(branin_space(), windowed);
  for (int i = 0; i < 10; ++i) {
    const ParamValues xa = a.suggest();
    const ParamValues xb = b.suggest();
    ASSERT_EQ(xa.size(), xb.size());
    for (std::size_t j = 0; j < xa.size(); ++j) {
      ASSERT_EQ(xa[j], xb[j]) << "step " << i << " coordinate " << j;
    }
    const double y = neg_branin(xa[0], xa[1]);
    a.observe(xa, y);
    b.observe(xb, y);
  }
  EXPECT_EQ(b.num_evictions(), 0u);
  EXPECT_EQ(b.window_size(), b.num_observations());
}

TEST_P(WindowSweep, SuggestsStayValidAcrossEvictions) {
  BayesOptOptions o = fast_options(33);
  o.hyper_mode = GetParam();
  o.hyper_samples = 3;
  o.hyper_burn_in = 4;
  o.max_observations = 8;
  o.hyper_refit_interval = 4;  // exercise warm refresh mid-run (slice mode)
  o.hyper_burn_in_warm = 2;
  BayesOpt opt(branin_space(), o);
  for (int i = 0; i < 20; ++i) {
    const ParamValues x = opt.suggest();
    ASSERT_EQ(x.size(), 2u);
    EXPECT_GE(x[0], -5.0);
    EXPECT_LE(x[0], 10.0);
    EXPECT_GE(x[1], 0.0);
    EXPECT_LE(x[1], 15.0);
    opt.observe(x, neg_branin(x[0], x[1]));
    EXPECT_LE(opt.window_size(), o.max_observations);
  }
  EXPECT_EQ(opt.window_size(), o.max_observations);
  EXPECT_EQ(opt.num_evictions(), 20u - o.max_observations);
  EXPECT_EQ(opt.num_observations(), 20u);  // evicted rows stay in history
}

INSTANTIATE_TEST_SUITE_P(AllHyperModes, WindowSweep,
                         ::testing::Values(HyperMode::kFixed, HyperMode::kMle,
                                           HyperMode::kSliceSample));

TEST(BayesOpt, WindowPinsIncumbentAcrossEvictions) {
  BayesOptOptions o = fast_options(35);
  o.hyper_mode = HyperMode::kFixed;
  o.max_observations = 3;
  BayesOpt opt(branin_space(), o);
  opt.observe({0.0, 5.0}, 100.0);  // incumbent, observed first
  for (int i = 0; i < 10; ++i) {
    opt.observe({static_cast<double>(i - 4), 5.0}, -1.0 * i);
  }
  EXPECT_EQ(opt.best().step, 0u);
  EXPECT_EQ(opt.window_size(), 3u);
  EXPECT_EQ(opt.num_evictions(), 8u);
  // FIFO would have rotated observation 0 out long ago; pinning keeps the
  // incumbent in the window so the acquisition baseline cannot regress.
  const auto& w = opt.window_indices();
  EXPECT_NE(std::find(w.begin(), w.end(), 0u), w.end());
  EXPECT_EQ(w.back(), 10u);  // newest row always enters
}

TEST(BayesOpt, WindowedStateRoundTripRebuildsWindow) {
  BayesOptOptions o = fast_options(37);
  o.hyper_mode = HyperMode::kFixed;
  o.max_observations = 6;
  BayesOpt opt(branin_space(), o);
  for (int i = 0; i < 14; ++i) {
    const ParamValues x = opt.suggest();
    opt.observe(x, neg_branin(x[0], x[1]));
  }
  BayesOpt resumed = BayesOpt::load_state(opt.save_state());
  EXPECT_EQ(resumed.num_observations(), opt.num_observations());
  EXPECT_EQ(resumed.window_size(), opt.window_size());
  EXPECT_EQ(resumed.num_evictions(), opt.num_evictions());
  EXPECT_EQ(resumed.window_indices(), opt.window_indices());
  EXPECT_EQ(resumed.best().step, opt.best().step);
  const ParamValues x = resumed.suggest();
  EXPECT_EQ(x.size(), 2u);
}

TEST(BayesOpt, WindowOfOneRejected) {
  BayesOptOptions o = fast_options(39);
  o.max_observations = 1;
  EXPECT_THROW(BayesOpt(branin_space(), o), Error);
}

TEST(BayesOpt, OptionsJsonRoundTripWithWindow) {
  BayesOptOptions o;
  o.max_observations = 16;
  o.hyper_refit_interval = 4;
  o.hyper_burn_in_warm = 3;
  const BayesOptOptions back = BayesOptOptions::from_json(o.to_json());
  EXPECT_EQ(back.max_observations, 16u);
  EXPECT_EQ(back.hyper_refit_interval, 4u);
  EXPECT_EQ(back.hyper_burn_in_warm, 3u);
  // Unwindowed options keep the pre-window serialization (no new keys), so
  // states saved by older builds parse and vice versa.
  BayesOptOptions legacy;
  EXPECT_FALSE(legacy.to_json().contains("max_observations"));
  const BayesOptOptions parsed = BayesOptOptions::from_json(legacy.to_json());
  EXPECT_EQ(parsed.max_observations, 0u);
}

// Mixed-fidelity rung noise now composes with the sampled hyper modes: the
// rung structure rides on the inferred noise scale as fixed variance ratios
// (see apply_hyperparams' noise_ratio_diag) instead of requiring kFixed.
TEST(BayesOpt, MixedRungNoiseComposesWithSampledHyperModes) {
  for (const HyperMode mode : {HyperMode::kSliceSample, HyperMode::kMle}) {
    BayesOptOptions o = fast_options(41);
    o.hyper_mode = mode;
    o.hyper_samples = 3;
    o.hyper_burn_in = 4;
    o.rung_noise_variance = {0.0, 4e-3, 1e-3};
    BayesOpt opt(branin_space(), o);
    for (int i = 0; i < 8; ++i) {
      const ParamValues x = opt.suggest();
      opt.observe(x, neg_branin(x[0], x[1]), i % 2 == 0 ? 1 : 2);
    }
    const ParamValues x = opt.suggest();
    ASSERT_EQ(x.size(), 2u);
    EXPECT_TRUE(std::isfinite(x[0]) && std::isfinite(x[1]));
  }
}

// The local search's neighbour bound (DESIGN.md §8, "Bounded local search")
// must hold for every neighbour, or a prune could drop the argmax. Random
// posteriors of each kernel family, single and marginalized, with and
// without a noise diagonal, around centres on a training point (distance
// 0), at the unit cube's corner (clamped neighbours, h = 0) and inside it.
TEST(BayesOpt, NeighborBoundsCoverExactScores) {
  const ParamSpace space({ParamSpec::real("a", 0.0, 1.0),
                          ParamSpec::real("b", -2.0, 2.0),
                          ParamSpec::integer("k", 1, 12),
                          ParamSpec::real("r", 1.0, 100.0, /*log_scale=*/true),
                          ParamSpec::real("c", 0.0, 5.0)});
  const auto objective = [](const ParamValues& x) {
    return -(x[0] - 0.3) * (x[0] - 0.3) + 0.2 * x[1] - 0.02 * x[2] +
           0.1 * std::log(x[3]) - 0.05 * (x[4] - 2.0) * (x[4] - 2.0);
  };
  struct Setup {
    HyperMode mode;
    bool noise_diag;
  };
  const Setup setups[] = {{HyperMode::kSliceSample, false},
                          {HyperMode::kMle, false},
                          {HyperMode::kFixed, true},
                          {HyperMode::kSliceSample, true}};
  for (const gp::KernelFamily family :
       {gp::KernelFamily::kSquaredExponential, gp::KernelFamily::kMatern32,
        gp::KernelFamily::kMatern52}) {
    for (const AcquisitionKind acq : {AcquisitionKind::kExpectedImprovement,
                                      AcquisitionKind::kUpperConfidenceBound}) {
      for (const Setup& setup : setups) {
        BayesOptOptions o;
        o.kernel = family;
        o.acquisition = acq;
        o.hyper_mode = setup.mode;
        o.hyper_samples = 5;
        o.hyper_burn_in = 4;
        o.seed = 97;
        if (setup.noise_diag) o.rung_noise_variance = {0.0, 4e-3, 1e-3};
        BayesOpt opt(space, o);
        Rng rng(5 + static_cast<std::uint64_t>(family));
        for (int i = 0; i < 24; ++i) {
          auto x = space.sample(rng);
          const double y = objective(x) + 0.05 * rng.normal();
          opt.observe(std::move(x), y, i % 3 == 0 ? 1 : 2);
        }
        std::vector<std::vector<double>> centres = {
            space.to_unit(opt.observations()[3].x),
            space.to_unit(opt.best().x),
            {0.0, 1.0, 1.0, 0.0, 0.5},
        };
        std::vector<double> inner(space.dim());
        for (double& v : inner) v = rng.uniform();
        centres.push_back(inner);
        std::size_t finite = 0, total = 0;
        for (const auto& centre : centres) {
          for (const double step : {0.1, 0.03, 1e-2, 1e-3}) {
            const auto nb = opt.neighbor_scores(centre, step);
            ASSERT_EQ(nb.bound.size(), 2 * space.dim());
            for (std::size_t r = 0; r < nb.bound.size(); ++r) {
              ASSERT_TRUE(std::isfinite(nb.exact[r]));
              EXPECT_LE(nb.exact[r], nb.bound[r])
                  << "family " << static_cast<int>(family) << " acq "
                  << to_string(acq) << " mode " << to_string(setup.mode)
                  << " step " << step << " neighbour " << r;
              finite += std::isfinite(nb.bound[r]) ? 1 : 0;
              ++total;
            }
          }
        }
        // Not vacuous. Matérn-3/2's curvature is infinite at a training
        // point, so both centres on one get +∞ bounds for that family.
        EXPECT_GE(finite, family == gp::KernelFamily::kMatern32 ? total / 2
                                                                  : total)
            << "family " << static_cast<int>(family) << " acq "
            << to_string(acq) << " mode " << to_string(setup.mode);
      }
    }
  }
  // bo100-large's shape: Matérn-5/2 at d = 101 and n = 40, where k' comes
  // from the transform's output and κ from one batched exp, over 5
  // slice-sampled posteriors and with the fused sweep's strips and tail.
  BayesOpt opt = bo100_shaped(40);
  Rng rng(41);
  std::vector<std::vector<double>> centres = {
      opt.space().to_unit(opt.observations()[7].x),
      opt.space().to_unit(opt.best().x),
      std::vector<double>(opt.space().dim(), 0.0),
  };
  std::vector<double> inner(opt.space().dim());
  for (double& v : inner) v = rng.uniform();
  centres.push_back(inner);
  for (const auto& centre : centres) {
    for (const double step : {0.1, 1e-2, 1e-3}) {
      const auto nb = opt.neighbor_scores(centre, step);
      ASSERT_EQ(nb.bound.size(), 2 * opt.space().dim());
      for (std::size_t r = 0; r < nb.bound.size(); ++r) {
        ASSERT_TRUE(std::isfinite(nb.exact[r]));
        ASSERT_TRUE(std::isfinite(nb.bound[r])) << "d101 neighbour " << r;
        EXPECT_LE(nb.exact[r], nb.bound[r])
            << "d101 step " << step << " neighbour " << r;
      }
    }
  }
}

// Progressive scoring: a survivor of the bound (bound ≥ the final T) is
// scored one posterior at a time and dropped once its exact partial sum
// plus its remaining posteriors' bounds falls below T. Two optimizers fed
// the same history draw the same hyper samples, so one finds the best
// neighbour's exact score and bound and the other searches with best_val
// between them: that neighbour is a survivor no exact score reaches, so
// it must be dropped partway, and the search must still halve as the
// unpruned one does.
TEST(BayesOpt, ProgressiveScoringDropsSurvivorsMidPosterior) {
  BayesOpt probe = bo100_shaped(40);
  BayesOpt search = bo100_shaped(40);
  Rng rng(43);
  std::size_t dropped = 0;
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<double> centre = probe.space().to_unit(probe.best().x);
    for (std::size_t j = 0; j < centre.size(); j += 2 + trial) {
      centre[j] = rng.uniform();
    }
    const auto full = probe.neighbor_scores(centre, 0.1);
    const std::size_t top = static_cast<std::size_t>(
        std::max_element(full.exact.begin(), full.exact.end()) -
        full.exact.begin());
    ASSERT_LT(full.exact[top], full.bound[top]);
    // Near the bound, so the drop can come as late as the last posterior.
    const double best_val =
        full.exact[top] + 0.9 * (full.bound[top] - full.exact[top]);
    const auto nb = search.neighbor_scores(centre, 0.1, best_val);
    for (std::size_t r = 0; r < nb.bound.size(); ++r) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(nb.exact[r]),
                std::bit_cast<std::uint64_t>(full.exact[r]))
          << "trial " << trial << " neighbour " << r;
      // Nothing beats best_val, so nothing finishes: the search halves.
      EXPECT_EQ(nb.searched[r], -std::numeric_limits<double>::infinity())
          << "trial " << trial << " neighbour " << r;
      dropped += nb.bound[r] >= best_val ? 1 : 0;
    }
    EXPECT_GE(nb.bound[top], best_val) << "trial " << trial;
  }
  EXPECT_GE(dropped, 4u);
}

// Where no bound exists, every neighbour's is +∞ and the search scores all
// of them: probability of improvement (which falls as σ² grows below the
// incumbent, so a σ² bound does not bound it), the cost-aware divisor, ARD
// posteriors and a history too short to repay the bound.
TEST(BayesOpt, NeighborBoundsInfiniteWhereUnsupported) {
  // Variant 4 is the control: the same history with nothing unsupported
  // gets finite bounds.
  for (int variant = 0; variant < 5; ++variant) {
    BayesOptOptions o = fast_options(23);
    if (variant == 0) o.acquisition = AcquisitionKind::kProbabilityOfImprovement;
    if (variant == 2) o.ard = true;
    BayesOpt opt(branin_space(), o);
    Rng rng(3);
    for (int i = 0; i < (variant == 3 ? 15 : 20); ++i) {
      auto x = opt.space().sample(rng);
      const double y = neg_branin(x[0], x[1]);
      opt.observe(std::move(x), y);
    }
    if (variant == 1) opt.set_acquisition_costs(5.0, 50.0, -20.0);
    const auto nb = opt.neighbor_scores(std::vector<double>{0.4, 0.6}, 0.05);
    ASSERT_EQ(nb.bound.size(), 4u);
    for (std::size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(std::isfinite(nb.bound[r]), variant == 4)
          << "variant " << variant << " neighbour " << r;
      EXPECT_TRUE(std::isfinite(nb.exact[r]));
    }
  }
}

// Acquisition sweep: each acquisition function must drive a working loop.
class AcquisitionSweep : public ::testing::TestWithParam<AcquisitionKind> {};

TEST_P(AcquisitionSweep, OptimizesQuadratic) {
  BayesOptOptions o = fast_options(21);
  o.acquisition = GetParam();
  ParamSpace space({ParamSpec::real("x", -4.0, 4.0)});
  BayesOpt opt(space, o);
  for (int i = 0; i < 20; ++i) {
    const ParamValues x = opt.suggest();
    opt.observe(x, -x[0] * x[0]);
  }
  EXPECT_GT(opt.best().y, -1.0);  // |x| < 1 found
}

INSTANTIATE_TEST_SUITE_P(
    AllAcquisitions, AcquisitionSweep,
    ::testing::Values(AcquisitionKind::kExpectedImprovement,
                      AcquisitionKind::kProbabilityOfImprovement,
                      AcquisitionKind::kUpperConfidenceBound));

}  // namespace
}  // namespace stormtune::bo
