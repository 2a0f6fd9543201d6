#include "tuning/tuner.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tuning/strategy.hpp"

namespace stormtune::tuning {
namespace {

sim::Topology demo_topology() {
  sim::Topology t;
  const auto s = t.add_spout("S", 10.0);
  const auto a = t.add_bolt("A", 20.0);
  const auto b = t.add_bolt("B", 20.0);
  t.connect(s, a);
  t.connect(s, b);
  t.connect(a, b);
  return t;
}

sim::TopologyConfig defaults() {
  sim::TopologyConfig c;
  c.batch_size = 100;
  return c;
}

TEST(PlaTuner, AscendsUniformHints) {
  // Section V-A: "sets the same parallelism hint on all spout/bolt nodes
  // and increases them in parallel".
  const sim::Topology t = demo_topology();
  PlaTuner pla(t, defaults(), /*informed=*/false);
  EXPECT_EQ(pla.name(), "pla");
  for (int step = 1; step <= 5; ++step) {
    const auto c = pla.next();
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->parallelism_hints,
              (std::vector<int>{step, step, step}));
    pla.report(*c, 100.0);
  }
}

TEST(PlaTuner, InformedScalesBaseWeights) {
  const sim::Topology t = demo_topology();
  PlaTuner ipla(t, defaults(), /*informed=*/true);
  EXPECT_EQ(ipla.name(), "ipla");
  // Weights: S=1, A=1, B=2.
  EXPECT_EQ(ipla.next()->parallelism_hints, (std::vector<int>{1, 1, 2}));
  EXPECT_EQ(ipla.next()->parallelism_hints, (std::vector<int>{2, 2, 4}));
  EXPECT_EQ(ipla.next()->parallelism_hints, (std::vector<int>{3, 3, 6}));
}

TEST(PlaTuner, PreservesUntunedDefaults) {
  const sim::Topology t = demo_topology();
  PlaTuner pla(t, defaults(), false);
  const auto c = pla.next();
  EXPECT_EQ(c->batch_size, 100);
}

TEST(BayesTuner, ProposesValidConfigs) {
  const sim::Topology t = demo_topology();
  SpaceOptions opts;
  opts.hint_max = 10;
  ConfigSpace space(t, opts, defaults());
  bo::BayesOptOptions bopts;
  bopts.hyper_mode = bo::HyperMode::kFixed;
  bopts.initial_design = 3;
  bopts.num_candidates = 64;
  bopts.local_search_iters = 4;
  BayesTuner tuner(std::move(space), bopts);
  EXPECT_EQ(tuner.name(), "bo");
  for (int i = 0; i < 8; ++i) {
    const auto c = tuner.next();
    ASSERT_TRUE(c.has_value());
    c->validate(t);
    for (int h : c->parallelism_hints) {
      EXPECT_GE(h, 1);
      EXPECT_LE(h, 10);
    }
    // Reward larger hints on B.
    tuner.report(*c, static_cast<double>(c->parallelism_hints[2]));
  }
  EXPECT_EQ(tuner.optimizer().num_observations(), 8u);
}

TEST(BayesTuner, LearnsTowardBetterRegion) {
  // 1-d informed space: the objective peaks at multiplier ~ 4; after a
  // few steps the best observed config should beat the first random one.
  const sim::Topology t = demo_topology();
  SpaceOptions opts;
  opts.informed = true;
  opts.tune_max_tasks = false;
  opts.multiplier_max = 10.0;
  ConfigSpace space(t, opts, defaults());
  bo::BayesOptOptions bopts;
  bopts.hyper_mode = bo::HyperMode::kMle;
  bopts.initial_design = 4;
  bopts.num_candidates = 128;
  bopts.seed = 3;
  BayesTuner tuner(std::move(space), bopts, "ibo");
  EXPECT_EQ(tuner.name(), "ibo");
  double first = -1.0, best = -1.0;
  for (int i = 0; i < 15; ++i) {
    const auto c = tuner.next();
    const double m = static_cast<double>(c->parallelism_hints[0]);
    const double y = -(m - 4.0) * (m - 4.0);
    if (i == 0) first = y;
    best = std::max(best, y);
    tuner.report(*c, y);
  }
  EXPECT_GE(best, first);
  EXPECT_GT(best, -4.1);  // found multiplier within ~2 of the peak
}

TEST(BayesTuner, AcceptsForeignConfigurationReports) {
  // The driver may report a configuration the tuner did not propose (e.g.
  // a warm-start measurement); the tuner must re-encode it rather than
  // reject it.
  const sim::Topology t = demo_topology();
  SpaceOptions opts;
  opts.hint_max = 10;
  opts.tune_max_tasks = false;
  ConfigSpace space(t, opts, defaults());
  bo::BayesOptOptions bopts;
  bopts.hyper_mode = bo::HyperMode::kFixed;
  BayesTuner tuner(std::move(space), bopts);
  sim::TopologyConfig foreign = defaults();
  foreign.parallelism_hints = {2, 4, 6};
  tuner.report(foreign, 123.0);
  EXPECT_EQ(tuner.optimizer().num_observations(), 1u);
  EXPECT_DOUBLE_EQ(tuner.optimizer().best().y, 123.0);
  // And it keeps proposing normally afterwards.
  EXPECT_TRUE(tuner.next().has_value());
}

TEST(RandomTuner, SamplesWithinSpace) {
  const sim::Topology t = demo_topology();
  SpaceOptions opts;
  opts.hint_max = 6;
  ConfigSpace space(t, opts, defaults());
  RandomTuner tuner(std::move(space), 11);
  EXPECT_EQ(tuner.name(), "random");
  for (int i = 0; i < 50; ++i) {
    const auto c = tuner.next();
    ASSERT_TRUE(c.has_value());
    for (int h : c->parallelism_hints) {
      EXPECT_GE(h, 1);
      EXPECT_LE(h, 6);
    }
    tuner.report(*c, 0.0);
  }
}

TEST(RandomTuner, DeterministicPerSeed) {
  const sim::Topology t = demo_topology();
  SpaceOptions opts;
  ConfigSpace s1(t, opts, defaults());
  ConfigSpace s2(t, opts, defaults());
  RandomTuner a(std::move(s1), 42);
  RandomTuner b(std::move(s2), 42);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.next()->parallelism_hints, b.next()->parallelism_hints);
  }
}

TEST(StrategyTable, EveryRowBuildsItsTuner) {
  const sim::Topology t = demo_topology();
  EXPECT_EQ(strategy_names(), "pla|ipla|random|bo|ibo");
  for (const char* name : {"pla", "ipla", "random", "bo", "ibo"}) {
    TunerSpec spec;
    spec.defaults = defaults();
    const auto tuner = make_tuner(name, t, std::move(spec));
    EXPECT_EQ(tuner->name(), name);
    EXPECT_TRUE(tuner->next().has_value()) << name;
  }
}

TEST(StrategyTable, InformedRowsSetInformedThemselves) {
  // The caller's `informed` never decides: bo searches one hint per node
  // plus max-tasks, ibo one multiplier plus max-tasks.
  const sim::Topology t = demo_topology();
  for (const bool asked : {false, true}) {
    TunerSpec bo_spec;
    bo_spec.defaults = defaults();
    bo_spec.space.informed = asked;
    const auto hints = make_tuner("bo", t, std::move(bo_spec));
    EXPECT_EQ(
        dynamic_cast<const BayesTuner&>(*hints).optimizer().space().dim(), 4u);
    TunerSpec ibo_spec;
    ibo_spec.defaults = defaults();
    ibo_spec.space.informed = asked;
    const auto multiplier = make_tuner("ibo", t, std::move(ibo_spec));
    EXPECT_EQ(dynamic_cast<const BayesTuner&>(*multiplier)
                  .optimizer()
                  .space()
                  .dim(),
              2u);
  }
  EXPECT_FALSE(find_strategy("pla")->informed);
  EXPECT_TRUE(find_strategy("ipla")->informed);
  EXPECT_EQ(find_strategy("bogus"), nullptr);
}

TEST(StrategyTable, BayesRowsTakeTheSeedAndLabel) {
  const sim::Topology t = demo_topology();
  TunerSpec spec;
  spec.defaults = defaults();
  spec.seed = 77;
  spec.name = "bo.h";
  const auto table = make_tuner("bo", t, std::move(spec));
  EXPECT_EQ(table->name(), "bo.h");

  bo::BayesOptOptions options;
  options.seed = 77;
  BayesTuner direct(ConfigSpace(t, SpaceOptions{}, defaults()), options);
  for (int i = 0; i < 3; ++i) {
    const auto a = table->next();
    const auto b = direct.next();
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->describe(), b->describe());
    table->report(*a, 10.0 * i);
    direct.report(*b, 10.0 * i);
  }
}

TEST(StrategyTable, UnknownNameThrowsNamingIt) {
  const sim::Topology t = demo_topology();
  TunerSpec spec;
  spec.defaults = defaults();
  try {
    make_tuner("bo180", t, std::move(spec));
    FAIL() << "expected an Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'bo180'"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace stormtune::tuning
