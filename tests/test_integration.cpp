// End-to-end integration tests: the full paper pipeline at reduced scale —
// build a topology, run tuning strategies against the simulator through the
// experiment driver, and check the qualitative relationships the paper
// reports.
#include <gtest/gtest.h>

#include <cmath>

#include <memory>

#include "common/loess.hpp"
#include "common/stats.hpp"
#include "stormsim/engine.hpp"
#include "topology/sundog.hpp"
#include "topology/synthetic.hpp"
#include "tuning/experiment.hpp"

namespace stormtune {
namespace {

using tuning::BayesTuner;
using tuning::ConfigSpace;
using tuning::ExperimentOptions;
using tuning::ExperimentResult;
using tuning::PlaTuner;
using tuning::SimObjective;
using tuning::SpaceOptions;

sim::SimParams quick_params() {
  sim::SimParams p = topo::synthetic_sim_params();
  p.duration_s = 10.0;
  p.throughput_noise_sd = 0.01;
  return p;
}

sim::TopologyConfig synthetic_defaults() {
  sim::TopologyConfig c;
  c.batch_size = 100;
  c.batch_parallelism = 5;
  return c;
}

ExperimentOptions quick_options(std::size_t steps) {
  ExperimentOptions o;
  o.max_steps = steps;
  o.best_config_reps = 3;
  return o;
}

bo::BayesOptOptions quick_bo(std::uint64_t seed) {
  bo::BayesOptOptions o;
  o.hyper_mode = bo::HyperMode::kFixed;
  o.initial_design = 5;
  o.num_candidates = 128;
  o.local_search_iters = 5;
  o.seed = seed;
  return o;
}

TEST(Integration, PlaTunesSmallSyntheticTopology) {
  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kSmall;
  const sim::Topology t = topo::build_synthetic(spec);
  SimObjective obj(t, topo::paper_cluster(), quick_params(), 1);
  PlaTuner pla(t, synthetic_defaults(), false);
  const ExperimentResult r = run_experiment(pla, obj, quick_options(8));
  EXPECT_GT(r.best_throughput, 0.0);
  // For a homogeneous CPU-bound topology, higher hints keep helping, so
  // pla's best is found late in the ascent.
  EXPECT_GE(r.best_step, 4u);
}

TEST(Integration, IplaMatchesOrBeatsPlaOnImbalanced) {
  // Lower-left of Figure 4: topological information helps when time
  // complexity is imbalanced.
  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kSmall;
  spec.time_imbalance = true;
  const sim::Topology t = topo::build_synthetic(spec);
  SimObjective obj_pla(t, topo::paper_cluster(), quick_params(), 2);
  SimObjective obj_ipla(t, topo::paper_cluster(), quick_params(), 2);
  PlaTuner pla(t, synthetic_defaults(), false);
  PlaTuner ipla(t, synthetic_defaults(), true);
  const ExperimentResult rp = run_experiment(pla, obj_pla, quick_options(8));
  const ExperimentResult ri =
      run_experiment(ipla, obj_ipla, quick_options(8));
  EXPECT_GT(ri.best_rep_stats.mean, rp.best_rep_stats.mean * 0.8);
}

TEST(Integration, BoFindsGoodHintsOnSmallTopology) {
  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kSmall;
  spec.time_imbalance = true;
  const sim::Topology t = topo::build_synthetic(spec);
  SimObjective obj(t, topo::paper_cluster(), quick_params(), 3);

  SpaceOptions sopts;
  sopts.hint_max = 12;
  sopts.tune_max_tasks = false;
  ConfigSpace space(t, sopts, synthetic_defaults());
  BayesTuner bo_tuner(std::move(space), quick_bo(5));
  const ExperimentResult r = run_experiment(bo_tuner, obj, quick_options(20));
  EXPECT_GT(r.best_throughput, 0.0);

  // bo must clearly beat the all-ones configuration.
  SimObjective probe(t, topo::paper_cluster(), quick_params(), 4);
  sim::TopologyConfig ones = synthetic_defaults();
  ones.parallelism_hints.assign(t.num_nodes(), 1);
  const double baseline = probe.evaluate(ones);
  EXPECT_GT(r.best_rep_stats.mean, baseline);
}

TEST(Integration, ContentionMakesParallelismUseless) {
  // Upper-right of Figure 4, taken to the extreme: with every compute unit
  // contended, pla's ascent finds nothing better than hint 1.
  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kSmall;
  spec.contention_fraction = 1.0;
  const sim::Topology t = topo::build_synthetic(spec);
  SimObjective obj(t, topo::paper_cluster(), quick_params(), 5);
  sim::TopologyConfig ones = synthetic_defaults();
  ones.parallelism_hints.assign(t.num_nodes(), 1);
  const double at_one = obj.evaluate(ones);
  sim::TopologyConfig eights = synthetic_defaults();
  eights.parallelism_hints.assign(t.num_nodes(), 8);
  const double at_eight = obj.evaluate(eights);
  EXPECT_LE(at_eight, at_one * 1.15);
}

TEST(Integration, SundogBatchTuningBeatsHintTuning) {
  // Figure 8a at test scale: tuning bs+bp around the pla-found hints beats
  // any hint-only configuration, by a wide margin.
  const sim::Topology t = topo::build_sundog();
  sim::SimParams p = topo::sundog_sim_params();
  // Long enough to amortize pipeline fill: the tuned configuration carries
  // 16 multi-hundred-millisecond batches in flight.
  p.duration_s = 30.0;
  p.throughput_noise_sd = 0.01;
  SimObjective obj(t, topo::sundog_cluster(), p, 6);

  double best_hint_only = 0.0;
  for (int h : {5, 11, 20, 30}) {
    best_hint_only = std::max(
        best_hint_only, obj.evaluate(topo::sundog_baseline_config(t, h)));
  }
  sim::TopologyConfig tuned = topo::sundog_baseline_config(t, 11);
  tuned.batch_size = 265312;
  tuned.batch_parallelism = 16;
  const double batch_tuned = obj.evaluate(tuned);
  EXPECT_GT(batch_tuned, best_hint_only * 1.6);
}

TEST(Integration, BoTunesSundogBatchParameters) {
  // The "bs bp cc" experiment shape: with hints fixed at the pla optimum,
  // BO over batch+concurrency parameters recovers a large improvement.
  const sim::Topology t = topo::build_sundog();
  sim::SimParams p = topo::sundog_sim_params();
  p.duration_s = 8.0;
  p.throughput_noise_sd = 0.01;
  SimObjective obj(t, topo::sundog_cluster(), p, 7);

  SpaceOptions sopts;
  sopts.tune_hints = false;
  sopts.tune_batch = true;
  sopts.tune_concurrency = true;
  ConfigSpace space(t, sopts, topo::sundog_baseline_config(t, 11));
  BayesTuner tuner(std::move(space), quick_bo(8), "bo.bs_bp_cc");
  const ExperimentResult r = run_experiment(tuner, obj, quick_options(25));

  const double baseline = obj.evaluate(topo::sundog_baseline_config(t, 11));
  EXPECT_GT(r.best_rep_stats.mean, baseline * 1.3);
}

TEST(Integration, ConvergenceTraceSmoothableWithLoess) {
  // Figure 6's analysis path: smooth a bo optimization trace with LOESS
  // span 0.75 and obtain finite fitted values.
  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kSmall;
  const sim::Topology t = topo::build_synthetic(spec);
  SimObjective obj(t, topo::paper_cluster(), quick_params(), 9);
  SpaceOptions sopts;
  sopts.hint_max = 10;
  sopts.tune_max_tasks = false;
  ConfigSpace space(t, sopts, synthetic_defaults());
  BayesTuner tuner(std::move(space), quick_bo(10));
  const ExperimentResult r = run_experiment(tuner, obj, quick_options(15));

  std::vector<double> xs, ys;
  for (const auto& step : r.trace) {
    xs.push_back(static_cast<double>(step.step));
    ys.push_back(step.throughput);
  }
  const auto smooth = loess_smooth(xs, ys, {.span = 0.75, .degree = 1});
  ASSERT_EQ(smooth.size(), xs.size());
  for (double v : smooth) EXPECT_TRUE(std::isfinite(v));
}

TEST(Integration, CampaignPicksBestOfTwoBoPasses) {
  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kSmall;
  const sim::Topology t = topo::build_synthetic(spec);
  SpaceOptions sopts;
  sopts.hint_max = 8;
  sopts.tune_max_tasks = false;
  tuning::CampaignSpec campaign;
  campaign.make_tuner =
      [&](std::size_t pass) -> std::unique_ptr<tuning::Tuner> {
    ConfigSpace space(t, sopts, synthetic_defaults());
    return std::make_unique<BayesTuner>(std::move(space),
                                        quick_bo(100 + pass));
  };
  campaign.make_objective =
      [&](std::size_t pass) -> std::unique_ptr<tuning::Objective> {
    return std::make_unique<SimObjective>(t, topo::paper_cluster(),
                                          quick_params(),
                                          11 + 0x632be59bd9b4e019ULL * pass);
  };
  campaign.options = quick_options(10);
  std::vector<ExperimentResult> passes;
  const ExperimentResult best = tuning::run_campaign(campaign, 1, &passes);
  ASSERT_EQ(passes.size(), 2u);
  EXPECT_GE(best.best_rep_stats.mean,
            std::min(passes[0].best_rep_stats.mean,
                     passes[1].best_rep_stats.mean));
}

TEST(Integration, WelchTTestOnRepeatedRuns) {
  // The paper's statistical methodology: compare two configurations via
  // repeated measurements and a two-sided t-test.
  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kSmall;
  const sim::Topology t = topo::build_synthetic(spec);
  sim::SimParams p = quick_params();
  p.throughput_noise_sd = 0.03;
  SimObjective obj(t, topo::paper_cluster(), p, 13);
  sim::TopologyConfig low = synthetic_defaults();
  low.parallelism_hints.assign(t.num_nodes(), 1);
  sim::TopologyConfig high = synthetic_defaults();
  high.parallelism_hints.assign(t.num_nodes(), 6);
  std::vector<double> a, b;
  for (int i = 0; i < 10; ++i) {
    a.push_back(obj.evaluate(low));
    b.push_back(obj.evaluate(high));
  }
  const TTestResult tt = welch_t_test(a, b);
  EXPECT_TRUE(tt.significant_at(0.05));
}

}  // namespace
}  // namespace stormtune
