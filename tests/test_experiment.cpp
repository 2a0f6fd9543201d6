#include "tuning/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/error.hpp"
#include "tuning/report.hpp"

namespace stormtune::tuning {
namespace {

sim::Topology demo_topology() {
  sim::Topology t;
  const auto s = t.add_spout("S", 10.0);
  const auto b = t.add_bolt("B", 20.0);
  t.connect(s, b);
  return t;
}

/// Scripted objective: returns a fixed sequence of throughputs.
class ScriptedObjective final : public Objective {
 public:
  explicit ScriptedObjective(std::vector<double> script)
      : script_(std::move(script)) {}

  double evaluate(const sim::TopologyConfig&) override {
    const double v = script_[std::min(next_, script_.size() - 1)];
    ++next_;
    return v;
  }

  std::size_t calls() const { return next_; }

 private:
  std::vector<double> script_;
  std::size_t next_ = 0;
};

/// Deterministic objective keyed on the uniform hint value.
class HintPeakObjective final : public Objective {
 public:
  double evaluate(const sim::TopologyConfig& c) override {
    const double h = static_cast<double>(c.parallelism_hints.at(0));
    return 100.0 - (h - 7.0) * (h - 7.0);  // peak at hint 7
  }
};

ExperimentOptions fast_options() {
  ExperimentOptions o;
  o.max_steps = 12;
  o.best_config_reps = 5;
  return o;
}

TEST(RunExperiment, StopsAtMaxSteps) {
  const sim::Topology t = demo_topology();
  PlaTuner pla(t, sim::TopologyConfig{}, false);
  HintPeakObjective obj;
  const ExperimentResult r = run_experiment(pla, obj, fast_options());
  EXPECT_EQ(r.trace.size(), 12u);
  EXPECT_EQ(r.strategy, "pla");
}

TEST(RunExperiment, FindsPeakOfHintObjective) {
  const sim::Topology t = demo_topology();
  PlaTuner pla(t, sim::TopologyConfig{}, false);
  HintPeakObjective obj;
  const ExperimentResult r = run_experiment(pla, obj, fast_options());
  EXPECT_DOUBLE_EQ(r.best_throughput, 100.0);
  EXPECT_EQ(r.best_step, 7u);  // hint 7 deployed at step 7
  EXPECT_EQ(r.best_config.parallelism_hints.at(0), 7);
}

TEST(RunExperiment, ZeroStreakStopsEarly) {
  // Paper protocol: stop after three consecutive zero-performance runs.
  const sim::Topology t = demo_topology();
  PlaTuner pla(t, sim::TopologyConfig{}, false);
  ScriptedObjective obj({50.0, 40.0, 0.0, 0.0, 0.0, 99.0});
  ExperimentOptions opts = fast_options();
  opts.best_config_reps = 0;
  const ExperimentResult r = run_experiment(pla, obj, opts);
  EXPECT_EQ(r.trace.size(), 5u);  // 2 positives + 3 zeros
  EXPECT_DOUBLE_EQ(r.best_throughput, 50.0);
}

TEST(RunExperiment, ZeroStreakResetsOnSuccess) {
  const sim::Topology t = demo_topology();
  PlaTuner pla(t, sim::TopologyConfig{}, false);
  ScriptedObjective obj({0.0, 0.0, 10.0, 0.0, 0.0, 20.0, 0.0, 0.0, 0.0, 9.0});
  ExperimentOptions opts = fast_options();
  opts.best_config_reps = 0;
  const ExperimentResult r = run_experiment(pla, obj, opts);
  EXPECT_EQ(r.trace.size(), 9u);  // stops after the 3-zero streak at the end
  EXPECT_DOUBLE_EQ(r.best_throughput, 20.0);
}

TEST(RunExperiment, BestConfigReevaluated) {
  const sim::Topology t = demo_topology();
  PlaTuner pla(t, sim::TopologyConfig{}, false);
  HintPeakObjective obj;
  ExperimentOptions opts = fast_options();
  opts.best_config_reps = 30;
  const ExperimentResult r = run_experiment(pla, obj, opts);
  EXPECT_EQ(r.best_rep_stats.n, 30u);
  // Deterministic objective: repetitions equal the best measurement.
  EXPECT_DOUBLE_EQ(r.best_rep_stats.mean, 100.0);
  EXPECT_DOUBLE_EQ(r.best_rep_stats.min, r.best_rep_stats.max);
}

TEST(RunExperiment, SameInputsGiveByteIdenticalJson) {
  // A result is a pure function of its inputs, with no wall-clock field:
  // two runs of the same BO campaign serialize to the same bytes.
  const sim::Topology t = demo_topology();
  sim::ClusterSpec cluster;
  cluster.num_machines = 4;
  sim::SimParams params;
  params.duration_s = 5.0;
  sim::TopologyConfig defaults = sim::uniform_hint_config(t, 2);
  defaults.batch_size = 50;
  SpaceOptions sopts;
  sopts.hint_max = 5;
  ExperimentOptions opts;
  opts.max_steps = 5;
  opts.best_config_reps = 2;
  const auto run = [&] {
    bo::BayesOptOptions bopts;
    bopts.seed = 17;
    BayesTuner tuner(ConfigSpace(t, sopts, defaults), bopts);
    SimObjective obj(t, cluster, params, 23);
    return experiment_to_json(run_experiment(tuner, obj, opts)).dump();
  };
  EXPECT_EQ(run(), run());
}

TEST(RunExperiment, TraceStepsAreSequential) {
  const sim::Topology t = demo_topology();
  PlaTuner pla(t, sim::TopologyConfig{}, false);
  HintPeakObjective obj;
  const ExperimentResult r = run_experiment(pla, obj, fast_options());
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    EXPECT_EQ(r.trace[i].step, i + 1);
  }
}

/// A campaign of PlaTuner passes over per-pass objectives from `objective`.
CampaignSpec pla_campaign(const sim::Topology& t, ObjectiveFactory objective,
                          const ExperimentOptions& options,
                          std::size_t passes = 2) {
  CampaignSpec spec;
  spec.make_tuner = [&t](std::size_t) -> std::unique_ptr<Tuner> {
    return std::make_unique<PlaTuner>(t, sim::TopologyConfig{}, false);
  };
  spec.make_objective = std::move(objective);
  spec.options = options;
  spec.passes = passes;
  return spec;
}

TEST(RunCampaign, ReturnsBetterOfTwoPasses) {
  const sim::Topology t = demo_topology();
  // Pass 0 sees a poor objective, pass 1 a better one.
  ExperimentOptions opts;
  opts.max_steps = 6;
  opts.best_config_reps = 0;
  std::vector<ExperimentResult> passes;
  const ExperimentResult best = run_campaign(
      pla_campaign(t,
                   [](std::size_t pass) -> std::unique_ptr<Objective> {
                     return std::make_unique<ScriptedObjective>(
                         std::vector<double>{pass == 0 ? 10.0 : 90.0});
                   },
                   opts),
      1, &passes);
  ASSERT_EQ(passes.size(), 2u);
  EXPECT_DOUBLE_EQ(passes[0].best_throughput, 10.0);
  EXPECT_DOUBLE_EQ(best.best_throughput, 90.0);
}

TEST(RunCampaign, RejectsZeroPasses) {
  const sim::Topology t = demo_topology();
  const CampaignSpec spec = pla_campaign(
      t,
      [](std::size_t) -> std::unique_ptr<Objective> {
        return std::make_unique<HintPeakObjective>();
      },
      fast_options(), 0);
  EXPECT_THROW(run_campaign(spec, 1), Error);
}

TEST(RunExperiment, PoolOverloadFallsBackWithoutCloneStream) {
  // HintPeakObjective does not implement clone_stream, so on the pooled
  // entry point (run_campaign over 4 workers) its repetitions continue its
  // own measurement sequence and still produce full stats.
  const sim::Topology t = demo_topology();
  const CampaignSpec spec = pla_campaign(
      t,
      [](std::size_t) -> std::unique_ptr<Objective> {
        return std::make_unique<HintPeakObjective>();
      },
      fast_options(), 1);
  const ExperimentResult r = run_campaign(spec, 4);
  EXPECT_EQ(r.best_rep_stats.n, 5u);
  EXPECT_DOUBLE_EQ(r.best_rep_stats.mean, 100.0);
}

TEST(RunCampaign, ParallelMatchesSerialSelection) {
  // With per-pass objectives whose noise differs, the campaign on two
  // workers must pick the same winner as the one-worker pass-order scan.
  const sim::Topology t = demo_topology();
  sim::ClusterSpec cluster;
  cluster.num_machines = 4;
  sim::SimParams params;
  params.duration_s = 10.0;
  ExperimentOptions opts;
  opts.max_steps = 5;
  opts.best_config_reps = 3;
  const CampaignSpec spec = pla_campaign(
      t,
      [&](std::size_t pass) -> std::unique_ptr<Objective> {
        return std::make_unique<SimObjective>(t, cluster, params,
                                              11 + pass * 101);
      },
      opts);
  std::vector<ExperimentResult> passes;
  const ExperimentResult best = run_campaign(spec, 2, &passes);
  ASSERT_EQ(passes.size(), 2u);
  EXPECT_EQ(passes[0].strategy, "pla");
  const double s0 = passes[0].best_rep_stats.mean;
  const double s1 = passes[1].best_rep_stats.mean;
  EXPECT_DOUBLE_EQ(best.best_rep_stats.mean, std::max(s0, s1));
  // Strict > means ties keep the earlier pass.
  if (s0 >= s1) {
    EXPECT_DOUBLE_EQ(best.best_rep_stats.mean, s0);
  }
  EXPECT_EQ(best.best_rep_stats.n, 3u);
  for (const ExperimentResult& pass : passes) {
    EXPECT_EQ(pass.best_rep_values.size(), 3u);
    EXPECT_EQ(pass.trace.size(), 5u);
  }
  const ExperimentResult serial = run_campaign(spec, 1);
  EXPECT_EQ(serial.best_rep_stats.mean, best.best_rep_stats.mean);
  EXPECT_EQ(serial.best_rep_values, best.best_rep_values);
}

TEST(RunCampaign, ParallelRequiresCloneStreamForReps) {
  // On a multi-worker campaign, repetition r of a cloneable objective is a
  // measurement on clone_stream(r) of that pass's objective; an objective
  // without clone_stream runs instead of throwing, continuing its own
  // sequence (see PoolOverloadFallsBackWithoutCloneStream).
  const sim::Topology t = demo_topology();
  sim::ClusterSpec cluster;
  cluster.num_machines = 4;
  sim::SimParams params;
  params.duration_s = 10.0;
  params.throughput_noise_sd = 0.05;
  ExperimentOptions opts;
  opts.max_steps = 4;
  opts.best_config_reps = 3;
  const ObjectiveFactory make_objective =
      [&](std::size_t pass) -> std::unique_ptr<Objective> {
    return std::make_unique<SimObjective>(t, cluster, params, 7 + pass * 13);
  };
  std::vector<ExperimentResult> passes;
  run_campaign(pla_campaign(t, make_objective, opts), 4, &passes);
  ASSERT_EQ(passes.size(), 2u);
  for (std::size_t pass = 0; pass < passes.size(); ++pass) {
    SCOPED_TRACE(pass);
    const std::unique_ptr<Objective> parent = make_objective(pass);
    ASSERT_EQ(passes[pass].best_rep_values.size(), 3u);
    for (std::size_t rep = 0; rep < 3; ++rep) {
      EXPECT_EQ(passes[pass].best_rep_values[rep],
                parent->clone_stream(rep)->evaluate(
                    passes[pass].best_config));
    }
  }

  const CampaignSpec uncloneable = pla_campaign(
      t,
      [](std::size_t) -> std::unique_ptr<Objective> {
        return std::make_unique<HintPeakObjective>();
      },
      opts);
  ExperimentResult r;
  EXPECT_NO_THROW(r = run_campaign(uncloneable, 4));
  EXPECT_EQ(r.best_rep_stats.n, 3u);
}

TEST(SimObjective, EvaluatesAndVariesAcrossCalls) {
  const sim::Topology t = demo_topology();
  sim::ClusterSpec cluster;
  cluster.num_machines = 4;
  sim::SimParams params;
  params.duration_s = 10.0;
  params.throughput_noise_sd = 0.05;
  SimObjective obj(t, cluster, params, 77);
  sim::TopologyConfig c = sim::uniform_hint_config(t, 2);
  c.batch_size = 50;
  const double a = obj.evaluate(c);
  const double b = obj.evaluate(c);
  EXPECT_GT(a, 0.0);
  EXPECT_GT(b, 0.0);
  EXPECT_NE(a, b);  // fresh noise seed per evaluation
  EXPECT_EQ(obj.num_evaluations(), 2u);
  EXPECT_GT(obj.last_result().batches_committed, 0u);
}

TEST(SimObjective, ReproducibleAcrossInstances) {
  const sim::Topology t = demo_topology();
  sim::ClusterSpec cluster;
  cluster.num_machines = 4;
  sim::SimParams params;
  params.duration_s = 10.0;
  SimObjective o1(t, cluster, params, 5);
  SimObjective o2(t, cluster, params, 5);
  sim::TopologyConfig c = sim::uniform_hint_config(t, 2);
  c.batch_size = 50;
  EXPECT_DOUBLE_EQ(o1.evaluate(c), o2.evaluate(c));
}

TEST(SimObjective, CloneStreamIsReproducibleAndIndependent) {
  const sim::Topology t = demo_topology();
  sim::ClusterSpec cluster;
  cluster.num_machines = 4;
  sim::SimParams params;
  params.duration_s = 10.0;
  params.throughput_noise_sd = 0.05;
  SimObjective obj(t, cluster, params, 5);
  sim::TopologyConfig c = sim::uniform_hint_config(t, 2);
  c.batch_size = 50;

  // Same stream id twice -> identical measurement; different stream ids ->
  // different noise. The parent's own evaluation counter is untouched.
  const double a0 = obj.clone_stream(0)->evaluate(c);
  const double a0_again = obj.clone_stream(0)->evaluate(c);
  const double a1 = obj.clone_stream(1)->evaluate(c);
  EXPECT_DOUBLE_EQ(a0, a0_again);
  EXPECT_NE(a0, a1);
  EXPECT_EQ(obj.num_evaluations(), 0u);
}

/// Reference objective replicating SimObjective's seed schedule but running
/// every evaluation through a fresh throwaway simulator (the free simulate()
/// entry point) instead of SimObjective's long-lived workspace. Any state
/// leaking across runs of a reused workspace would make the two diverge.
class FreshSimObjective final : public Objective {
 public:
  FreshSimObjective(sim::Topology topology, sim::ClusterSpec cluster,
                    sim::SimParams params, std::uint64_t seed)
      : topology_(std::move(topology)), cluster_(cluster), params_(params),
        seed_(seed) {}

  double evaluate(const sim::TopologyConfig& config) override {
    const std::uint64_t run_seed =
        seed_ +
        0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(++evaluations_);
    return sim::simulate(topology_, config, cluster_, params_, run_seed)
        .throughput_tuples_per_s;
  }

  std::unique_ptr<Objective> clone_stream(std::uint64_t stream) const override {
    return std::make_unique<FreshSimObjective>(
        topology_, cluster_, params_,
        seed_ ^ (0x632be59bd9b4e019ULL * (stream + 0x9e3779b97f4a7c15ULL)));
  }

 private:
  sim::Topology topology_;
  sim::ClusterSpec cluster_;
  sim::SimParams params_;
  std::uint64_t seed_;
  std::size_t evaluations_ = 0;
};

void expect_same_experiment(const ExperimentResult& a,
                            const ExperimentResult& b) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].throughput, b.trace[i].throughput) << "step " << i;
  }
  EXPECT_EQ(a.best_throughput, b.best_throughput);
  EXPECT_EQ(a.best_step, b.best_step);
  ASSERT_EQ(a.best_rep_values.size(), b.best_rep_values.size());
  for (std::size_t i = 0; i < a.best_rep_values.size(); ++i) {
    EXPECT_EQ(a.best_rep_values[i], b.best_rep_values[i]) << "rep " << i;
  }
}

TEST(SimObjective, LongLivedWorkspaceMatchesFreshPerEvaluation) {
  // A serial experiment through one long-lived SimObjective (workspace
  // reused across all evaluations) must produce the exact trace of the
  // fresh-simulator-per-evaluation reference.
  const sim::Topology t = demo_topology();
  sim::ClusterSpec cluster;
  cluster.num_machines = 4;
  sim::SimParams params;
  params.duration_s = 10.0;
  params.throughput_noise_sd = 0.05;
  const ExperimentOptions opts = fast_options();

  PlaTuner pla_a(t, sim::TopologyConfig{}, false);
  SimObjective long_lived(t, cluster, params, 21);
  const ExperimentResult a = run_experiment(pla_a, long_lived, opts);

  PlaTuner pla_b(t, sim::TopologyConfig{}, false);
  FreshSimObjective fresh(t, cluster, params, 21);
  const ExperimentResult b = run_experiment(pla_b, fresh, opts);

  expect_same_experiment(a, b);
}

TEST(RunCampaign, PooledWorkspaceReuseMatchesFreshPerEvaluation) {
  // Each pass rebinds one repetition clone (one workspace) to every
  // repetition; the result must stay identical to fresh-per-evaluation
  // objectives, for more than one thread count.
  const sim::Topology t = demo_topology();
  sim::ClusterSpec cluster;
  cluster.num_machines = 4;
  sim::SimParams params;
  params.duration_s = 10.0;
  params.throughput_noise_sd = 0.05;
  ExperimentOptions opts;
  opts.max_steps = 5;
  opts.best_config_reps = 7;

  auto run_with = [&](bool fresh, std::size_t threads) {
    std::vector<ExperimentResult> passes;
    run_campaign(
        pla_campaign(t,
                     [&](std::size_t pass) -> std::unique_ptr<Objective> {
                       const std::uint64_t seed = 11 + pass * 101;
                       if (fresh) {
                         return std::make_unique<FreshSimObjective>(
                             t, cluster, params, seed);
                       }
                       return std::make_unique<SimObjective>(t, cluster,
                                                             params, seed);
                     },
                     opts),
        threads, &passes);
    return passes;
  };

  const auto reference = run_with(/*fresh=*/true, 1);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    const auto reused = run_with(/*fresh=*/false, threads);
    ASSERT_EQ(reused.size(), reference.size());
    for (std::size_t p = 0; p < reference.size(); ++p) {
      SCOPED_TRACE(p);
      expect_same_experiment(reused[p], reference[p]);
    }
  }
}

}  // namespace
}  // namespace stormtune::tuning
