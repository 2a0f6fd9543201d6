// Cross-cutting determinism guarantees: every stochastic component must be
// bit-reproducible from its seed, because the paper's evaluation protocol
// (two optimization passes, 30-repetition re-evaluation, seed-derived noise)
// is only meaningful if campaigns can be replayed exactly.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>

#include "bayesopt/bayesopt.hpp"
#include "common/rng.hpp"
#include "stormsim/engine.hpp"
#include "topology/literature.hpp"
#include "topology/sundog.hpp"
#include "topology/synthetic.hpp"
#include "tuning/experiment.hpp"

namespace stormtune {
namespace {

TEST(Determinism, SimulatorBitIdenticalAcrossRuns) {
  const sim::Topology t = topo::build_sundog();
  sim::SimParams p = topo::sundog_sim_params();
  p.duration_s = 5.0;
  p.background_load_prob = 0.2;  // exercise the stochastic paths too
  const auto cfg = topo::sundog_baseline_config(t);
  const auto a = sim::simulate(t, cfg, topo::sundog_cluster(), p, 99);
  const auto b = sim::simulate(t, cfg, topo::sundog_cluster(), p, 99);
  EXPECT_DOUBLE_EQ(a.throughput_tuples_per_s, b.throughput_tuples_per_s);
  EXPECT_EQ(a.batches_committed, b.batches_committed);
  EXPECT_DOUBLE_EQ(a.mean_batch_latency_ms, b.mean_batch_latency_ms);
  EXPECT_DOUBLE_EQ(a.network_bytes_per_s_per_worker,
                   b.network_bytes_per_s_per_worker);
  ASSERT_EQ(a.node_stats.size(), b.node_stats.size());
  for (std::size_t v = 0; v < a.node_stats.size(); ++v) {
    EXPECT_DOUBLE_EQ(a.node_stats[v].mean_stage_ms,
                     b.node_stats[v].mean_stage_ms);
  }
}

TEST(Determinism, SimulatorSeedChangesOnlyStochasticParts) {
  topo::SyntheticSpec spec;
  const sim::Topology t = topo::build_synthetic(spec);
  sim::SimParams p = topo::synthetic_sim_params();
  p.duration_s = 5.0;
  p.throughput_noise_sd = 0.05;
  const auto cfg = sim::uniform_hint_config(t, 4);
  const auto a = sim::simulate(t, cfg, topo::paper_cluster(), p, 1);
  const auto b = sim::simulate(t, cfg, topo::paper_cluster(), p, 2);
  // The deterministic engine outcome is identical; only the measurement
  // noise differs.
  EXPECT_DOUBLE_EQ(a.noiseless_throughput, b.noiseless_throughput);
  EXPECT_NE(a.throughput_tuples_per_s, b.throughput_tuples_per_s);
}

TEST(Determinism, BayesOptIdenticalTrajectories) {
  bo::ParamSpace space({bo::ParamSpec::real("x", 0.0, 1.0),
                        bo::ParamSpec::integer("k", 1, 10)});
  bo::BayesOptOptions opts;
  opts.hyper_mode = bo::HyperMode::kSliceSample;
  opts.seed = 7;
  bo::BayesOpt a(space, opts);
  bo::BayesOpt b(space, opts);
  for (int i = 0; i < 10; ++i) {
    const auto xa = a.suggest();
    const auto xb = b.suggest();
    ASSERT_EQ(xa, xb) << "diverged at step " << i;
    const double y = xa[0] - 0.1 * xa[1];
    a.observe(xa, y);
    b.observe(xb, y);
  }
}

TEST(Determinism, BayesOptIdenticalAcrossThreadCounts) {
  // The acquisition search shards its work statically with one Rng stream
  // per shard, so the proposals must be bitwise-identical no matter how many
  // threads execute the shards. 200 candidates leave each worker several
  // scoring blocks, the last one partial.
  bo::ParamSpace space({bo::ParamSpec::real("a", 0.0, 1.0),
                        bo::ParamSpec::real("b", -2.0, 2.0),
                        bo::ParamSpec::integer("k", 1, 16)});
  for (const std::size_t candidates : {64ul, 200ul}) {
    auto run = [&](std::size_t threads) {
      bo::BayesOptOptions opts;
      opts.hyper_mode = bo::HyperMode::kSliceSample;
      opts.hyper_samples = 2;
      opts.hyper_burn_in = 3;
      opts.num_candidates = candidates;
      opts.seed = 13;
      opts.num_threads = threads;
      bo::BayesOpt opt(space, opts);
      std::vector<bo::ParamValues> trajectory;
      for (int i = 0; i < 8; ++i) {
        auto x = opt.suggest();
        trajectory.push_back(x);
        const double y = -x[0] * x[0] + 0.5 * x[1] - 0.01 * x[2];
        opt.observe(std::move(x), y);
      }
      return trajectory;
    };
    const auto one = run(1);
    const auto two = run(2);
    const auto eight = run(8);
    ASSERT_EQ(one.size(), two.size());
    ASSERT_EQ(one.size(), eight.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(one[i], two[i]) << "1 vs 2 threads diverged at step " << i
                                << ", " << candidates << " candidates";
      EXPECT_EQ(one[i], eight[i]) << "1 vs 8 threads diverged at step " << i
                                  << ", " << candidates << " candidates";
    }
  }
  // 60 real parameters and 20 observations: at one thread the local
  // search bounds its 120 neighbours and scores only those whose bound can
  // win; at 2 and 4 it scores every neighbour, a slice per worker. The
  // trajectories must not differ by a bit.
  std::vector<bo::ParamSpec> specs;
  for (int i = 0; i < 60; ++i) {
    specs.push_back(bo::ParamSpec::real("x" + std::to_string(i), 0.0, 1.0));
  }
  const bo::ParamSpace wide(specs);
  auto run = [&](std::size_t threads) {
    bo::BayesOptOptions opts;
    opts.hyper_samples = 3;
    opts.hyper_burn_in = 3;
    opts.num_candidates = 128;
    opts.seed = 29;
    opts.num_threads = threads;
    bo::BayesOpt opt(wide, opts);
    Rng rng(31);
    const auto objective = [](const bo::ParamValues& x) {
      double y = 0.0;
      for (std::size_t k = 0; k < x.size(); ++k) {
        y -= (x[k] - 0.5) * (x[k] - 0.5) * static_cast<double>(1 + k % 3);
      }
      return y;
    };
    for (int i = 0; i < 20; ++i) {
      auto x = wide.sample(rng);
      const double y = objective(x);
      opt.observe(std::move(x), y);
    }
    std::vector<bo::ParamValues> trajectory;
    for (int i = 0; i < 3; ++i) {
      auto x = opt.suggest();
      trajectory.push_back(x);
      const double y = objective(x);
      opt.observe(std::move(x), y);
    }
    return trajectory;
  };
  const auto one = run(1);
  const auto two = run(2);
  const auto four = run(4);
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], two[i]) << "60-d, 1 vs 2 threads diverged at step " << i;
    EXPECT_EQ(one[i], four[i]) << "60-d, 1 vs 4 threads diverged at step "
                               << i;
  }
}

TEST(Determinism, TopologyBuildersAreStable) {
  // All builders must produce identical structures on repeated calls (no
  // hidden global state).
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(topo::build_sundog().num_edges(), 41u);
    EXPECT_EQ(topo::build_linear_road().num_edges(), 82u);
    EXPECT_EQ(topo::build_dissemination().num_edges(), 39u);
    topo::SyntheticSpec spec;
    spec.size = topo::TopologySize::kLarge;
    EXPECT_EQ(topo::build_synthetic(spec).num_edges(), 170u);
  }
}

TEST(Determinism, CampaignReplaysExactly) {
  topo::SyntheticSpec spec;
  const sim::Topology t = topo::build_synthetic(spec);
  sim::SimParams p = topo::synthetic_sim_params();
  p.duration_s = 5.0;
  auto run_once = [&]() {
    tuning::SimObjective obj(t, topo::paper_cluster(), p, 5);
    tuning::PlaTuner pla(t, sim::TopologyConfig{}, false);
    tuning::ExperimentOptions eopts;
    eopts.max_steps = 6;
    eopts.best_config_reps = 3;
    return tuning::run_experiment(pla, obj, eopts);
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.trace[i].throughput, b.trace[i].throughput);
  }
  EXPECT_DOUBLE_EQ(a.best_rep_stats.mean, b.best_rep_stats.mean);
}

TEST(Determinism, CampaignBitIdenticalAcrossThreadCounts) {
  // run_campaign runs one strand per pass; every pass owns its tuner and
  // objective and every repetition its clone stream, so the gathered
  // ExperimentResults must be bitwise-identical for any thread count.
  topo::SyntheticSpec spec;
  const sim::Topology t = topo::build_synthetic(spec);
  sim::SimParams p = topo::synthetic_sim_params();
  p.duration_s = 2.0;
  sim::TopologyConfig defaults = sim::uniform_hint_config(t, 4);
  tuning::SpaceOptions sopts;
  sopts.hint_max = 12;
  tuning::ExperimentOptions eopts;
  eopts.max_steps = 5;
  eopts.best_config_reps = 4;

  tuning::CampaignSpec campaign;
  campaign.make_tuner =
      [&](std::size_t pass) -> std::unique_ptr<tuning::Tuner> {
    return std::make_unique<tuning::RandomTuner>(
        tuning::ConfigSpace(t, sopts, defaults), 17 + pass);
  };
  campaign.make_objective =
      [&](std::size_t pass) -> std::unique_ptr<tuning::Objective> {
    return std::make_unique<tuning::SimObjective>(t, topo::paper_cluster(), p,
                                                  5 + pass * 7919);
  };
  campaign.options = eopts;
  campaign.passes = 3;
  auto run = [&](std::size_t threads) {
    std::vector<tuning::ExperimentResult> passes;
    tuning::ExperimentResult best =
        tuning::run_campaign(campaign, threads, &passes);
    return std::make_pair(std::move(best), std::move(passes));
  };

  const auto base = run(1);
  for (const std::size_t threads : {2u, 8u}) {
    const auto other = run(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));

    auto expect_identical = [](const tuning::ExperimentResult& a,
                               const tuning::ExperimentResult& b) {
      EXPECT_EQ(a.strategy, b.strategy);
      ASSERT_EQ(a.trace.size(), b.trace.size());
      for (std::size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i].step, b.trace[i].step);
        EXPECT_EQ(a.trace[i].throughput, b.trace[i].throughput);  // exact
      }
      EXPECT_EQ(a.best_throughput, b.best_throughput);
      EXPECT_EQ(a.best_step, b.best_step);
      EXPECT_EQ(a.best_config.describe(), b.best_config.describe());
      ASSERT_EQ(a.best_rep_values.size(), b.best_rep_values.size());
      for (std::size_t i = 0; i < a.best_rep_values.size(); ++i) {
        EXPECT_EQ(a.best_rep_values[i], b.best_rep_values[i]);  // exact
      }
      EXPECT_EQ(a.best_rep_stats.mean, b.best_rep_stats.mean);
      EXPECT_EQ(a.best_rep_stats.min, b.best_rep_stats.min);
      EXPECT_EQ(a.best_rep_stats.max, b.best_rep_stats.max);
    };

    expect_identical(base.first, other.first);
    ASSERT_EQ(base.second.size(), other.second.size());
    for (std::size_t pass = 0; pass < base.second.size(); ++pass) {
      SCOPED_TRACE("pass=" + std::to_string(pass));
      expect_identical(base.second[pass], other.second[pass]);
    }
  }
}

TEST(Determinism, ParallelRepsBitIdenticalAcrossThreadCounts) {
  // Each best-config repetition runs on its own clone_stream, so the
  // repetition vector must not depend on pool size, and must match a pass
  // stepped inline by run_experiment.
  topo::SyntheticSpec spec;
  const sim::Topology t = topo::build_synthetic(spec);
  sim::SimParams p = topo::synthetic_sim_params();
  p.duration_s = 20.0;
  const sim::TopologyConfig defaults = sim::uniform_hint_config(t, 4);
  tuning::SpaceOptions sopts;
  sopts.hint_max = 12;
  tuning::ExperimentOptions eopts;
  eopts.max_steps = 4;
  eopts.best_config_reps = 6;
  tuning::CampaignSpec campaign;
  campaign.make_tuner = [&](std::size_t) -> std::unique_ptr<tuning::Tuner> {
    return std::make_unique<tuning::RandomTuner>(
        tuning::ConfigSpace(t, sopts, defaults), 17);
  };
  campaign.make_objective =
      [&](std::size_t) -> std::unique_ptr<tuning::Objective> {
    return std::make_unique<tuning::SimObjective>(t, topo::paper_cluster(), p,
                                                  5);
  };
  campaign.options = eopts;
  campaign.passes = 1;

  const auto tuner = campaign.make_tuner(0);
  const auto objective = campaign.make_objective(0);
  const auto inline_run = tuning::run_experiment(*tuner, *objective, eopts);
  ASSERT_EQ(inline_run.best_rep_values.size(), 6u);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto pooled = tuning::run_campaign(campaign, threads);
    ASSERT_EQ(pooled.best_rep_values.size(),
              inline_run.best_rep_values.size());
    for (std::size_t i = 0; i < pooled.best_rep_values.size(); ++i) {
      EXPECT_EQ(pooled.best_rep_values[i], inline_run.best_rep_values[i]);
    }
  }
}

// Engine determinism across every scheduler policy and cluster shape.
class DeterminismSweep
    : public ::testing::TestWithParam<
          std::tuple<sim::SchedulerPolicy, std::size_t>> {};

TEST_P(DeterminismSweep, EngineReproducible) {
  const auto [policy, workers_per_machine] = GetParam();
  const sim::Topology t = topo::build_linear_road_compact();
  sim::ClusterSpec cluster;
  cluster.num_machines = 6;
  cluster.workers_per_machine = workers_per_machine;
  sim::SimParams p;
  p.duration_s = 5.0;
  p.scheduler = policy;
  sim::TopologyConfig cfg = sim::uniform_hint_config(t, 3);
  cfg.batch_size = 200;
  const auto a = sim::simulate(t, cfg, cluster, p, 42);
  const auto b = sim::simulate(t, cfg, cluster, p, 42);
  EXPECT_DOUBLE_EQ(a.throughput_tuples_per_s, b.throughput_tuples_per_s);
  EXPECT_GT(a.throughput_tuples_per_s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndShapes, DeterminismSweep,
    ::testing::Combine(::testing::Values(sim::SchedulerPolicy::kRoundRobin,
                                         sim::SchedulerPolicy::kRandom,
                                         sim::SchedulerPolicy::kLoadAware),
                       ::testing::Values(1u, 2u, 4u)));

}  // namespace
}  // namespace stormtune
