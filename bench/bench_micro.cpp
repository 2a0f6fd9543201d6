// Micro-benchmarks (google-benchmark) of the performance-critical kernels:
// the discrete-event engine, Cholesky factorization, GP fitting/prediction,
// acquisition evaluation, and a full optimizer suggestion step. These back
// Figure 7's scalability claims with component-level numbers.
//
// The committed BENCH_micro.json record is this binary's own JSON output
// under repetitions (median, stddev and cv per row, host and build in the
// context block):
//
//   bench_micro --benchmark_repetitions=5
//       --benchmark_report_aggregates_only=true
//       --benchmark_out=BENCH_micro.json --benchmark_out_format=json
//       --benchmark_context=git_sha=$(git rev-parse --short=12 HEAD)
#include <benchmark/benchmark.h>

#include <chrono>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bayesopt/bayesopt.hpp"
#include "common/isa.hpp"
#include "detlint/analyze.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gp/gp_regressor.hpp"
#include "linalg/kernels.hpp"
#include "stormsim/engine.hpp"
#include "stormsim/fluid.hpp"
#include "topology/sundog.hpp"
#include "topology/synthetic.hpp"
#include "tuning/campaign_scheduler.hpp"
#include "tuning/experiment.hpp"
#include "tuning/fidelity.hpp"
#include "tuning/objective.hpp"
#include "tuning/tuner.hpp"

namespace {

using namespace stormtune;

Matrix random_spd(std::size_t n, Rng& rng) {
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  }
  Matrix a = b.multiply(b.transposed());
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

void BM_Cholesky(benchmark::State& state) {
  // refactor() in the loop, the way the hyperparameter refit path uses it:
  // buffers are allocated once, so this measures the blocked factorization
  // kernel itself, not allocation + first-touch (which the old
  // construct-per-iteration variant was dominated by).
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = random_spd(n, rng);
  Cholesky chol(a);
  double scale = 1.0;
  for (auto _ : state) {
    scale = scale == 1.0 ? 1.5 : 1.0;  // force a genuine refactor each time
    chol.refactor(a, scale, 0.0);
    benchmark::DoNotOptimize(chol.lower_at(n - 1, n - 1));
  }
}
BENCHMARK(BM_Cholesky)->Arg(32)->Arg(64)->Arg(128);

void BM_CholeskyDowndate(benchmark::State& state) {
  // One sliding-window step at constant size n: rotate the oldest row out
  // of the factor (remove_row, the O(n^2) Givens downdate) and rank-grow a
  // fresh row back in (append_row). Window rows are drawn from one large
  // SPD master matrix, so every window is a principal submatrix and always
  // factorizable. Compare against BM_Cholesky at the same n: the pair must
  // stay well under a full refactor, with the downdate itself within ~2x
  // of the append.
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = n + 256;  // master pool; windows wrap around it
  Rng rng(2);
  const Matrix master = random_spd(m, rng);
  std::vector<std::size_t> active(n);
  for (std::size_t i = 0; i < n; ++i) active[i] = i;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = master(i, j);
  }
  Cholesky chol(a);
  chol.reserve(n + 1);
  std::vector<double> b(n);
  for (auto _ : state) {
    chol.remove_row(0);
    active.erase(active.begin());
    const std::size_t next = (active.back() + 1) % m;
    b.resize(n - 1);
    for (std::size_t i = 0; i + 1 < n; ++i) b[i] = master(active[i], next);
    chol.append_row(b, master(next, next));
    active.push_back(next);
    benchmark::DoNotOptimize(chol.lower_at(n - 1, n - 1));
  }
}
BENCHMARK(BM_CholeskyDowndate)->Arg(32)->Arg(64)->Arg(128);

void BM_TriSolveMultiRhs(benchmark::State& state) {
  // Forward + backward multi-RHS substitution over a 120-point factor with
  // range(0) right-hand sides — GpRegressor's chunked prediction kernel.
  const std::size_t n = 120;
  const auto m = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  const Matrix a = random_spd(n, rng);
  const Cholesky chol(a);
  Matrix v(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < m; ++r) v(i, r) = rng.normal();
  }
  Matrix work(n, m);
  for (auto _ : state) {
    work = v;
    chol.solve_lower_multi_in_place(work);
    chol.solve_lower_transpose_multi_in_place(work);
    benchmark::DoNotOptimize(work(n - 1, m - 1));
  }
}
// 202 = 2·101, the local-search neighbourhood width on the 100-parameter
// topologies.
BENCHMARK(BM_TriSolveMultiRhs)->Arg(1)->Arg(16)->Arg(202)->Arg(256);

void BM_GpFitAndPredict(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t d = 10;
  Rng rng(2);
  Matrix x(n, d);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) x(i, j) = rng.uniform();
    y[i] = rng.normal();
  }
  gp::Kernel kernel(gp::KernelFamily::kMatern52, d, false);
  gp::GpRegressor gp(kernel, 1e-3);
  std::vector<double> q(d, 0.5);
  for (auto _ : state) {
    gp.fit(x, y);
    benchmark::DoNotOptimize(gp.predict(q));
  }
}
BENCHMARK(BM_GpFitAndPredict)->Arg(30)->Arg(60)->Arg(120);

void BM_GpPredictBatch(benchmark::State& state) {
  // Batched prediction over `range(0)` query points against a 60-point fit:
  // the acquisition search's inner workload. Chunked multi-RHS forward
  // substitution is what makes this faster than per-point predict() calls.
  const std::size_t n = 60;
  const std::size_t d = 51;
  const auto m = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  Matrix x(n, d);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) x(i, j) = rng.uniform();
    y[i] = rng.normal();
  }
  gp::Kernel kernel(gp::KernelFamily::kMatern52, d, false);
  gp::GpRegressor gp(kernel, 1e-3);
  gp.fit(x, y);
  Matrix q(m, d);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < d; ++j) q(i, j) = rng.uniform();
  }
  std::vector<gp::Prediction> out;
  for (auto _ : state) {
    gp.predict_batch(q, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_GpPredictBatch)->Arg(16)->Arg(256)->Arg(1024);

void BM_SqDistRows(benchmark::State& state) {
  // Unscaled squared distances from 512 candidates to a 100-point history
  // in 101 dimensions: the bo100-large candidates, scored as the
  // acquisition search does, one 64-candidate training-point-major block
  // at a time.
  const std::size_t n = 100;
  const std::size_t d = 101;
  const std::size_t m = 512;
  Rng rng(6);
  Matrix x(n, d);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) x(i, j) = rng.uniform();
    y[i] = rng.normal();
  }
  gp::Kernel kernel(gp::KernelFamily::kMatern52, d, false);
  gp::GpRegressor gp(kernel, 1e-3);
  gp.fit(x, y);
  constexpr std::size_t kBlock = 64;
  const std::size_t ld = linalg_kernels::padded_ld(kBlock);
  std::vector<Matrix> blocks;  // candidates transposed, one per block
  for (std::size_t b = 0; b < m; b += kBlock) {
    Matrix& qt = blocks.emplace_back(d, ld);
    for (std::size_t k = 0; k < d; ++k) {
      for (std::size_t c = 0; c < kBlock; ++c) qt(k, c) = rng.uniform();
    }
  }
  std::vector<double> d2t(n * ld);
  for (auto _ : state) {
    for (const Matrix& qt : blocks) {
      gp.unscaled_sq_dist_block(qt.data(), ld, kBlock, d2t.data(), ld);
      benchmark::DoNotOptimize(d2t.data());
      benchmark::ClobberMemory();
    }
  }
}
BENCHMARK(BM_SqDistRows);

void BM_GpHyperRefitLoop(benchmark::State& state) {
  // The slice sampler's inner loop: refit the same X/y under a sweep of
  // hyperparameter settings. The layered distance/correlation caches are
  // what this measures — every iteration is a warm refit.
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t d = 51;
  Rng rng(6);
  Matrix x(n, d);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) x(i, j) = rng.uniform();
    y[i] = rng.normal();
  }
  gp::Kernel kernel(gp::KernelFamily::kMatern52, d, false);
  gp::GpRegressor gp(kernel, 1e-3);
  gp.fit(x, y);
  std::vector<double> log_params(kernel.num_hyperparams(), 0.0);
  std::size_t coord = 0;
  for (auto _ : state) {
    // Perturb one coordinate at a time, like a slice-sampling sweep.
    log_params[coord % log_params.size()] = 0.1 * rng.normal();
    ++coord;
    gp.set_kernel_hyperparams(log_params);
    gp.fit(x, y);
    benchmark::DoNotOptimize(gp.log_marginal_likelihood());
  }
}
BENCHMARK(BM_GpHyperRefitLoop)->Arg(30)->Arg(60)->Arg(120);

void BM_AcquisitionSearch(benchmark::State& state, std::size_t dims) {
  // maximize_acquisition in isolation: candidate generation, batched
  // per-GP scoring, and local refinement, with the surrogate held fixed.
  // Measured through suggest() on a kFixed surrogate so no MCMC time is
  // included; the kept-surrogate reuse path makes every iteration after the
  // first skip the fit entirely. range(0) observations in `dims`
  // dimensions.
  std::vector<bo::ParamSpec> specs;
  for (std::size_t i = 0; i < dims; ++i) {
    specs.push_back(bo::ParamSpec::integer("h" + std::to_string(i), 1, 20));
  }
  bo::BayesOptOptions opts;
  opts.hyper_mode = bo::HyperMode::kFixed;
  opts.num_candidates = 256;
  opts.seed = 7;
  bo::BayesOpt opt(bo::ParamSpace(specs), opts);
  Rng rng(8);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    auto x = opt.space().sample(rng);
    opt.observe(std::move(x), rng.normal());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt.suggest());
  }
}
// The medium topology's 51 hints.
void BM_AcquisitionSearch(benchmark::State& state) {
  BM_AcquisitionSearch(state, 51);
}
BENCHMARK(BM_AcquisitionSearch)->Arg(60)->Unit(benchmark::kMillisecond);
// bo100-large's shape: 101 hints, where the local search's 202 neighbours
// are bounded before scoring (DESIGN.md §8, "Bounded local search").
BENCHMARK_CAPTURE(BM_AcquisitionSearch, d101, 101)->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_AcquisitionBatch(benchmark::State& state) {
  // The per-batch acquisition accumulation in isolation: one
  // acquisition_accumulate call over a 256-candidate mean/variance batch
  // (the surrogate's per-GP scoring step), for each acquisition kind via
  // range(0). This is the loop the batched-scoring rework hoisted the
  // per-candidate kind dispatch out of.
  const auto kind = static_cast<bo::AcquisitionKind>(state.range(0));
  const std::size_t m = 256;
  Rng rng(11);
  std::vector<double> means(m), vars(m), acc(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    means[i] = rng.normal();
    vars[i] = 0.5 + rng.uniform();
  }
  for (auto _ : state) {
    bo::acquisition_accumulate(kind, means, vars, 0.8, 0.0, 2.0, acc);
    benchmark::DoNotOptimize(acc.data());
  }
}
BENCHMARK(BM_AcquisitionBatch)->Arg(0)->Arg(1)->Arg(2);

topo::TopologySize size_for_vertices(std::int64_t vertices) {
  switch (vertices) {
    case 10: return topo::TopologySize::kSmall;
    case 50: return topo::TopologySize::kMedium;
    default: return topo::TopologySize::kLarge;
  }
}

void BM_Simulate(benchmark::State& state) {
  // One 15 s objective evaluation on the paper's 10/50/100-vertex
  // synthetic topologies — the unit of work every campaign repeats
  // passes x steps x repetitions times.
  topo::SyntheticSpec spec;
  spec.size = size_for_vertices(state.range(0));
  const sim::Topology topology = topo::build_synthetic(spec);
  sim::SimParams params = topo::synthetic_sim_params();
  params.duration_s = 15.0;
  const sim::TopologyConfig config = sim::uniform_hint_config(topology, 8);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto r = sim::simulate(topology, config, topo::paper_cluster(),
                                 params, seed++);
    benchmark::DoNotOptimize(r.throughput_tuples_per_s);
  }
}
BENCHMARK(BM_Simulate)->Arg(10)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_EngineSundogRun(benchmark::State& state) {
  const sim::Topology topology = topo::build_sundog();
  sim::SimParams params = topo::sundog_sim_params();
  params.duration_s = 15.0;
  const auto config = topo::sundog_baseline_config(topology);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto r = sim::simulate(topology, config, topo::sundog_cluster(),
                                 params, seed++);
    benchmark::DoNotOptimize(r.batches_committed);
  }
}
BENCHMARK(BM_EngineSundogRun)->Unit(benchmark::kMillisecond);

void BM_Campaign(benchmark::State& state) {
  // A reduced-scale run_campaign (2 passes of random search on the medium
  // topology plus best-config repetitions), one strand per pass on a pool
  // of range(0) workers (0 = auto). Random search keeps BO out of the
  // loop, so this measures the engine + pass state machine + pool. The
  // result is bit-identical for any thread count.
  const std::size_t threads = state.range(0) > 0
                                  ? static_cast<std::size_t>(state.range(0))
                                  : default_thread_count();
  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kMedium;
  const sim::Topology topology = topo::build_synthetic(spec);
  sim::SimParams params = topo::synthetic_sim_params();
  params.duration_s = 5.0;
  sim::TopologyConfig defaults = sim::uniform_hint_config(topology, 4);
  tuning::SpaceOptions sopts;
  sopts.hint_max = 20;
  tuning::ExperimentOptions eopts;
  eopts.max_steps = 6;
  eopts.best_config_reps = 8;
  tuning::CampaignSpec campaign;
  campaign.make_tuner =
      [&](std::size_t pass) -> std::unique_ptr<tuning::Tuner> {
    return std::make_unique<tuning::RandomTuner>(
        tuning::ConfigSpace(topology, sopts, defaults), 101 + pass);
  };
  campaign.make_objective =
      [&](std::size_t pass) -> std::unique_ptr<tuning::Objective> {
    return std::make_unique<tuning::SimObjective>(
        topology, topo::paper_cluster(), params, 7 + pass * 7919);
  };
  campaign.options = eopts;
  for (auto _ : state) {
    const auto best = tuning::run_campaign(campaign, threads);
    benchmark::DoNotOptimize(best.best_rep_stats.mean);
  }
}
BENCHMARK(BM_Campaign)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_ObjectiveRepeat(benchmark::State& state) {
  // Repeated evaluations through ONE long-lived SimObjective — the campaign
  // driver's steady state. The persistent workspace makes every run after
  // the first allocation-free; contrast with BM_Simulate, whose free
  // simulate() calls rebuild the workspace each time.
  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kMedium;
  const sim::Topology topology = topo::build_synthetic(spec);
  sim::SimParams params = topo::synthetic_sim_params();
  params.duration_s = 5.0;
  const sim::TopologyConfig config = sim::uniform_hint_config(topology, 8);
  tuning::SimObjective objective(topology, topo::paper_cluster(), params, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(objective.evaluate(config));
  }
}
BENCHMARK(BM_ObjectiveRepeat)->Unit(benchmark::kMillisecond);

/// The Figure-5-shaped campaign workload of BM_CampaignEndToEnd: passes x
/// steps x best-config repetitions of the small paper topology through run_campaign, with
/// random search so evaluation (not suggestion) dominates.
/// Short measurement windows on a small topology put the workload in the
/// regime campaigns actually live in — many cheap evaluations, where the
/// per-evaluation fixed cost (deployment build, allocation churn) is the
/// bottleneck the reusable workspaces remove.
double run_campaign_workload(const sim::Topology& topology,
                             std::size_t threads) {
  sim::SimParams params = topo::synthetic_sim_params();
  params.duration_s = 2.0;
  sim::TopologyConfig defaults = sim::uniform_hint_config(topology, 4);
  // 50-tuple batches: at bench-scale windows the small topology's default
  // 200-tuple batches never commit (see tests/test_adaptive_window.cpp).
  defaults.batch_size = 50;
  tuning::SpaceOptions sopts;
  sopts.hint_max = 8;
  tuning::ExperimentOptions eopts;
  eopts.max_steps = 10;
  // best_config_reps stays at the paper's protocol (30 re-runs of the best
  // configuration per pass) — the repetition phase is where campaigns spend
  // most of their evaluations.
  tuning::CampaignSpec campaign;
  campaign.make_tuner =
      [&](std::size_t pass) -> std::unique_ptr<tuning::Tuner> {
    return std::make_unique<tuning::RandomTuner>(
        tuning::ConfigSpace(topology, sopts, defaults), 101 + pass);
  };
  campaign.make_objective =
      [&](std::size_t pass) -> std::unique_ptr<tuning::Objective> {
    return std::make_unique<tuning::SimObjective>(
        topology, topo::paper_cluster(), params, 7 + pass * 7919);
  };
  campaign.options = eopts;
  return tuning::run_campaign(campaign, threads).best_rep_stats.mean;
}

void BM_CampaignEndToEnd(benchmark::State& state) {
  // Full campaign evaluation path (2 passes x 10 random steps x 30 reps on
  // the small topology, 2 s windows) over range(0) pool threads (0 =
  // auto). Workspace reuse — SimObjective's persistent simulator plus each
  // pass's rebound repetition clone — is what this measures.
  const std::size_t threads = state.range(0) > 0
                                  ? static_cast<std::size_t>(state.range(0))
                                  : default_thread_count();
  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kSmall;
  const sim::Topology topology = topo::build_synthetic(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_campaign_workload(topology, threads));
  }
}
BENCHMARK(BM_CampaignEndToEnd)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

/// The multi-campaign scheduler workload: `campaigns` independent
/// reduced-scale campaigns (2 passes x 6 random steps x 8 reps each, 1 s
/// windows on the small topology) multiplexed over a work-stealing pool of
/// `threads` workers. Aggregate throughput across campaigns is the number
/// that matters — per-campaign results are bit-identical to solo runs for
/// any thread count, so the sum is too.
double run_multi_campaign_workload(const sim::Topology& topology,
                                   std::size_t campaigns,
                                   std::size_t threads,
                                   std::uint64_t& steals) {
  sim::SimParams params = topo::synthetic_sim_params();
  params.duration_s = 1.0;
  sim::TopologyConfig defaults = sim::uniform_hint_config(topology, 4);
  defaults.batch_size = 50;
  tuning::SpaceOptions sopts;
  sopts.hint_max = 8;
  std::vector<tuning::CampaignSpec> specs(campaigns);
  for (std::size_t c = 0; c < campaigns; ++c) {
    tuning::CampaignSpec& spec = specs[c];
    spec.name = "c" + std::to_string(c);
    spec.passes = 2;
    spec.options.max_steps = 6;
    spec.options.best_config_reps = 8;
    spec.make_tuner =
        [&topology, &sopts, &defaults, c](std::size_t pass)
        -> std::unique_ptr<tuning::Tuner> {
      return std::make_unique<tuning::RandomTuner>(
          tuning::ConfigSpace(topology, sopts, defaults),
          101 + c * 131 + pass);
    };
    spec.make_objective =
        [&topology, params, c](std::size_t pass)
        -> std::unique_ptr<tuning::Objective> {
      return std::make_unique<tuning::SimObjective>(
          topology, topo::paper_cluster(), params,
          7 + c * 263 + pass * 7919);
    };
  }
  tuning::CampaignSchedulerOptions opts;
  opts.num_threads = threads;
  const auto out = tuning::run_campaigns(specs, opts);
  steals = out.steal_count;
  double sum = 0.0;
  for (const auto& r : out.results) sum += r.best_rep_stats.mean;
  return sum;
}

void BM_MultiCampaign(benchmark::State& state) {
  // 8 concurrent campaigns over range(0) scheduler threads; Arg(1) is the
  // serial baseline the >=3x-at-8-threads aggregate-throughput target is
  // measured against (the campaigns are fully independent, so the speedup
  // tracks available cores — a single-core host shows ~1x plus the steal
  // overhead). Results are bit-identical across the args. The steals
  // counter (mean per workload run; a serial pool has none to report) makes
  // such a host visible in the record: a zero-steal Arg(8) row means
  // everything ran on one core.
  const auto threads = static_cast<std::size_t>(state.range(0));
  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kSmall;
  const sim::Topology topology = topo::build_synthetic(spec);
  double steals = 0.0;
  for (auto _ : state) {
    std::uint64_t run_steals = 0;
    benchmark::DoNotOptimize(
        run_multi_campaign_workload(topology, 8, threads, run_steals));
    steals += static_cast<double>(run_steals);
  }
  if (threads > 1) {
    state.counters["steals"] =
        benchmark::Counter(steals, benchmark::Counter::kAvgIterations);
  }
}
BENCHMARK(BM_MultiCampaign)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

/// Proposes one fixed configuration, then stops: a pass of one evaluation
/// followed by its best-config repetitions.
class FixedConfigTuner final : public tuning::Tuner {
 public:
  explicit FixedConfigTuner(sim::TopologyConfig config)
      : config_(std::move(config)) {}

  std::optional<sim::TopologyConfig> next() override {
    if (proposed_) return std::nullopt;
    proposed_ = true;
    return config_;
  }
  void report(const sim::TopologyConfig&, double) override {}
  std::string name() const override { return "fixed"; }

 private:
  sim::TopologyConfig config_;
  bool proposed_ = false;
};

void BM_BestConfigReps(benchmark::State& state) {
  // One pass's repetition phase at the paper's protocol: 30 re-runs of the
  // best configuration, 15 s windows on the medium topology. The pass
  // evaluates its one configuration first, then repeats it on one clone of
  // the objective, rebound to each repetition's stream. With range(0) == 0
  // (default SimParams) a run's seed draws only its noise, so every
  // repetition replays that first run; range(0) == 1 turns on background
  // load, whose per-machine draws make each run depend on its seed, and all
  // 31 runs simulate.
  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kMedium;
  const sim::Topology topology = topo::build_synthetic(spec);
  sim::SimParams params = topo::synthetic_sim_params();
  params.duration_s = 15.0;
  if (state.range(0) != 0) params.background_load_prob = 0.3;
  const sim::TopologyConfig config = sim::uniform_hint_config(topology, 8);
  tuning::ExperimentOptions options;
  options.max_steps = 1;
  options.best_config_reps = 30;
  for (auto _ : state) {
    FixedConfigTuner tuner(config);
    tuning::SimObjective objective(topology, topo::paper_cluster(), params, 7);
    const auto r = tuning::run_experiment(tuner, objective, options);
    benchmark::DoNotOptimize(r.best_rep_stats.mean);
  }
}
BENCHMARK(BM_BestConfigReps)->Arg(0)->Arg(1)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_FluidEstimate(benchmark::State& state) {
  // The rung-0 screen of the fidelity ladder: one closed-form fluid bound
  // through a persistent workspace (allocation-free after warm-up), over
  // the three synthetic topology sizes.
  topo::SyntheticSpec spec;
  spec.size = size_for_vertices(state.range(0));
  const sim::Topology topology = topo::build_synthetic(spec);
  const sim::SimParams params = topo::synthetic_sim_params();
  const sim::ClusterSpec cluster = topo::paper_cluster();
  sim::TopologyConfig config = sim::uniform_hint_config(topology, 4);
  config.batch_size = 50;
  sim::FluidWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::fluid_estimate(topology, config, cluster, params, ws)
            .throughput_tuples_per_s);
  }
}
BENCHMARK(BM_FluidEstimate)->Arg(10)->Arg(50)->Arg(100);

/// The fidelity-comparison workload: `steps` Bayesian-optimization
/// iterations on the medium paper topology with the paper's full 120 s
/// measurement windows, fixed GP hyperparameters, and a single best-config
/// repetition — the regime where evaluation cost dominates (as on a real
/// cluster, where one measurement takes minutes) and the ladder's
/// shortened rung-1 windows pay off. Campaign length matters: the first
/// escalations (building an incumbent) are paid up front, so the ladder's
/// advantage grows with step count — 64 steps matches the paper's
/// 60-100-iteration Spearmint protocol.
/// `ladder` switches the evaluation side between a plain full-fidelity
/// objective and the multi-fidelity ladder.
double run_fidelity_workload(const sim::Topology& topology, bool ladder,
                             std::size_t steps) {
  const sim::SimParams params = topo::synthetic_sim_params();
  sim::TopologyConfig defaults = sim::uniform_hint_config(topology, 4);
  defaults.batch_size = 50;
  tuning::SpaceOptions sopts;
  sopts.hint_max = 8;
  bo::BayesOptOptions bopts;
  bopts.seed = 5;
  bopts.hyper_mode = bo::HyperMode::kFixed;
  tuning::ExperimentOptions eopts;
  eopts.max_steps = steps;
  eopts.best_config_reps = 1;
  if (ladder) {
    auto l = std::make_shared<tuning::FidelityLadder>(
        topology, topo::paper_cluster(), params, 7);
    tuning::LadderTuner tuner(tuning::ConfigSpace(topology, sopts, defaults),
                              bopts, l);
    return tuning::run_experiment(tuner, *l, eopts).best_throughput;
  }
  tuning::BayesTuner tuner(tuning::ConfigSpace(topology, sopts, defaults),
                           bopts, "bo");
  tuning::SimObjective objective(topology, topo::paper_cluster(), params, 7);
  return tuning::run_experiment(tuner, objective, eopts).best_throughput;
}

void BM_FidelityLadder(benchmark::State& state) {
  // range(0): 0 = full-fidelity baseline, 1 = multi-fidelity ladder. The
  // evals/s acceptance target (ladder >= 5x full) compares these two rows.
  const bool ladder = state.range(0) == 1;
  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kMedium;
  const sim::Topology topology = topo::build_synthetic(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_fidelity_workload(topology, ladder, 64));
  }
}
BENCHMARK(BM_FidelityLadder)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_BayesOptSuggest(benchmark::State& state, std::size_t dims,
                        std::size_t samples) {
  // Figure 7's unit of work: one suggestion given `range(0)`-many
  // observations in a `dims`-dimensional space with `samples` slice-sampled
  // GPs.
  std::vector<bo::ParamSpec> specs;
  for (std::size_t i = 0; i < dims; ++i) {
    specs.push_back(bo::ParamSpec::integer("h" + std::to_string(i), 1, 20));
  }
  bo::BayesOptOptions opts;
  opts.hyper_mode = bo::HyperMode::kSliceSample;
  opts.hyper_samples = samples;
  opts.hyper_burn_in = 5;
  opts.num_candidates = 256;
  opts.seed = 3;
  bo::BayesOpt opt(bo::ParamSpace(specs), opts);
  Rng rng(4);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    auto x = opt.space().sample(rng);
    opt.observe(std::move(x), rng.normal());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt.suggest());
  }
}

// The medium topology's 51 hints with three samples.
void BM_BayesOptSuggest(benchmark::State& state) {
  BM_BayesOptSuggest(state, 51, 3);
}
BENCHMARK(BM_BayesOptSuggest)->Arg(10)->Arg(30)->Arg(60)
    ->Unit(benchmark::kMillisecond);
// bo100-large's shape: the large topology's 101 hints, five samples; 100
// observations is the history at which that workload's surrogate peaks.
BENCHMARK_CAPTURE(BM_BayesOptSuggest, d101_s5, 101, 5)->Arg(60)->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_SlidingWindowSuggest(benchmark::State& state) {
  // BM_BayesOptSuggest with a bounded observation window: range(0) is the
  // total history length, the surrogate window stays at 60, so per-step
  // cost must be flat from 60 to 500 (unwindowed suggest grows with n³).
  // Each iteration observes one new point and then suggests, so the
  // steady-state eviction + incremental slide + warm hyper-refit path is
  // what gets measured, not a cached no-op re-suggest.
  const std::size_t dims = 51;
  std::vector<bo::ParamSpec> specs;
  for (std::size_t i = 0; i < dims; ++i) {
    specs.push_back(bo::ParamSpec::integer("h" + std::to_string(i), 1, 20));
  }
  bo::BayesOptOptions opts;
  opts.hyper_mode = bo::HyperMode::kSliceSample;
  opts.hyper_samples = 3;
  opts.hyper_burn_in = 5;
  opts.num_candidates = 256;
  opts.seed = 3;
  opts.max_observations = 60;
  bo::BayesOpt opt(bo::ParamSpace(specs), opts);
  Rng rng(4);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    auto x = opt.space().sample(rng);
    opt.observe(std::move(x), rng.normal());
  }
  for (auto _ : state) {
    auto x = opt.space().sample(rng);
    opt.observe(std::move(x), rng.normal());
    benchmark::DoNotOptimize(opt.suggest());
  }
}
BENCHMARK(BM_SlidingWindowSuggest)->Arg(60)->Arg(150)->Arg(500)
    ->Unit(benchmark::kMillisecond);

void BM_DetlintAnalyze(benchmark::State& state) {
  // Lint-cost guard: detlint v2 runs in CI on every push, so full-tree
  // analysis (lex + function extraction + call graph + all rule families
  // over src/ and tools/) must stay interactive. The 10 s ceiling is
  // generous — the analysis takes well under a second — so only a
  // complexity regression (e.g. the call-graph walk going superlinear)
  // trips it, not machine noise.
  detlint::AnalyzeOptions options;
  options.root = STORMTUNE_SOURCE_DIR;
  options.paths = {"src", "tools"};
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    detlint::Analysis analysis = detlint::analyze_tree(options);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (analysis.tus.size() < 50) {
      state.SkipWithError("detlint analyzed suspiciously few files");
      break;
    }
    if (seconds > 10.0) {
      state.SkipWithError("detlint full-tree analysis exceeded 10 s");
      break;
    }
    benchmark::DoNotOptimize(analysis.findings.data());
  }
}
BENCHMARK(BM_DetlintAnalyze)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Provenance of the code under measurement, written into the JSON
  // context block next to google-benchmark's host fields (num_cpus, MHz,
  // caches, load). gbench's own library_build_type describes the installed
  // benchmark library, not this build.
  benchmark::AddCustomContext(
      "isa", stormtune::isa::to_string(stormtune::isa::selected()));
  benchmark::AddCustomContext("compiler", __VERSION__);
  benchmark::AddCustomContext("build_type", STORMTUNE_BUILD_TYPE);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
