// Ablation: acquisition function (EI vs PI vs UCB).
//
// The paper uses Expected Improvement because "it provides a good tradeoff
// between exploration and exploitation and it is the method implemented in
// Spearmint" (Section III-C), naming PI and GP-UCB as the other common
// choices. This bench runs all three on the Sundog batch-parameter space
// and on a synthetic cell, with identical budgets and seeds.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "topology/sundog.hpp"

int main(int argc, char** argv) {
  using namespace stormtune;
  const bench::Args args = bench::Args::parse(argc, argv);
  std::printf("== Ablation: acquisition function (EI / PI / UCB) ==\n(%s)\n\n",
              args.describe().c_str());

  TextTable t({"Workload", "Acquisition", "Mean tuples/s", "Best step"});

  const auto acquisitions = {bo::AcquisitionKind::kExpectedImprovement,
                             bo::AcquisitionKind::kProbabilityOfImprovement,
                             bo::AcquisitionKind::kUpperConfidenceBound};

  // Workload 1: Sundog batch+concurrency space (hints fixed).
  {
    const sim::Topology topology = topo::build_sundog();
    sim::SimParams params = topo::sundog_sim_params();
    params.duration_s = args.duration_s;
    for (const auto acq : acquisitions) {
      const auto best = bench::run_bench_campaign(
          args,
          [&](std::size_t pass) {
            tuning::SpaceOptions sopts;
            sopts.tune_hints = false;
            sopts.tune_batch = true;
            sopts.tune_concurrency = true;
            tuning::ConfigSpace space(
                topology, sopts, topo::sundog_baseline_config(topology, 11));
            bo::BayesOptOptions bopts = bench::bench_bo_options(
                args.seed * 17 + pass + static_cast<std::uint64_t>(acq));
            bopts.acquisition = acq;
            return std::make_unique<tuning::BayesTuner>(
                std::move(space), bopts, "bo." + bo::to_string(acq));
          },
          bench::sim_objective_factory(topology, topo::sundog_cluster(),
                                       params, args.seed + 1),
          bench::experiment_options(args, "bo"));
      t.add_row({"sundog bs_bp_cc", bo::to_string(acq),
                 bench::format_rate(best.best_rep_stats.mean),
                 std::to_string(best.best_step)});
      std::fprintf(stderr, "[ablation-acq] sundog %s done\n",
                   bo::to_string(acq).c_str());
    }
  }

  // Workload 2: medium synthetic topology with time imbalance (a cell
  // where hint placement has real headroom).
  {
    topo::SyntheticSpec spec;
    spec.size = topo::TopologySize::kMedium;
    spec.time_imbalance = true;
    const sim::Topology topology = topo::build_synthetic(spec);
    sim::SimParams params = topo::synthetic_sim_params();
    params.duration_s = args.duration_s;
    for (const auto acq : acquisitions) {
      const auto best = bench::run_bench_campaign(
          args,
          [&](std::size_t pass) {
            tuning::SpaceOptions sopts;
            sopts.hint_max = 20;
            tuning::ConfigSpace space(topology, sopts,
                                      bench::synthetic_defaults());
            bo::BayesOptOptions bopts = bench::bench_bo_options(
                args.seed * 19 + pass + static_cast<std::uint64_t>(acq));
            bopts.acquisition = acq;
            return std::make_unique<tuning::BayesTuner>(
                std::move(space), bopts, "bo." + bo::to_string(acq));
          },
          bench::sim_objective_factory(topology, topo::paper_cluster(),
                                       params, args.seed + 2),
          bench::experiment_options(args, "bo"));
      t.add_row({"medium/TiIm100", bo::to_string(acq),
                 bench::format_rate(best.best_rep_stats.mean),
                 std::to_string(best.best_step)});
      std::fprintf(stderr, "[ablation-acq] medium %s done\n",
                   bo::to_string(acq).c_str());
    }
  }

  std::printf("%s", t.render().c_str());
  return 0;
}
