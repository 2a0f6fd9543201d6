// Ablation: GP hyperparameter handling — MCMC marginalization (slice
// sampling, Spearmint's scheme), point MAP estimation, and fixed defaults.
//
// Marginalization is what makes Spearmint robust on noisy objectives; the
// MAP point estimate is cheaper per step but can lock onto wrong
// lengthscales early; fixed hyperparameters are the degenerate baseline.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace stormtune;
  const bench::Args args = bench::Args::parse(argc, argv);
  std::printf("== Ablation: hyperparameter handling (slice / mle / fixed) ==\n"
              "(%s)\n\n",
              args.describe().c_str());

  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kMedium;
  spec.time_imbalance = true;
  const sim::Topology topology = topo::build_synthetic(spec);
  sim::SimParams params = topo::synthetic_sim_params();
  params.duration_s = args.duration_s;

  TextTable t({"Hyper mode", "Mean tuples/s", "Best step", "Avg step (s)"});

  for (const auto mode : {bo::HyperMode::kSliceSample, bo::HyperMode::kMle,
                          bo::HyperMode::kFixed}) {
    const auto best = bench::run_bench_campaign(
        args,
        [&](std::size_t pass) {
          tuning::SpaceOptions sopts;
          sopts.hint_max = 20;
          tuning::ConfigSpace space(topology, sopts,
                                    bench::synthetic_defaults());
          bo::BayesOptOptions bopts = bench::bench_bo_options(
              args.seed * 29 + pass + static_cast<std::uint64_t>(mode));
          bopts.hyper_mode = mode;
          return std::make_unique<tuning::BayesTuner>(std::move(space),
                                                      bopts, "bo");
        },
        bench::sim_objective_factory(topology, topo::paper_cluster(), params,
                                     args.seed + 4),
        bench::experiment_options(args, "bo"));
    t.add_row({bo::to_string(mode),
               bench::format_rate(best.best_rep_stats.mean),
               std::to_string(best.best_step),
               TextTable::num(best.mean_suggest_seconds, 4)});
    std::fprintf(stderr, "[ablation-hyper] %s done\n",
                 bo::to_string(mode).c_str());
  }

  std::printf("%s\n", t.render().c_str());
  std::printf("Workload: medium synthetic topology, 100%% TiIm "
              "(51-dim hint space).\n");
  return 0;
}
