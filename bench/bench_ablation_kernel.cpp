// Ablation: GP covariance kernel (Matern 5/2 vs Matern 3/2 vs squared
// exponential; isotropic vs ARD lengthscales).
//
// Spearmint's default — and hence the paper's — is ARD Matern 5/2. The SE
// kernel assumes a much smoother objective than a config-to-throughput
// landscape usually is; Matern 3/2 assumes a rougher one. ARD costs O(dim)
// extra hyperparameters per MCMC sweep, which matters at 100 parameters
// (the paper's Figure 7 concern).
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace stormtune;
  const bench::Args args = bench::Args::parse(argc, argv);
  std::printf("== Ablation: GP kernel family and ARD ==\n(%s)\n\n",
              args.describe().c_str());

  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kMedium;
  spec.time_imbalance = true;
  const sim::Topology topology = topo::build_synthetic(spec);
  sim::SimParams params = topo::synthetic_sim_params();
  params.duration_s = args.duration_s;

  TextTable t({"Kernel", "ARD", "Mean tuples/s", "Best step",
               "Avg step (s)"});

  for (const auto family : {gp::KernelFamily::kMatern52,
                            gp::KernelFamily::kMatern32,
                            gp::KernelFamily::kSquaredExponential}) {
    for (const bool ard : {false, true}) {
      const auto best = bench::run_bench_campaign(
          args,
          [&](std::size_t pass) {
            tuning::SpaceOptions sopts;
            sopts.hint_max = 20;
            tuning::ConfigSpace space(topology, sopts,
                                      bench::synthetic_defaults());
            bo::BayesOptOptions bopts = bench::bench_bo_options(
                args.seed * 23 + pass + static_cast<std::uint64_t>(family) +
                (ard ? 7 : 0));
            bopts.kernel = family;
            bopts.ard = ard;
            return std::make_unique<tuning::BayesTuner>(std::move(space),
                                                        bopts, "bo");
          },
          bench::sim_objective_factory(topology, topo::paper_cluster(),
                                       params, args.seed + 3),
          bench::experiment_options(args, "bo"));
      t.add_row({gp::to_string(family), ard ? "yes" : "no",
                 bench::format_rate(best.best_rep_stats.mean),
                 std::to_string(best.best_step),
                 TextTable::num(best.mean_suggest_seconds, 4)});
      std::fprintf(stderr, "[ablation-kernel] %s ard=%d done\n",
                   gp::to_string(family).c_str(), ard);
    }
  }

  std::printf("%s\n", t.render().c_str());
  std::printf("Workload: medium synthetic topology, 100%% TiIm "
              "(51-dim hint space + max-tasks).\n");
  return 0;
}
