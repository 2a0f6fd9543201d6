// Reproduces Figure 7: average wall-clock time one optimization step takes,
// per strategy and topology size, over the four workload quadrants.
//
// Paper expectations: pla/ipla take ~0-1 s per step; the Bayesian
// optimizers' step time grows sublinearly with the number of parameters
// (35/90/173 s for bo at 10/50/100 parameters on the authors' machine —
// absolute numbers depend on hardware and GP settings, the sublinear shape
// is the claim); ibo is somewhat slower than bo.
//
// Results carry no timing: the step times come from bench::SuggestTimer,
// which wraps each pass's tuner and times its proposals.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace stormtune;
  bench::Args args = bench::Args::parse(argc, argv);
  args.reps = 0;  // only the per-step suggestion times matter here
  std::printf("== Figure 7: optimizer step wall-time ==\n(%s)\n\n",
              args.describe().c_str());

  const std::vector<std::string> strategies{"pla", "bo", "ipla", "ibo"};

  TextTable t({"Cell", "Strategy", "Params", "Avg step (s)", "Max step (s)"});

  for (const auto& cell : bench::figure4_cells()) {
    for (const auto& strategy : strategies) {
      const bench::CampaignCell r =
          bench::run_synthetic_cell(args, cell, strategy);
      const std::size_t params =
          (strategy == "ibo") ? 2  // multiplier + max-tasks
          : (strategy == "bo" || strategy == "bo180")
              ? r.best.best_config.parallelism_hints.size() + 1
              : 1;
      t.add_row({cell.label(), strategy, std::to_string(params),
                 TextTable::num(r.mean_step_seconds, 4),
                 TextTable::num(r.max_step_seconds, 4)});
      std::fprintf(stderr, "[fig7] %s %s done (avg %.4f s/step)\n",
                   cell.label().c_str(), strategy.c_str(),
                   r.mean_step_seconds);
    }
  }

  std::printf("%s\n", t.render().c_str());
  std::printf(
      "Expected shape: pla/ipla ~ 0 s; bo/ibo step time grows sublinearly\n"
      "from small (11 params) through medium (51) to large (101).\n");
  return 0;
}
