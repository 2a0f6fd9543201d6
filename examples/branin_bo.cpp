// Using the Bayesian-optimization library on its own (no stream processor):
// maximize the negated Branin function, demonstrate the acquisition
// functions, and show the Spearmint-style pause/resume that the paper's
// cluster campaigns relied on (Section III-C).
//
//   $ ./branin_bo
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bayesopt/bayesopt.hpp"

using namespace stormtune;

namespace {

// Branin-Hoo, negated for maximization. Global optimum value: -0.397887 at
// (-pi, 12.275), (pi, 2.275) and (9.42478, 2.475).
double neg_branin(double x1, double x2) {
  const double a = 1.0, b = 5.1 / (4.0 * M_PI * M_PI), c = 5.0 / M_PI;
  const double r = 6.0, s = 10.0, t = 1.0 / (8.0 * M_PI);
  return -(a * std::pow(x2 - b * x1 * x1 + c * x1 - r, 2) +
           s * (1.0 - t) * std::cos(x1) + s);
}

}  // namespace

int main() {
  bo::ParamSpace space({bo::ParamSpec::real("x1", -5.0, 10.0),
                        bo::ParamSpec::real("x2", 0.0, 15.0)});

  bo::BayesOptOptions options;
  options.kernel = gp::KernelFamily::kMatern52;
  options.hyper_mode = bo::HyperMode::kSliceSample;
  options.seed = 7;

  bo::BayesOpt optimizer(space, options);

  // Phase 1: 15 steps, then "pause" by serializing the optimizer state —
  // what Spearmint's resume feature did for the authors' multi-day
  // cluster campaigns.
  for (int step = 0; step < 15; ++step) {
    const bo::ParamValues x = optimizer.suggest();
    const double y = neg_branin(x[0], x[1]);
    optimizer.observe(x, y);
  }
  const std::string state_path = "/tmp/branin_bo_state.json";
  {
    std::ofstream out(state_path);
    out << optimizer.save_state().dump(2);
  }
  std::printf("paused after 15 steps, best so far: f=%.4f\n",
              optimizer.best().y);

  // Phase 2: resume from the serialized state and continue.
  Json state;
  {
    std::ifstream in(state_path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    state = Json::parse(text);
  }
  bo::BayesOpt resumed = bo::BayesOpt::load_state(state);
  for (int step = 0; step < 25; ++step) {
    const bo::ParamValues x = resumed.suggest();
    resumed.observe(x, neg_branin(x[0], x[1]));
  }

  const auto best = resumed.best();
  std::printf("resumed for 25 more steps, best: f=%.4f at (%.3f, %.3f), "
              "found at step %zu\n",
              best.y, best.x[0], best.x[1], best.step + 1);
  std::printf("global optimum: f=-0.3979 — the optimizer should be close.\n");
  return 0;
}
