#include "bench_util.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>

#include "common/error.hpp"
#include "common/isa.hpp"
#include "common/thread_pool.hpp"
#include "topology/sundog.hpp"
#include "tuning/result_sink.hpp"
#include "tuning/strategy.hpp"

namespace stormtune::bench {

namespace {

/// The value of a numeric `--flag=value` argument `arg`; a malformed,
/// partial, negative (for unsigned T) or out-of-range value is a usage
/// error that names the argument.
template <typename T>
T number(const char* arg, const char* v) {
  T out{};
  const char* end = v + std::strlen(v);
  const auto [ptr, ec] = std::from_chars(v, end, out);
  if (ec != std::errc() || ptr != end) {
    std::fprintf(stderr, "%s: expected a number\n", arg);
    std::exit(2);
  }
  return out;
}

}  // namespace

Args Args::parse(int argc, char** argv) {
  Args args;
  // First pass: --full rescales every default to the paper protocol.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      args.full = true;
      args.pla_steps = 60;
      args.bo_steps = 60;
      args.bo180_steps = 180;
      args.reps = 30;
      args.passes = 2;
      args.duration_s = 120.0;
    }
  }
  auto value_of = [&](const char* arg, const char* key) -> const char* {
    const std::size_t n = std::strlen(key);
    if (std::strncmp(arg, key, n) == 0 && arg[n] == '=') return arg + n + 1;
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--full") == 0) continue;
    if (const char* v = value_of(a, "--steps")) {
      args.pla_steps = args.bo_steps = number<std::size_t>(a, v);
    } else if (const char* v = value_of(a, "--bo-steps")) {
      args.bo_steps = number<std::size_t>(a, v);
    } else if (const char* v = value_of(a, "--bo180")) {
      args.bo180_steps = number<std::size_t>(a, v);
    } else if (const char* v = value_of(a, "--reps")) {
      args.reps = number<std::size_t>(a, v);
    } else if (const char* v = value_of(a, "--passes")) {
      args.passes = number<std::size_t>(a, v);
    } else if (const char* v = value_of(a, "--duration")) {
      args.duration_s = number<double>(a, v);
    } else if (const char* v = value_of(a, "--seed")) {
      args.seed = number<std::uint64_t>(a, v);
    } else if (const char* v = value_of(a, "--threads")) {
      args.threads = number<std::size_t>(a, v);
    } else if (const char* v = value_of(a, "--campaigns-json")) {
      args.campaigns_json = v;
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s' (expected --full, --steps=N, "
                   "--bo-steps=N, --bo180=N, --reps=N, --passes=N, "
                   "--duration=S, --seed=N, --threads=N campaign pool "
                   "width incl. the caller, 0 = auto, "
                   "--campaigns-json=FILE)\n",
                   a);
      std::exit(2);
    }
  }
  return args;
}

std::size_t Args::pool_threads() const {
  return threads > 0 ? threads : default_thread_count();
}

std::string Args::describe() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "scale=%s pla_steps=%zu bo_steps=%zu bo180=%zu reps=%zu "
                "passes=%zu window=%.0fs seed=%llu threads=%zu isa=%s",
                full ? "full(paper)" : "quick", pla_steps, bo_steps,
                bo180_steps, reps, passes, duration_s,
                static_cast<unsigned long long>(seed), pool_threads(),
                isa::to_string(isa::selected()));
  return buf;
}

std::string CellSpec::label() const {
  return topo::to_string(size) + (time_imbalance ? "/TiIm100" : "/TiIm0") +
         (contention > 0.0 ? "/cont25" : "/cont0");
}

std::vector<CellSpec> figure4_cells() {
  std::vector<CellSpec> cells;
  for (const double cont : {0.0, 0.25}) {
    for (const bool tiim : {false, true}) {
      for (const auto size : {topo::TopologySize::kSmall,
                              topo::TopologySize::kMedium,
                              topo::TopologySize::kLarge}) {
        cells.push_back(CellSpec{size, tiim, cont});
      }
    }
  }
  return cells;
}

tuning::Workload workload(const Args& args, const std::string& topology,
                          bool tiim, double contention) {
  tuning::CampaignDesc desc;
  desc.topology = topology;
  desc.tiim = tiim;
  desc.contention = contention;
  desc.duration_s = args.duration_s;
  return tuning::load_workload(desc);
}

sim::TopologyConfig synthetic_defaults() {
  sim::TopologyConfig c;
  c.batch_size = 200;
  c.batch_parallelism = 5;
  c.worker_threads = 8;
  c.receiver_threads = 1;
  c.num_ackers = 0;
  return c;
}

bo::BayesOptOptions bench_bo_options() {
  bo::BayesOptOptions o;
  o.kernel = gp::KernelFamily::kMatern52;
  o.ard = false;  // isotropic keeps step times practical at 100 dims
  o.hyper_mode = bo::HyperMode::kSliceSample;
  o.hyper_samples = 3;
  o.hyper_burn_in = 5;
  o.initial_design = 5;
  o.num_candidates = 256;
  o.local_search_iters = 10;
  return o;
}

tuning::ExperimentOptions experiment_options(const Args& args,
                                             const std::string& strategy,
                                             std::size_t step_override) {
  tuning::ExperimentOptions o;
  if (step_override > 0) {
    o.max_steps = step_override;
  } else if (strategy == "bo180") {
    o.max_steps = args.bo180_steps > 0 ? args.bo180_steps : args.bo_steps;
  } else if (strategy == "bo" || strategy == "ibo" || strategy == "random") {
    o.max_steps = args.bo_steps;
  } else {
    o.max_steps = args.pla_steps;
  }
  o.zero_streak_stop = 3;  // the paper's early-stop rule
  o.best_config_reps = args.reps;
  return o;
}

tuning::ExperimentResult run_bench_campaign(
    const Args& args, const std::string& name, tuning::TunerFactory make_tuner,
    tuning::ObjectiveFactory make_objective,
    const tuning::ExperimentOptions& options,
    std::vector<tuning::ExperimentResult>* passes) {
  tuning::CampaignSpec spec;
  spec.make_tuner = std::move(make_tuner);
  spec.make_objective = std::move(make_objective);
  spec.options = options;
  spec.passes = args.passes;
  tuning::ExperimentResult best =
      tuning::run_campaign(spec, args.pool_threads(), passes);
  if (!args.campaigns_json.empty()) {
    // bench_repro runs campaigns serially, so a process-local ticket keeps
    // the file in execution order.
    static std::size_t ticket = 0;
    std::ofstream out(args.campaigns_json, std::ios::app);
    STORMTUNE_REQUIRE(out.good(), "cannot append to --campaigns-json file '" +
                                      args.campaigns_json + "'");
    tuning::JsonlResultBackend(out).write({ticket++, name, best});
  }
  return best;
}

namespace {

/// Forwards to an inner tuner and times each next() that proposes.
class TimedTuner final : public tuning::Tuner {
 public:
  TimedTuner(std::unique_ptr<tuning::Tuner> inner, SuggestTimer::Slot& slot)
      : inner_(std::move(inner)), slot_(slot) {}

  std::optional<sim::TopologyConfig> next() override {
    const auto t0 = std::chrono::steady_clock::now();
    std::optional<sim::TopologyConfig> config = inner_->next();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    if (config) {
      ++slot_.steps;
      slot_.total_s += s;
      slot_.max_s = std::max(slot_.max_s, s);
    }
    return config;
  }
  void report(const sim::TopologyConfig& config, double throughput) override {
    inner_->report(config, throughput);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<tuning::Tuner> inner_;
  SuggestTimer::Slot& slot_;
};

/// The strategy-table row behind a harness label: "bo180" is bo at the
/// bo180 step budget, under its own label.
std::string_view table_row(const std::string& label) {
  return label == "bo180" ? std::string_view("bo") : std::string_view(label);
}

/// A synthetic-grid tuner. bo and ibo also tune the max-tasks cap between
/// one and twelve tasks per node; random keeps per-node hints within 20.
std::unique_ptr<tuning::Tuner> synthetic_tuner(const std::string& strategy,
                                               const sim::Topology& topology,
                                               std::uint64_t seed) {
  tuning::TunerSpec spec;
  spec.defaults = synthetic_defaults();
  if (strategy == "random") {
    spec.space.hint_max = 20;
  } else {
    spec.space.multiplier_max = 12.0;  // ibo's multiplier range
    spec.space.max_tasks_min = static_cast<int>(topology.num_nodes());
    spec.space.max_tasks_max = static_cast<int>(topology.num_nodes()) * 12;
  }
  spec.bo = bench_bo_options();
  spec.seed = seed;
  spec.name = strategy;
  return tuning::make_tuner(table_row(strategy), topology, std::move(spec));
}

/// A Sundog tuner over one of Section V-D's parameter sets, starting from
/// the hand-tuned deployment with hints at the pla optimum (11).
std::unique_ptr<tuning::Tuner> sundog_tuner(const std::string& strategy,
                                            const std::string& param_set,
                                            const sim::Topology& topology,
                                            std::uint64_t seed) {
  STORMTUNE_REQUIRE(strategy != "pla" || param_set == "h",
                    "pla can only tune parallelism hints");
  // Each set is a list of `what` blocks; hints left out stay at 11.
  tuning::CampaignDesc blocks;
  blocks.what = param_set == "h_bs_bp"    ? "h,batch"
                : param_set == "bs_bp_cc" ? "batch,cc"
                                          : param_set;
  tuning::TunerSpec spec;
  spec.space = tuning::space_options(blocks);
  spec.defaults = topo::sundog_baseline_config(topology, 11);
  spec.space.hint_max = 40;
  spec.space.max_tasks_min = static_cast<int>(topology.num_nodes());
  spec.space.max_tasks_max = 2000;
  spec.bo = bench_bo_options();
  spec.seed = seed;
  spec.name = strategy + "." + param_set;
  return tuning::make_tuner(table_row(strategy), topology, std::move(spec));
}

}  // namespace

tuning::TunerFactory SuggestTimer::wrap(tuning::TunerFactory make_tuner) {
  return [this, make_tuner = std::move(make_tuner)](
             std::size_t pass) -> std::unique_ptr<tuning::Tuner> {
    STORMTUNE_REQUIRE(pass < slots_.size(), "SuggestTimer: pass out of range");
    return std::make_unique<TimedTuner>(make_tuner(pass), slots_[pass]);
  };
}

double SuggestTimer::mean_step_seconds() const {
  // Every pass proposes at least once, or its campaign throws.
  double sum = 0.0;
  for (const Slot& slot : slots_) {
    sum += slot.total_s / static_cast<double>(slot.steps);
  }
  return sum / static_cast<double>(slots_.size());
}

double SuggestTimer::max_step_seconds() const {
  double max_s = 0.0;
  for (const Slot& slot : slots_) max_s = std::max(max_s, slot.max_s);
  return max_s;
}

CampaignCell run_synthetic_cell(const Args& args, const CellSpec& cell,
                                const std::string& strategy,
                                std::size_t step_override) {
  const tuning::Workload w = workload(args, topo::to_string(cell.size),
                                      cell.time_imbalance, cell.contention);

  // A fixed objective seed per cell keeps strategies comparable; the
  // optimizer passes get distinct seeds, and each pass owns its objective.
  const std::uint64_t cell_seed =
      args.seed + static_cast<std::uint64_t>(cell.size) * 101 +
      (cell.time_imbalance ? 13 : 0) + (cell.contention > 0.0 ? 29 : 0);

  CampaignCell out;
  out.cell = cell;
  out.strategy = strategy;
  SuggestTimer timer(args.passes);
  out.best = run_bench_campaign(
      args, cell.label() + "/" + strategy,
      timer.wrap([&](std::size_t pass) {
        return synthetic_tuner(strategy, w.topology,
                               tuning::pass_seeds(cell_seed, pass).tuner);
      }),
      tuning::sim_objective_factory(w.topology, w.cluster, w.params,
                                    cell_seed),
      experiment_options(args, strategy, step_override), &out.passes);
  out.mean_step_seconds = timer.mean_step_seconds();
  out.max_step_seconds = timer.max_step_seconds();
  return out;
}

SundogResult run_sundog_campaign(const Args& args,
                                 const std::string& strategy,
                                 const std::string& param_set,
                                 std::size_t step_override) {
  const tuning::Workload w = workload(args, "sundog");
  const std::uint64_t seed = args.seed + 4242;

  SundogResult out;
  out.strategy = strategy;
  out.param_set = param_set;
  out.best = run_bench_campaign(
      args, "sundog/" + strategy + "/" + param_set,
      [&](std::size_t pass) {
        return sundog_tuner(strategy, param_set, w.topology,
                            tuning::pass_seeds(seed, pass).tuner);
      },
      tuning::sim_objective_factory(w.topology, w.cluster, w.params, seed),
      experiment_options(args, strategy, step_override), &out.passes);
  return out;
}

std::string format_rate(double tuples_per_s) {
  char buf[32];
  if (tuples_per_s >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", tuples_per_s / 1e6);
  } else if (tuples_per_s >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.0fk", tuples_per_s / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f", tuples_per_s);
  }
  return buf;
}

}  // namespace stormtune::bench
