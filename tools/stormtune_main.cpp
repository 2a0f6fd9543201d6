// stormtune — command-line driver for the library.
//
//   stormtune list
//   stormtune info <topology>
//   stormtune dot <topology>
//   stormtune simulate <topology> [options]
//   stormtune tune <topology> [options]
//   stormtune tune-many --campaigns=FILE [options]
//
// Topologies: small | medium | large (the paper's synthetic benchmarks,
// with --tiim / --contention modifiers), sundog, linear_road,
// dissemination, linear_road_compact, debs13.
//
// simulate options: --hint=N --bs=N --bp=N --wt=N --rt=N --ackers=N
//                   --max-tasks=N --duration=S --seed=N
// tune options:     --strategy=pla|ipla|bo|ibo|random --steps=N --reps=N
//                   --what=h|h,batch|h,batch,cc|batch,cc --seed=N
//                   --json=FILE --csv=FILE (one campaign runs on one
//                   thread; --threads is a usage error here, it sizes
//                   only tune-many's scheduler)
//                   --adaptive-window[=EPS]  end each evaluation once its
//                   steady-state throughput estimate converges (relative
//                   95% CI half-width < EPS, default 0.05) instead of
//                   always simulating the full window
//                   --fidelity=full|ladder  full (default) pays a complete
//                   simulation per BO evaluation; ladder screens candidate
//                   batches with the ~µs fluid model, promotes the best to
//                   a short adaptive-window run, and spends a full-window
//                   run only on configs that challenge the incumbent
//                   (strategies bo/ibo only; uses the fixed-hyper GP with
//                   per-rung observation noise)
//                   --gp-window=N  bound the BO surrogate to the N most
//                   recent observations (FIFO eviction, incumbent pinned):
//                   suggest cost stays O(N³)-flat instead of growing with
//                   campaign length. 0 (default) = unbounded, which is
//                   bit-identical to pre-window builds.
//                   --ladder-rung1-epsilon=E --ladder-challenge-fraction=F
//                   --ladder-promote-top-k=K  override the corresponding
//                   LadderOptions knobs (defaults: 0.1, 0.9, 2)
// tune-many options: --campaigns=FILE  JSON array (or {"campaigns":[...]})
//                   of campaign entries; each entry names a topology and
//                   may override name/strategy/steps/reps/passes/what/
//                   seed/duration/adaptive_window/adaptive_epsilon/
//                   fidelity/gp_window/ladder_rung1_epsilon/
//                   ladder_challenge_fraction/ladder_promote_top_k, with
//                   the command-line flags supplying the defaults.
//                   steps/reps/passes/seed/gp_window/ladder_promote_top_k
//                   must be non-negative integers; anything else is an
//                   error (exit 1) that names the field.
//                   --threads=N sizes the work-stealing scheduler (0 =
//                   auto, the default; each optimizer suggests on the
//                   worker that steps its pass);
//                   --jsonl=FILE writes each finished campaign through
//                   the result sink, one JSON line per campaign in
//                   submission order, flushed as soon as the campaigns
//                   before it have finished. Per-campaign results are
//                   bit-identical to running that campaign alone (a
//                   one-entry file), for any thread count and submission
//                   order.
//                   --adaptive-window composes: each campaign's
//                   evaluations end early on convergence, and because the
//                   stop rule is seeded and campaign-local, determinism
//                   across thread counts still holds.
//
// A malformed numeric value (--steps=abc, --hint=x) is a usage error
// (exit 2), like an unknown option. The kernel dispatch path comes from
// the STORMTUNE_ISA environment variable (portable|avx2|avx512|auto;
// default auto-detect).
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "common/error.hpp"
#include "common/isa.hpp"
#include "common/thread_pool.hpp"
#include "stormsim/dot.hpp"
#include "stormsim/engine.hpp"
#include "stormsim/fluid.hpp"
#include "topology/literature.hpp"
#include "topology/sundog.hpp"
#include "topology/synthetic.hpp"
#include "common/json.hpp"
#include "tuning/campaign_scheduler.hpp"
#include "tuning/experiment.hpp"
#include "tuning/fidelity.hpp"
#include "tuning/report.hpp"
#include "tuning/result_sink.hpp"

namespace {

using namespace stormtune;

struct Options {
  std::string topology;
  bool tiim = false;
  double contention = 0.0;
  int hint = 4;
  int batch_size = 0;  // 0 = topology default
  int batch_parallelism = 5;
  int worker_threads = 8;
  int receiver_threads = 1;
  int ackers = 0;
  int max_tasks = 0;
  double duration_s = 20.0;
  std::uint64_t seed = 1;
  std::string strategy = "bo";
  std::size_t steps = 30;
  std::size_t reps = 10;
  std::string what = "h";
  std::string json_path;
  std::string csv_path;
  std::optional<std::size_t> threads;  // tune-many: scheduler workers
                                       // (0 or unset = auto)
  std::string fidelity = "full";  // full | ladder (bo/ibo only)
  std::size_t gp_window = 0;      // --gp-window: BO observation window
                                  // (0 = unbounded, the default)
  double ladder_rung1_epsilon = 0.0;       // 0 = LadderOptions default
  double ladder_challenge_fraction = 0.0;  // 0 = LadderOptions default
  std::size_t ladder_promote_top_k = 0;    // 0 = LadderOptions default
  bool adaptive_window = false;
  double adaptive_epsilon = 0.0;  // 0 = keep SimParams default
  std::size_t passes = 2;         // tune-many: passes per campaign
  std::string campaigns_path;     // tune-many: campaign list (JSON)
  std::string jsonl_path;         // tune-many: result-sink output
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: stormtune <list|info|dot|simulate|tune|tune-many> [topology] "
      "[options]\n"
      "topologies: small medium large sundog linear_road dissemination\n"
      "            linear_road_compact debs13\n"
      "tune: --strategy=pla|ipla|bo|ibo|random --steps=N --reps=N --what=...\n"
      "      --seed=N --json=FILE --csv=FILE\n"
      "      --adaptive-window[=EPS]  stop each simulation once throughput\n"
      "      converges (relative CI half-width < EPS, default 0.05)\n"
      "      --fidelity=full|ladder  ladder = fluid screening, adaptive\n"
      "      promotion, full runs only for incumbent challenges (bo/ibo)\n"
      "      --gp-window=N  sliding GP window (0 = unbounded)\n"
      "      --ladder-rung1-epsilon=E --ladder-challenge-fraction=F\n"
      "      --ladder-promote-top-k=K  fidelity-ladder knobs\n"
      "tune-many: --campaigns=FILE --threads=N --passes=N --jsonl=FILE\n"
      "      run every campaign in FILE over one work-stealing scheduler;\n"
      "      per-campaign results are bit-identical to solo runs for any\n"
      "      thread count (tune options above supply the defaults)\n"
      "see the header of tools/stormtune_main.cpp for all options\n");
  std::exit(2);
}

const char* value_of(const char* arg, const char* key) {
  const std::size_t n = std::strlen(key);
  if (std::strncmp(arg, key, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

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
    usage();
  }
  return out;
}

Options parse(int argc, char** argv, int first) {
  Options o;
  if (first < argc && argv[first][0] != '-') o.topology = argv[first++];
  for (int i = first; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--tiim") == 0) o.tiim = true;
    else if (const char* v = value_of(a, "--contention")) o.contention = number<double>(a, v);
    else if (const char* v = value_of(a, "--hint")) o.hint = number<int>(a, v);
    else if (const char* v = value_of(a, "--bs")) o.batch_size = number<int>(a, v);
    else if (const char* v = value_of(a, "--bp")) o.batch_parallelism = number<int>(a, v);
    else if (const char* v = value_of(a, "--wt")) o.worker_threads = number<int>(a, v);
    else if (const char* v = value_of(a, "--rt")) o.receiver_threads = number<int>(a, v);
    else if (const char* v = value_of(a, "--ackers")) o.ackers = number<int>(a, v);
    else if (const char* v = value_of(a, "--max-tasks")) o.max_tasks = number<int>(a, v);
    else if (const char* v = value_of(a, "--duration")) o.duration_s = number<double>(a, v);
    else if (const char* v = value_of(a, "--seed")) o.seed = number<std::uint64_t>(a, v);
    else if (const char* v = value_of(a, "--strategy")) o.strategy = v;
    else if (const char* v = value_of(a, "--steps")) o.steps = number<std::size_t>(a, v);
    else if (const char* v = value_of(a, "--reps")) o.reps = number<std::size_t>(a, v);
    else if (const char* v = value_of(a, "--what")) o.what = v;
    else if (const char* v = value_of(a, "--json")) o.json_path = v;
    else if (const char* v = value_of(a, "--csv")) o.csv_path = v;
    else if (const char* v = value_of(a, "--threads")) o.threads = number<std::size_t>(a, v);
    else if (const char* v = value_of(a, "--fidelity")) {
      o.fidelity = v;
      if (o.fidelity != "full" && o.fidelity != "ladder") {
        std::fprintf(stderr, "--fidelity=%s: expected full or ladder\n", v);
        usage();
      }
    }
    else if (const char* v = value_of(a, "--gp-window")) o.gp_window = number<std::size_t>(a, v);
    else if (const char* v = value_of(a, "--ladder-rung1-epsilon")) o.ladder_rung1_epsilon = number<double>(a, v);
    else if (const char* v = value_of(a, "--ladder-challenge-fraction")) o.ladder_challenge_fraction = number<double>(a, v);
    else if (const char* v = value_of(a, "--ladder-promote-top-k")) o.ladder_promote_top_k = number<std::size_t>(a, v);
    else if (const char* v = value_of(a, "--passes")) o.passes = number<std::size_t>(a, v);
    else if (const char* v = value_of(a, "--campaigns")) o.campaigns_path = v;
    else if (const char* v = value_of(a, "--jsonl")) o.jsonl_path = v;
    else if (std::strcmp(a, "--adaptive-window") == 0) o.adaptive_window = true;
    else if (const char* v = value_of(a, "--adaptive-window")) {
      o.adaptive_window = true;
      o.adaptive_epsilon = number<double>(a, v);
    }
    else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) usage();
    else {
      std::fprintf(stderr, "unknown option '%s'\n", a);
      usage();
    }
  }
  return o;
}

struct Workload {
  sim::Topology topology;
  sim::ClusterSpec cluster;
  sim::SimParams params;
  int default_batch_size;
};

Workload load_workload(const Options& o) {
  Workload w;
  w.cluster = topo::paper_cluster();
  w.params = topo::synthetic_sim_params();
  w.default_batch_size = 200;
  if (o.topology == "small" || o.topology == "medium" ||
      o.topology == "large") {
    topo::SyntheticSpec spec;
    spec.size = o.topology == "small" ? topo::TopologySize::kSmall
                : o.topology == "medium" ? topo::TopologySize::kMedium
                                         : topo::TopologySize::kLarge;
    spec.time_imbalance = o.tiim;
    spec.contention_fraction = o.contention;
    w.topology = topo::build_synthetic(spec);
  } else if (o.topology == "sundog") {
    w.topology = topo::build_sundog();
    w.cluster = topo::sundog_cluster();
    w.params = topo::sundog_sim_params();
    w.default_batch_size = 50000;
  } else if (o.topology == "linear_road") {
    w.topology = topo::build_linear_road();
    w.default_batch_size = 1000;
  } else if (o.topology == "dissemination") {
    w.topology = topo::build_dissemination();
    w.default_batch_size = 1000;
  } else if (o.topology == "linear_road_compact") {
    w.topology = topo::build_linear_road_compact();
    w.default_batch_size = 1000;
  } else if (o.topology == "debs13") {
    w.topology = topo::build_debs13();
    w.default_batch_size = 1000;
  } else {
    std::fprintf(stderr, "unknown topology '%s'\n", o.topology.c_str());
    usage();
  }
  w.params.duration_s = o.duration_s;
  w.params.adaptive_window = o.adaptive_window;
  if (o.adaptive_epsilon > 0.0) w.params.adaptive_epsilon = o.adaptive_epsilon;
  return w;
}

sim::TopologyConfig config_from_options(const Options& o, const Workload& w) {
  sim::TopologyConfig c = sim::uniform_hint_config(w.topology, o.hint);
  c.batch_size = o.batch_size > 0 ? o.batch_size : w.default_batch_size;
  c.batch_parallelism = o.batch_parallelism;
  c.worker_threads = o.worker_threads;
  c.receiver_threads = o.receiver_threads;
  c.num_ackers = o.ackers;
  c.max_tasks = o.max_tasks;
  return c;
}

int cmd_list() {
  std::printf(
      "small                10-node synthetic benchmark (Table II)\n"
      "medium               50-node synthetic benchmark (Table II)\n"
      "large                100-node synthetic benchmark (Table II)\n"
      "sundog               entity-ranking application (Fig. 2)\n"
      "linear_road          Linear Road benchmark, 60 operators\n"
      "dissemination        Aurora data-dissemination problem, 40 operators\n"
      "linear_road_compact  2013 Linear Road reformulation, 7 operators\n"
      "debs13               DEBS'13 Grand Challenge query, 3 operators\n");
  return 0;
}

int cmd_info(const Options& o) {
  const Workload w = load_workload(o);
  const auto weights = w.topology.base_parallelism_weights();
  std::printf("%s: %zu nodes (%zu spouts), %zu streams\n",
              o.topology.c_str(), w.topology.num_nodes(),
              w.topology.spouts().size(), w.topology.num_edges());
  std::printf("%-28s %6s %12s %6s %8s\n", "node", "kind", "units/tuple",
              "sel", "weight");
  for (std::size_t v = 0; v < w.topology.num_nodes(); ++v) {
    const sim::Node& n = w.topology.node(v);
    std::printf("%-28s %6s %12.4f %6.2f %8.1f%s\n", n.name.c_str(),
                n.kind == sim::NodeKind::kSpout ? "spout" : "bolt",
                n.time_complexity, n.selectivity, weights[v],
                n.contentious ? "  [contentious]" : "");
  }
  return 0;
}

int cmd_dot(const Options& o) {
  const Workload w = load_workload(o);
  std::printf("%s", sim::to_dot(w.topology).c_str());
  return 0;
}

int cmd_simulate(const Options& o) {
  std::printf("isa path:     %s\n", isa::to_string(isa::selected()));
  const Workload w = load_workload(o);
  const sim::TopologyConfig config = config_from_options(o, w);
  const auto r = sim::simulate(w.topology, config, w.cluster, w.params,
                               o.seed);
  const auto fluid = sim::fluid_estimate(w.topology, config, w.cluster,
                                         w.params);
  std::printf("config:       %s\n", config.describe().c_str());
  if (r.crashed) {
    std::printf("CRASHED: deployment exceeded the hard memory limit "
                "(zero performance)\n");
    return 1;
  }
  std::printf("throughput:   %.1f tuples/s (fluid bound %.1f)\n",
              r.throughput_tuples_per_s, fluid.throughput_tuples_per_s);
  std::printf("batches:      %zu committed / %zu emitted, latency %.0f ms\n",
              r.batches_committed, r.batches_emitted,
              r.mean_batch_latency_ms);
  std::printf("cluster:      cpu %.1f%%, network %.3f MB/s per worker "
              "(peak NIC %.1f%%), %zu tasks\n",
              r.cpu_utilization * 100.0,
              r.network_bytes_per_s_per_worker / (1024.0 * 1024.0),
              r.peak_nic_utilization * 100.0, r.total_tasks);
  const std::size_t b = r.bottleneck_node();
  if (b != static_cast<std::size_t>(-1)) {
    std::printf("bottleneck:   %s (mean stage %.1f ms over %zu tasks)\n",
                r.node_stats[b].name.c_str(), r.node_stats[b].mean_stage_ms,
                r.node_stats[b].tasks);
  }
  return 0;
}

/// Search-space options shared by `tune` and `tune-many`.
tuning::SpaceOptions space_options_from(const Options& o) {
  tuning::SpaceOptions sopts;
  sopts.tune_hints = o.what.find('h') != std::string::npos;
  sopts.tune_batch = o.what.find("batch") != std::string::npos;
  sopts.tune_concurrency = o.what.find("cc") != std::string::npos;
  sopts.informed = o.strategy == "ibo";
  return sopts;
}

/// BO options for --fidelity=ladder: the fixed-hyper GP (suggests stay
/// cheap through the incremental append/evict paths). The sampled hyper
/// modes compose with per-rung noise too (apply_hyperparams'
/// noise_ratio_diag); the CLI sticks with kFixed as the cheap default.
bo::BayesOptOptions ladder_bo_options_from(const Options& o,
                                           std::uint64_t seed) {
  bo::BayesOptOptions bopts;
  bopts.seed = seed;
  bopts.hyper_mode = bo::HyperMode::kFixed;
  bopts.max_observations = o.gp_window;
  return bopts;
}

/// Ladder knobs from the command line (--ladder-*); zero-valued flags keep
/// the LadderOptions defaults.
tuning::LadderOptions ladder_options_from(const Options& o) {
  tuning::LadderOptions lo;
  if (o.ladder_rung1_epsilon > 0.0) lo.rung1_epsilon = o.ladder_rung1_epsilon;
  if (o.ladder_challenge_fraction > 0.0) {
    lo.challenge_fraction = o.ladder_challenge_fraction;
  }
  if (o.ladder_promote_top_k > 0) lo.promote_top_k = o.ladder_promote_top_k;
  return lo;
}

void require_ladder_strategy(const Options& o) {
  if (o.strategy != "bo" && o.strategy != "ibo") {
    std::fprintf(stderr,
                 "--fidelity=ladder requires --strategy=bo or ibo (got '%s')\n",
                 o.strategy.c_str());
    usage();
  }
}

std::unique_ptr<tuning::Tuner> build_tuner(const Options& o, const Workload& w,
                                           const sim::TopologyConfig& defaults,
                                           std::uint64_t seed) {
  tuning::SpaceOptions sopts = space_options_from(o);

  if (o.strategy == "pla" || o.strategy == "ipla") {
    return std::make_unique<tuning::PlaTuner>(w.topology, defaults,
                                              o.strategy == "ipla");
  }
  if (o.strategy == "random") {
    return std::make_unique<tuning::RandomTuner>(
        tuning::ConfigSpace(w.topology, sopts, defaults), seed);
  }
  if (o.strategy == "bo" || o.strategy == "ibo") {
    bo::BayesOptOptions bopts;
    bopts.seed = seed;
    bopts.max_observations = o.gp_window;
    return std::make_unique<tuning::BayesTuner>(
        tuning::ConfigSpace(w.topology, sopts, defaults), bopts, o.strategy);
  }
  std::fprintf(stderr, "unknown strategy '%s'\n", o.strategy.c_str());
  usage();
}

int cmd_tune(const Options& o) {
  if (o.threads) {
    std::fprintf(stderr,
                 "--threads: tune runs one campaign on one thread; "
                 "--threads sizes tune-many's scheduler\n");
    usage();
  }
  std::printf("isa path:     %s\n", isa::to_string(isa::selected()));
  const Workload w = load_workload(o);
  sim::TopologyConfig defaults = config_from_options(o, w);

  // --fidelity=ladder swaps both halves of the loop: the tuner screens
  // candidates through the fluid model and the objective escalates
  // adaptive-window runs to full windows only on incumbent challenges.
  // The FidelityLadder IS the objective; the tuner shares it.
  std::unique_ptr<tuning::Tuner> tuner;
  std::shared_ptr<tuning::FidelityLadder> ladder;
  std::unique_ptr<tuning::Objective> objective;
  if (o.fidelity == "ladder") {
    require_ladder_strategy(o);
    ladder = std::make_shared<tuning::FidelityLadder>(
        w.topology, w.cluster, w.params, o.seed, ladder_options_from(o));
    tuner = std::make_unique<tuning::LadderTuner>(
        tuning::ConfigSpace(w.topology, space_options_from(o), defaults),
        ladder_bo_options_from(o, o.seed), ladder,
        o.strategy + "+ladder");
    objective = std::make_unique<tuning::SharedLadderObjective>(ladder);
  } else {
    tuner = build_tuner(o, w, defaults, o.seed);
    objective = std::make_unique<tuning::SimObjective>(
        w.topology, w.cluster, w.params, o.seed);
  }

  tuning::ExperimentOptions protocol;
  protocol.max_steps = o.steps;
  protocol.best_config_reps = o.reps;

  std::printf("tuning %s with %s over {%s}, %zu steps...\n",
              o.topology.c_str(), tuner->name().c_str(), o.what.c_str(),
              o.steps);
  const tuning::ExperimentResult r =
      tuning::run_experiment(*tuner, *objective, protocol);
  if (ladder) {
    const tuning::LadderStats& ls = ladder->stats();
    std::printf("ladder:       %zu screened, %zu rung-1 runs, %zu full runs "
                "(%.0f + %.0f simulated ms)\n",
                ls.screened, ls.rung1_evals, ls.rung2_evals,
                ls.rung1_simulated_ms, ls.rung2_simulated_ms);
  }

  std::printf("best:         %.1f tuples/s (mean of %zu reps; min %.1f, "
              "max %.1f)\n",
              r.best_rep_stats.mean, r.best_rep_stats.n, r.best_rep_stats.min,
              r.best_rep_stats.max);
  std::printf("found at:     step %zu of %zu\n", r.best_step,
              r.trace.size());
  std::printf("config:       %s\n", r.best_config.describe().c_str());

  if (!o.json_path.empty()) {
    std::ofstream out(o.json_path);
    out << tuning::experiment_to_json(r).dump(2);
    std::printf("wrote %s\n", o.json_path.c_str());
  }
  if (!o.csv_path.empty()) {
    std::ofstream out(o.csv_path);
    out << tuning::trace_to_csv(r);
    std::printf("wrote %s\n", o.csv_path.c_str());
  }
  return 0;
}

/// A campaign-file count or seed: a non-negative integer below 2^64, or an
/// Error that names the field.
std::uint64_t campaign_count(const Json& entry, const char* field) {
  const Json& v = entry.at(field);
  const double d = v.is_number() ? v.as_number() : -1.0;
  STORMTUNE_REQUIRE(d >= 0.0 && d < 0x1p64 && d == std::floor(d),
                    std::string("campaign field '") + field +
                        "' must be a non-negative integer");
  return static_cast<std::uint64_t>(d);
}

/// One campaign's resolved options: the command-line Options as defaults,
/// overridden by the entry's JSON fields.
Options campaign_options(const Options& base, const Json& entry) {
  Options o = base;
  o.topology = entry.at("topology").as_string();
  if (entry.contains("strategy")) o.strategy = entry.at("strategy").as_string();
  if (entry.contains("what")) o.what = entry.at("what").as_string();
  if (entry.contains("steps")) o.steps = campaign_count(entry, "steps");
  if (entry.contains("reps")) o.reps = campaign_count(entry, "reps");
  if (entry.contains("passes")) o.passes = campaign_count(entry, "passes");
  if (entry.contains("seed")) o.seed = campaign_count(entry, "seed");
  if (entry.contains("duration")) o.duration_s = entry.at("duration").as_number();
  if (entry.contains("tiim")) o.tiim = entry.at("tiim").as_bool();
  if (entry.contains("contention")) {
    o.contention = entry.at("contention").as_number();
  }
  if (entry.contains("adaptive_window")) {
    o.adaptive_window = entry.at("adaptive_window").as_bool();
  }
  if (entry.contains("adaptive_epsilon")) {
    o.adaptive_window = true;
    o.adaptive_epsilon = entry.at("adaptive_epsilon").as_number();
  }
  if (entry.contains("fidelity")) {
    o.fidelity = entry.at("fidelity").as_string();
    STORMTUNE_REQUIRE(o.fidelity == "full" || o.fidelity == "ladder",
                      "campaign fidelity must be 'full' or 'ladder'");
  }
  if (entry.contains("gp_window")) {
    o.gp_window = campaign_count(entry, "gp_window");
  }
  if (entry.contains("ladder_rung1_epsilon")) {
    o.ladder_rung1_epsilon = entry.at("ladder_rung1_epsilon").as_number();
  }
  if (entry.contains("ladder_challenge_fraction")) {
    o.ladder_challenge_fraction =
        entry.at("ladder_challenge_fraction").as_number();
  }
  if (entry.contains("ladder_promote_top_k")) {
    o.ladder_promote_top_k = campaign_count(entry, "ladder_promote_top_k");
  }
  return o;
}

int cmd_tune_many(const Options& cli) {
  std::printf("isa path:     %s\n", isa::to_string(isa::selected()));
  if (cli.campaigns_path.empty()) {
    std::fprintf(stderr, "tune-many needs --campaigns=FILE\n");
    usage();
  }
  std::ifstream in(cli.campaigns_path);
  STORMTUNE_REQUIRE(in.good(), "tune-many: cannot open '" +
                                   cli.campaigns_path + "'");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  Json doc = Json::parse(text);
  const JsonArray& entries =
      doc.is_object() ? doc.at("campaigns").as_array() : doc.as_array();
  STORMTUNE_REQUIRE(!entries.empty(), "tune-many: no campaigns in file");

  // The per-campaign context outlives the factories that capture it; each
  // campaign owns its workload copy, so factories of different campaigns
  // never share mutable state.
  struct Context {
    Options opts;
    Workload workload;
    sim::TopologyConfig defaults;
  };
  std::vector<tuning::CampaignSpec> specs;
  specs.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    auto ctx = std::make_shared<Context>();
    ctx->opts = campaign_options(cli, entries[i]);
    ctx->workload = load_workload(ctx->opts);
    ctx->defaults = config_from_options(ctx->opts, ctx->workload);

    tuning::CampaignSpec spec;
    spec.name = entries[i].contains("name")
                    ? entries[i].at("name").as_string()
                    : ctx->opts.topology + "#" + std::to_string(i);
    spec.passes = ctx->opts.passes;
    spec.options.max_steps = ctx->opts.steps;
    spec.options.best_config_reps = ctx->opts.reps;
    // Per-pass seeds follow the bench harness convention: distinct tuner
    // streams per pass, objective streams derived with the golden-ratio
    // multiplier so passes are independent.
    if (ctx->opts.fidelity == "ladder") {
      require_ladder_strategy(ctx->opts);
      // Ladder campaigns route both factories through one registry so pass
      // p's tuner and objective share the same FidelityLadder; the config
      // carries the base seeds and the factories apply the per-pass
      // conventions above internally.
      tuning::LadderCampaignConfig lc;
      lc.topology = ctx->workload.topology;
      lc.cluster = ctx->workload.cluster;
      lc.params = ctx->workload.params;
      lc.space = space_options_from(ctx->opts);
      lc.defaults = ctx->defaults;
      lc.bo = ladder_bo_options_from(ctx->opts, ctx->opts.seed);
      lc.ladder = ladder_options_from(ctx->opts);
      lc.objective_seed = ctx->opts.seed;
      lc.tuner_name = ctx->opts.strategy + "+ladder";
      auto factories =
          tuning::LadderCampaignFactories::create(std::move(lc));
      spec.make_tuner = factories->tuner_factory();
      spec.make_objective = factories->objective_factory();
    } else {
      spec.make_tuner = [ctx](std::size_t pass) {
        return build_tuner(ctx->opts, ctx->workload, ctx->defaults,
                           ctx->opts.seed * 7919 + pass);
      };
      spec.make_objective =
          [ctx](std::size_t pass) -> std::unique_ptr<tuning::Objective> {
        return std::make_unique<tuning::SimObjective>(
            ctx->workload.topology, ctx->workload.cluster,
            ctx->workload.params,
            ctx->opts.seed + 0x632be59bd9b4e019ULL * pass);
      };
    }
    specs.push_back(std::move(spec));
  }

  tuning::CampaignSchedulerOptions sched;
  sched.num_threads = cli.threads.value_or(0);
  const std::size_t threads = sched.num_threads > 0
                                  ? sched.num_threads
                                  : default_thread_count();
  std::printf("scheduling %zu campaigns over %zu thread%s...\n", specs.size(),
              threads, threads == 1 ? "" : "s");

  std::ofstream jsonl_out;
  std::unique_ptr<tuning::ResultSink> sink;
  if (!cli.jsonl_path.empty()) {
    jsonl_out.open(cli.jsonl_path);
    STORMTUNE_REQUIRE(jsonl_out.good(), "tune-many: cannot write '" +
                                            cli.jsonl_path + "'");
    tuning::ResultSinkOptions sopts;
    sopts.expected_records = specs.size();
    sink = std::make_unique<tuning::ResultSink>(
        std::make_unique<tuning::JsonlResultBackend>(jsonl_out), sopts);
  }

  const tuning::MultiCampaignResult out =
      tuning::run_campaigns(specs, sched, sink.get());
  if (sink) sink->close();

  std::printf("%-24s %10s %9s %s\n", "campaign", "best", "found", "config");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const tuning::ExperimentResult& r = out.results[i];
    std::printf("%-24s %10.1f %4zu/%-4zu %s\n", specs[i].name.c_str(),
                r.best_rep_stats.n > 0 ? r.best_rep_stats.mean
                                       : r.best_throughput,
                r.best_step, r.trace.size(), r.best_config.describe().c_str());
  }
  std::printf("steals:       %llu\n",
              static_cast<unsigned long long>(out.steal_count));
  if (!cli.jsonl_path.empty()) {
    std::printf("wrote %s\n", cli.jsonl_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "list") return cmd_list();
    const Options o = parse(argc, argv, 2);
    if (cmd == "tune-many") return cmd_tune_many(o);
    if (o.topology.empty()) usage();
    if (cmd == "info") return cmd_info(o);
    if (cmd == "dot") return cmd_dot(o);
    if (cmd == "simulate") return cmd_simulate(o);
    if (cmd == "tune") return cmd_tune(o);
    usage();
  } catch (const stormtune::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
