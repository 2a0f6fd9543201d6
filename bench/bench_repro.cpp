// bench_repro — the paper's tables, figures and ablations in one program.
//
//   bench_repro <entry>... [flags]   run the named entries in order
//   bench_repro all [flags]          run every entry
//   bench_repro list                 name every entry and what it reproduces
//
// Each entry regenerates tables or figures of the paper, or one ablation,
// at the scale the flags set (bench_util.hpp's Args: --full for the
// paper's protocol). `grid` prints Figures 4, 5 and 7 from one run of the
// synthetic campaigns, and `sundog` prints Figures 8a and 8b from one run
// of the Sundog campaigns. A stormtune::Error from any entry ends the run
// with exit 1; a bad entry name or flag is a usage error (exit 2).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/loess.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "graph/ggen.hpp"
#include "stormsim/engine.hpp"
#include "stormsim/fluid.hpp"
#include "topology/literature.hpp"
#include "topology/sundog.hpp"
#include "topology/synthetic.hpp"
#include "tuning/campaign.hpp"
#include "tuning/objective.hpp"
#include "tuning/strategy.hpp"

namespace {

using namespace stormtune;
using bench::Args;

constexpr topo::TopologySize kSizes[] = {topo::TopologySize::kSmall,
                                         topo::TopologySize::kMedium,
                                         topo::TopologySize::kLarge};

/// An entry's title line and the scale it ran at.
void header(const char* title, const Args& args) {
  std::printf("== %s ==\n(%s)\n\n", title, args.describe().c_str());
}

// Table I: the configuration parameters tuned in the paper, annotated with
// the search ranges and defaults this reproduction uses.
void table1(const Args&) {
  std::printf("== Table I: configuration parameters ==\n\n");

  TextTable t({"Parameter", "Description", "Default", "Tuned range"});
  t.add_row({"Worker Threads", "Number of threads per worker", "8",
             "1 - 32"});
  t.add_row({"Receiver Threads", "Number of receiver threads per worker",
             "1", "1 - 8"});
  t.add_row({"Ackers", "Number of acker tasks", "1 per worker (80)",
             "1 - 320"});
  t.add_row({"Batch Parallelism",
             "Number of batches being processed in parallel", "5", "1 - 32"});
  t.add_row({"Batch Size", "Number of tuples in each batch", "50000",
             "10000 - 500000 (log)"});
  t.add_row({"Parallelism Hints",
             "Number of task instances to create for operators",
             "1 per node", "1 - 30 per node, plus max-tasks cap"});
  std::printf("%s\n", t.render().c_str());

  const auto sundog = topo::build_sundog();
  const auto cfg = topo::sundog_baseline_config(sundog);
  std::printf("Sundog hand-tuned deployment (Section V-D): %s\n",
              cfg.describe().c_str());
}

// Table II: statistics of the three GGen layer-by-layer graphs, the
// paper's values next to the ones this library generates with the
// pre-searched seeds.
void table2(const Args&) {
  std::printf("== Table II: generated benchmark topologies ==\n\n");

  TextTable t({"Name", "V", "E (paper)", "E (ours)", "L", "P",
               "Src (paper)", "Src (ours)", "Snk (paper)", "Snk (ours)",
               "AOD (paper)", "AOD (ours)"});

  for (const auto size : kSizes) {
    const graph::GgenParams params = topo::table2_params(size);
    const graph::GraphStats paper = topo::table2_paper_stats(size);
    Rng rng(topo::table2_seed(size));
    const graph::LayeredDag g = graph::ggen_layer_by_layer(params, rng);
    const graph::GraphStats ours = graph::compute_stats(g);

    t.add_row({topo::to_string(size), std::to_string(ours.vertices),
               std::to_string(paper.edges), std::to_string(ours.edges),
               std::to_string(ours.layers),
               TextTable::num(params.edge_probability, 2),
               std::to_string(paper.sources), std::to_string(ours.sources),
               std::to_string(paper.sinks), std::to_string(ours.sinks),
               TextTable::num(paper.avg_out_degree, 2),
               TextTable::num(ours.avg_out_degree, 2)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "Seeds pre-searched with graph::find_seed_matching; exact equality is\n"
      "not expected — GGen graphs are random — but edge/source/sink counts\n"
      "track the paper's within sampling noise.\n");
}

// Table III: the survey of topology sizes that picked the 10/50/100-vertex
// benchmarks, with every surveyed topology rebuilt and simulated.
void table3(const Args&) {
  std::printf(
      "== Table III: number of operators of topologies in literature ==\n\n");

  TextTable t({"Year", "Description", "# of Ops"});
  t.add_row({"2003", "Data Dissemination Problem (Aurora)", "40"});
  t.add_row({"2004", "Linear Road Benchmark", "60"});
  t.add_row({"2013", "Linear Road Benchmark (operator state mgmt)", "7"});
  t.add_row({"2013", "DEBS'13 Grand Challenge Query", "3"});
  std::printf("%s\n", t.render().c_str());

  std::printf(
      "Benchmark sizes chosen to bracket the survey (most topologies < 60\n"
      "vertices; enterprise applications up to ~100 components):\n\n");
  TextTable sizes({"Benchmark", "Vertices"});
  for (const auto size : kSizes) {
    topo::SyntheticSpec spec;
    spec.size = size;
    const sim::Topology topology = topo::build_synthetic(spec);
    sizes.add_row({topo::to_string(size),
                   std::to_string(topology.num_nodes())});
  }
  std::printf("%s\n", sizes.render().c_str());

  std::printf("Surveyed topologies rebuilt and simulated (10 s windows):\n\n");
  TextTable live({"Topology", "Ops", "Spouts", "Edges", "Tuples/s @ hint 4"});
  struct Surveyed {
    const char* name;
    sim::Topology t;
  };
  const Surveyed surveyed[] = {
      {"Aurora dissemination (2003)", topo::build_dissemination()},
      {"Linear Road (2004)", topo::build_linear_road()},
      {"Linear Road compact (2013)", topo::build_linear_road_compact()},
      {"DEBS'13 Grand Challenge", topo::build_debs13()},
  };
  sim::SimParams params;
  params.duration_s = 10.0;
  params.throughput_noise_sd = 0.0;
  for (const Surveyed& e : surveyed) {
    sim::TopologyConfig c = sim::uniform_hint_config(e.t, 4);
    c.batch_size = 1000;
    const auto r = sim::simulate(e.t, c, topo::paper_cluster(), params, 1);
    live.add_row({e.name, std::to_string(e.t.num_nodes()),
                  std::to_string(e.t.spouts().size()),
                  std::to_string(e.t.num_edges()),
                  TextTable::num(r.throughput_tuples_per_s, 0)});
  }
  std::printf("%s", live.render().c_str());
}

// Figure 3: average network load per worker for the four topologies, and
// the paper's saturation check (gigabit NICs: 128 MB/s theoretical
// ceiling; the network must never be the bottleneck).
void fig3(const Args& args) {
  header("Figure 3: average network load per worker", args);

  TextTable t({"Topology", "MB/s per worker", "Peak NIC util",
               "Throughput (tuples/s)"});
  const double mb = 1024.0 * 1024.0;
  auto add = [&](const std::string& name, const sim::SimResult& r) {
    t.add_row({name, TextTable::num(r.network_bytes_per_s_per_worker / mb, 3),
               TextTable::num(r.peak_nic_utilization * 100.0, 2) + "%",
               bench::format_rate(r.throughput_tuples_per_s)});
  };

  for (const auto size : {topo::TopologySize::kLarge,
                          topo::TopologySize::kMedium,
                          topo::TopologySize::kSmall}) {
    const tuning::Workload w = bench::workload(args, topo::to_string(size));
    // Representative tuned deployment: a healthy uniform parallelism.
    sim::TopologyConfig config = bench::synthetic_defaults();
    config.parallelism_hints.assign(w.topology.num_nodes(), 8);
    add(topo::to_string(size),
        sim::simulate(w.topology, config, w.cluster, w.params, args.seed));
  }
  const tuning::Workload sundog = bench::workload(args, "sundog");
  add("sundog", sim::simulate(sundog.topology,
                              topo::sundog_baseline_config(sundog.topology),
                              sundog.cluster, sundog.params, args.seed));

  std::printf("%s\n", t.render().c_str());
  std::printf(
      "Paper (Fig. 3): loads of a few MB/s per worker, far below the\n"
      "128 MB/s gigabit ceiling — the network is never saturated. The same\n"
      "must hold above.\n");
}

// Figure 4: mean throughput of each strategy's best configuration per
// cell, with the min/max of its repetitions as the error bars. Paper
// expectations:
//  * 0% TiIm / 0% cont: ipla dominates medium+large; bo cannot beat it;
//    small: everything ties.
//  * 100% TiIm / 0% cont: informed still helps; bo partially compensates
//    for missing topology information (bo > pla on medium/large).
//  * 0% TiIm / 25% cont: bo helps substantially on medium/large.
//  * 100% TiIm / 25% cont: information stops helping; everything is hard.
//  * bo180 >= bo everywhere it is run.
void print_fig4(const Args& args,
                const std::vector<bench::CampaignCell>& runs) {
  header("Figure 4: throughput by strategy and workload cell", args);
  TextTable t({"Cell", "Strategy", "Mean tuples/s", "Min", "Max",
               "Best step", "Best config (hints summary)"});
  for (const bench::CampaignCell& r : runs) {
    const auto& stats = r.best.best_rep_stats;
    // Summarize hints as min/avg/max to keep the row readable.
    const auto& hints = r.best.best_config.parallelism_hints;
    int lo = 1 << 30, hi = 0;
    long long sum = 0;
    for (int h : hints) {
      lo = std::min(lo, h);
      hi = std::max(hi, h);
      sum += h;
    }
    char hint_summary[64];
    std::snprintf(hint_summary, sizeof(hint_summary),
                  "min=%d avg=%.1f max=%d", hints.empty() ? 0 : lo,
                  hints.empty() ? 0.0
                                : static_cast<double>(sum) /
                                      static_cast<double>(hints.size()),
                  hi);
    t.add_row({r.cell.label(), r.strategy, TextTable::num(stats.mean, 1),
               TextTable::num(stats.min, 1), TextTable::num(stats.max, 1),
               std::to_string(r.best.best_step), hint_summary});
  }
  std::printf("%s", t.render().c_str());
}

// Figure 5: the step at which each strategy first measured its best, min,
// average and max over the passes. Expectation: the linear strategies
// converge in few steps, bo needs many more, and the informed variants
// converge faster than their uninformed counterparts.
void print_fig5(const Args& args,
                const std::vector<bench::CampaignCell>& runs) {
  header("Figure 5: steps to best configuration", args);
  TextTable t({"Cell", "Strategy", "Steps (min)", "Steps (avg)",
               "Steps (max)", "Steps run"});
  for (const bench::CampaignCell& r : runs) {
    if (r.strategy == "bo180") continue;
    std::size_t lo = static_cast<std::size_t>(-1), hi = 0, sum = 0;
    std::size_t steps_run = 0;
    for (const auto& pass : r.passes) {
      lo = std::min(lo, pass.best_step);
      hi = std::max(hi, pass.best_step);
      sum += pass.best_step;
      steps_run = std::max(steps_run, pass.trace.size());
    }
    const double avg =
        static_cast<double>(sum) / static_cast<double>(r.passes.size());
    t.add_row({r.cell.label(), r.strategy, std::to_string(lo),
               TextTable::num(avg, 1), std::to_string(hi),
               std::to_string(steps_run)});
  }
  std::printf("%s", t.render().c_str());
}

// Figure 7: the mean wall-clock time of one optimizer step. The paper
// measured 35/90/173 s for bo at 10/50/100 parameters on its machine; the
// claim is the sublinear shape, and ibo is somewhat slower than bo. Results
// carry no timing, so bench::SuggestTimer times the proposals.
void print_fig7(const Args& args,
                const std::vector<bench::CampaignCell>& runs) {
  header("Figure 7: optimizer step wall-time", args);
  TextTable t({"Cell", "Strategy", "Params", "Avg step (s)", "Max step (s)"});
  for (const bench::CampaignCell& r : runs) {
    if (r.strategy == "bo180") continue;
    const std::size_t params =
        r.strategy == "ibo"  ? 2  // multiplier + max-tasks
        : r.strategy == "bo" ? r.best.best_config.parallelism_hints.size() + 1
                             : 1;
    t.add_row({r.cell.label(), r.strategy, std::to_string(params),
               TextTable::num(r.mean_step_seconds, 4),
               TextTable::num(r.max_step_seconds, 4)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "Expected shape: pla/ipla ~ 0 s; bo/ibo step time grows sublinearly\n"
      "from small (11 params) through medium (51) to large (101).\n");
}

// Figures 4, 5 and 7 from one run of the synthetic grid: {small, medium,
// large} x {0, 100}% time-complexity imbalance x {0, 25}% contentious
// operators, each tuned by pla, bo, ipla and ibo (and bo180, Figure 4
// only, when its budget is set).
void grid(const Args& args) {
  std::vector<std::string> strategies{"pla", "bo", "ipla", "ibo"};
  if (args.bo180_steps > 0) strategies.push_back("bo180");
  std::vector<bench::CampaignCell> runs;
  for (const auto& cell : bench::figure4_cells()) {
    for (const auto& strategy : strategies) {
      runs.push_back(bench::run_synthetic_cell(args, cell, strategy));
      std::fprintf(stderr, "[grid] %s %s done (mean %.1f tuples/s)\n",
                   cell.label().c_str(), strategy.c_str(),
                   runs.back().best.best_rep_stats.mean);
    }
  }
  print_fig4(args, runs);
  print_fig5(args, runs);
  print_fig7(args, runs);
}

/// LOESS (span 0.75, local lines) of a pass's per-step throughput.
std::vector<double> loess_trace(const tuning::ExperimentResult& pass) {
  std::vector<double> xs, ys;
  for (const auto& step : pass.trace) {
    xs.push_back(static_cast<double>(step.step));
    ys.push_back(step.throughput);
  }
  return loess_smooth(xs, ys, {.span = 0.75, .degree = 1});
}

// Figure 6: LOESS(0.75) of bo's per-step throughput traces, one series per
// topology size, for each workload quadrant. Expectation: small/medium
// find good settings within 50/100 steps; large with time imbalance keeps
// improving past step 100.
void fig6(const Args& base) {
  Args args = base;
  // The paper plots traces up to 180 steps; by default run bo a bit longer
  // than the Figure 4 budget to show the trend.
  const std::size_t trace_steps =
      args.bo180_steps > 0 ? args.bo180_steps : args.bo_steps + 15;
  args.reps = 0;  // traces only; no best-config repetitions needed
  std::printf("== Figure 6: LOESS(0.75) of bo optimization traces ==\n"
              "(%s, trace_steps=%zu)\n\n",
              args.describe().c_str(), trace_steps);

  for (const double cont : {0.0, 0.25}) {
    for (const bool tiim : {false, true}) {
      std::printf("--- quadrant: TiIm=%s, contention=%s ---\n",
                  tiim ? "100%" : "0%", cont > 0.0 ? "25%" : "0%");
      TextTable t({"Step", "small", "medium", "large"});

      std::vector<std::vector<double>> smoothed;
      std::size_t min_len = trace_steps;
      for (const auto size : kSizes) {
        const bench::CellSpec cell{size, tiim, cont};
        const bench::CampaignCell r =
            bench::run_synthetic_cell(args, cell, "bo", trace_steps);
        smoothed.push_back(loess_trace(r.best));
        min_len = std::min(min_len, smoothed.back().size());
        std::fprintf(stderr, "[fig6] %s done (%zu steps)\n",
                     cell.label().c_str(), r.best.trace.size());
      }

      const std::size_t stride = std::max<std::size_t>(1, min_len / 12);
      for (std::size_t i = 0; i < min_len; i += stride) {
        t.add_row({std::to_string(i + 1), TextTable::num(smoothed[0][i], 1),
                   TextTable::num(smoothed[1][i], 1),
                   TextTable::num(smoothed[2][i], 1)});
      }
      std::printf("%s\n", t.render().c_str());
    }
  }
}

// Figures 8a and 8b from one run of the Sundog campaigns: pla and bo (and
// bo180 with --full / --bo180=N, Figure 8a only) over Section V-D's
// parameter sets:
//   h        — parallelism hints (batch size 50k / batch parallelism 5
//              fixed at the developers' hand-tuned values);
//   h bs bp  — hints plus batch size and batch parallelism;
//   bs bp cc — hints fixed at the pla optimum; batch + concurrency tuned.
// Paper numbers: pla.h 611k, bo.h 660k, bo180.h 699k tuples/s — pairwise
// t-tests insignificant at p=0.05; bo h+bs+bp 1.68M (a 2.8x gain over
// pla.h); bo bs+bp+cc 1.63M, not significantly different from h+bs+bp.
// Figure 8b's shape: hints alone stay flat; adding batch size/parallelism
// eventually reaches ~3x; fixing hints and tuning batch+concurrency gets
// there fastest.
void sundog(const Args& base) {
  Args args = base;
  if (!args.full) {
    // The Sundog "h" spaces are 26/27-dimensional; the quick scale still
    // needs a meaningful step budget for the optimizer to move.
    args.bo_steps = std::max<std::size_t>(args.bo_steps, 60);
    args.pla_steps = std::max<std::size_t>(args.pla_steps, 25);
  }
  struct Run {
    std::string strategy;
    std::string set;
  };
  std::vector<Run> runs{{"pla", "h"}, {"bo", "h"}, {"bo", "h_bs_bp"},
                        {"bo", "bs_bp_cc"}};
  if (args.bo180_steps > 0) {
    for (const char* set : {"h", "h_bs_bp", "bs_bp_cc"}) {
      runs.push_back({"bo180", set});
    }
  }
  std::vector<bench::SundogResult> results;
  for (const Run& run : runs) {
    results.push_back(bench::run_sundog_campaign(args, run.strategy, run.set));
    std::fprintf(stderr, "[sundog] %s.%s done (%s tuples/s)\n",
                 run.strategy.c_str(), run.set.c_str(),
                 bench::format_rate(results.back().best.best_rep_stats.mean)
                     .c_str());
  }

  header("Figure 8a: Sundog throughput by strategy/parameter set", args);
  TextTable t({"Strategy", "Set", "Mean tuples/s", "Min", "Max",
               "Best config"});
  for (const bench::SundogResult& r : results) {
    const auto& stats = r.best.best_rep_stats;
    const sim::TopologyConfig& best = r.best.best_config;
    std::string cfg = "bs=" + std::to_string(best.batch_size) +
                      " bp=" + std::to_string(best.batch_parallelism);
    if (r.param_set == "bs_bp_cc") {
      cfg += " wt=" + std::to_string(best.worker_threads) +
             " rt=" + std::to_string(best.receiver_threads) +
             " ackers=" + std::to_string(best.num_ackers);
    }
    t.add_row({r.strategy, r.param_set, bench::format_rate(stats.mean),
               bench::format_rate(stats.min), bench::format_rate(stats.max),
               cfg});
  }
  std::printf("%s\n", t.render().c_str());

  // The paper's significance analysis (two-sided t-tests at p = 0.05).
  const bench::SundogResult& pla_h = results[0];
  const bench::SundogResult& bo_h = results[1];
  const bench::SundogResult& bo_hbsbp = results[2];
  const bench::SundogResult& bo_cc = results[3];
  auto verdict = [](const TTestResult& tt) {
    return tt.significant_at(0.05) ? "significant" : "insignificant";
  };
  if (pla_h.best.best_rep_values.size() >= 2) {
    const TTestResult tt = welch_t_test(pla_h.best.best_rep_values,
                                        bo_h.best.best_rep_values);
    std::printf("t-test pla.h vs bo.h: p=%.3f (%s; paper: insignificant)\n",
                tt.p_value, verdict(tt));
  }
  if (bo_hbsbp.best.best_rep_values.size() >= 2) {
    const TTestResult tt = welch_t_test(bo_hbsbp.best.best_rep_values,
                                        bo_cc.best.best_rep_values);
    std::printf(
        "t-test bo.h_bs_bp vs bo.bs_bp_cc: p=%.3f (%s; paper: "
        "insignificant)\n",
        tt.p_value, verdict(tt));
  }
  std::printf("gain bo.h_bs_bp over pla.h: %.2fx (paper: 2.8x)\n",
              bo_hbsbp.best.best_rep_stats.mean /
                  pla_h.best.best_rep_stats.mean);

  // Figure 8b plots the first four campaigns. Each series is the trace of
  // the pass with the highest single measurement, the first pass winning
  // ties: the pass a campaign without repetitions reports.
  header("Figure 8b: Sundog tuning convergence (LOESS 0.75)", args);
  std::vector<std::vector<double>> smooth;
  std::size_t min_len = static_cast<std::size_t>(-1);
  for (std::size_t s = 0; s < 4; ++s) {
    const std::vector<tuning::ExperimentResult>& passes = results[s].passes;
    const tuning::ExperimentResult* win = &passes[0];
    for (const tuning::ExperimentResult& pass : passes) {
      if (pass.best_throughput > win->best_throughput) win = &pass;
    }
    smooth.push_back(loess_trace(*win));
    min_len = std::min(min_len, smooth.back().size());
  }
  TextTable series({"Step", "pla.h", "bo.h", "bo.h_bs_bp", "bo.bs_bp_cc"});
  const std::size_t stride = std::max<std::size_t>(1, min_len / 15);
  for (std::size_t i = 0; i < min_len; i += stride) {
    series.add_row({std::to_string(i + 1), bench::format_rate(smooth[0][i]),
                    bench::format_rate(smooth[1][i]),
                    bench::format_rate(smooth[2][i]),
                    bench::format_rate(smooth[3][i])});
  }
  std::printf("%s", series.render().c_str());
}

/// One bo campaign on medium/TiIm100, a cell where hint placement has real
/// headroom, over per-node hints of at most 20 plus the max-tasks cap,
/// with optimizer options `bopts`: the workload of the kernel and
/// hyperparameter ablations. Pass p's tuner is seeded tuner_seed + p; the
/// campaign is recorded as `record`.
struct BoVariant {
  tuning::ExperimentResult best;
  double mean_step_seconds = 0.0;
};

BoVariant run_bo_variant(const Args& args, const bo::BayesOptOptions& bopts,
                         std::uint64_t tuner_seed,
                         std::uint64_t objective_seed,
                         const std::string& record) {
  const tuning::Workload w = bench::workload(args, "medium", /*tiim=*/true);

  bench::SuggestTimer timer(args.passes);
  BoVariant out;
  out.best = bench::run_bench_campaign(
      args, record,
      timer.wrap([&](std::size_t pass) {
        tuning::TunerSpec tuner;
        tuner.defaults = bench::synthetic_defaults();
        tuner.space.hint_max = 20;
        tuner.bo = bopts;
        tuner.seed = tuner_seed + pass;
        tuner.name = "bo";
        return tuning::make_tuner("bo", w.topology, std::move(tuner));
      }),
      tuning::sim_objective_factory(w.topology, w.cluster, w.params,
                                    objective_seed),
      bench::experiment_options(args, "bo"));
  out.mean_step_seconds = timer.mean_step_seconds();
  return out;
}

// Ablation: GP covariance kernel (Matern 5/2 and squared exponential;
// isotropic vs ARD lengthscales). Spearmint's default — and hence the
// paper's — is ARD Matern 5/2. SE assumes a much smoother objective than
// a config-to-throughput landscape usually is. ARD costs O(dim) extra
// hyperparameters per MCMC sweep, which matters at 100 parameters (the
// paper's Figure 7 concern). Matern 3/2 measured no better than Matern
// 5/2 over 8 seeds and was removed (EXPERIMENTS.md).
void ablation_kernel(const Args& args) {
  header("Ablation: GP kernel family and ARD", args);
  TextTable t({"Kernel", "ARD", "Mean tuples/s", "Best step",
               "Avg step (s)"});
  // A family's tuner seed offset is the value its enumerator had while
  // Matern 3/2 existed, so each row keeps the record EXPERIMENTS.md's
  // 8-seed table holds.
  struct Arm {
    gp::KernelFamily family;
    std::uint64_t seed_offset;
  };
  for (const Arm arm : {Arm{gp::KernelFamily::kMatern52, 2},
                        Arm{gp::KernelFamily::kSquaredExponential, 0}}) {
    const std::string family = gp::to_string(arm.family);
    for (const bool ard : {false, true}) {
      bo::BayesOptOptions bopts = bench::bench_bo_options();
      bopts.kernel = arm.family;
      bopts.ard = ard;
      const BoVariant v = run_bo_variant(
          args, bopts, args.seed * 23 + arm.seed_offset + (ard ? 7 : 0),
          args.seed + 3, "ablation-kernel/" + family + (ard ? "/ard" : "/iso"));
      t.add_row({family, ard ? "yes" : "no",
                 bench::format_rate(v.best.best_rep_stats.mean),
                 std::to_string(v.best.best_step),
                 TextTable::num(v.mean_step_seconds, 4)});
      std::fprintf(stderr, "[ablation-kernel] %s ard=%d done\n",
                   family.c_str(), ard);
    }
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("Workload: medium synthetic topology, 100%% TiIm "
              "(51-dim hint space + max-tasks).\n");
}

// Ablation: GP hyperparameter handling — MCMC marginalization (slice
// sampling, Spearmint's scheme) against fixed defaults, the degenerate
// baseline. Marginalization is what makes Spearmint robust on noisy
// objectives. A point MAP estimate measured no better than slice sampling
// over 8 seeds, and no cheaper per step, and was removed (EXPERIMENTS.md).
void ablation_hyper(const Args& args) {
  header("Ablation: hyperparameter handling (slice / fixed)", args);
  TextTable t({"Hyper mode", "Mean tuples/s", "Best step", "Avg step (s)"});
  // As in ablation_kernel, a mode's tuner seed offset is the value its
  // enumerator had while the MAP search existed.
  struct Arm {
    bo::HyperMode mode;
    std::uint64_t seed_offset;
  };
  for (const Arm arm : {Arm{bo::HyperMode::kSliceSample, 0},
                        Arm{bo::HyperMode::kFixed, 2}}) {
    const std::string mode = bo::to_string(arm.mode);
    bo::BayesOptOptions bopts = bench::bench_bo_options();
    bopts.hyper_mode = arm.mode;
    const BoVariant v =
        run_bo_variant(args, bopts, args.seed * 29 + arm.seed_offset,
                       args.seed + 4, "ablation-hyper/" + mode);
    t.add_row({mode, bench::format_rate(v.best.best_rep_stats.mean),
               std::to_string(v.best.best_step),
               TextTable::num(v.mean_step_seconds, 4)});
    std::fprintf(stderr, "[ablation-hyper] %s done\n", mode.c_str());
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("Workload: medium synthetic topology, 100%% TiIm "
              "(51-dim hint space).\n");
}

/// Wraps an objective and averages k measurements per evaluate() call.
class AveragingObjective final : public tuning::Objective {
 public:
  AveragingObjective(tuning::Objective& inner, std::size_t k)
      : inner_(inner), k_(k) {}

  double evaluate(const sim::TopologyConfig& config) override {
    double sum = 0.0;
    for (std::size_t i = 0; i < k_; ++i) sum += inner_.evaluate(config);
    return sum / static_cast<double>(k_);
  }

 private:
  tuning::Objective& inner_;
  std::size_t k_;
};

// Ablation: one sample per configuration (the paper's protocol) against
// the average of several runs, which the paper's conclusion (Section VI)
// names as future work. Averaging spends its budget in evaluations, so at
// equal evaluation cost the single-sample optimizer sees 3x more distinct
// configurations.
void ablation_noise(const Args& args) {
  header("Ablation: single-sample vs averaged measurements", args);

  tuning::Workload w = bench::workload(args, "small", /*tiim=*/true);
  // Crank the noise so the ablation has something to average away: heavy
  // student use of the lab machines.
  w.params.throughput_noise_sd = 0.10;
  w.params.background_load_prob = 0.10;

  TextTable t({"Protocol", "Configs tested", "Evaluations",
               "True tuples/s of chosen config"});

  // Noise-free probe for judging the chosen configuration fairly.
  sim::SimParams clean = w.params;
  clean.throughput_noise_sd = 0.0;
  clean.background_load_prob = 0.0;

  const std::size_t avg_k = 3;
  const std::size_t budget = args.bo_steps * avg_k;  // total evaluations

  struct Protocol {
    std::string name;
    std::size_t steps;
    std::size_t k;
  };
  for (const Protocol& proto :
       {Protocol{"single-sample", budget, 1},
        Protocol{"average-of-3", budget / avg_k, avg_k}}) {
    tuning::SimObjective raw(w.topology, w.cluster, w.params,
                             args.seed + 5);
    AveragingObjective objective(raw, proto.k);
    tuning::TunerSpec tuner_spec;
    tuner_spec.defaults = bench::synthetic_defaults();
    // Contended deep bolts need small batches.
    tuner_spec.defaults.batch_size = 50;
    tuner_spec.space.hint_max = 20;
    tuner_spec.bo = bench::bench_bo_options();
    tuner_spec.seed = args.seed * 31;
    tuner_spec.name = "bo." + proto.name;
    const auto tuner =
        tuning::make_tuner("bo", w.topology, std::move(tuner_spec));
    tuning::ExperimentOptions eopts;
    eopts.max_steps = proto.steps;
    eopts.best_config_reps = 0;
    eopts.zero_streak_stop = 0;  // noisy cells hit zeros; keep searching
    const auto r = tuning::run_experiment(*tuner, objective, eopts);

    const auto truth = sim::simulate(w.topology, r.best_config,
                                     w.cluster, clean,
                                     args.seed + 99);
    t.add_row({proto.name, std::to_string(proto.steps),
               std::to_string(raw.num_evaluations()),
               bench::format_rate(truth.noiseless_throughput)});
    std::fprintf(stderr, "[ablation-noise] %s done\n", proto.name.c_str());
  }

  std::printf("%s\n", t.render().c_str());
  std::printf("Noise model: 10%% multiplicative measurement noise plus a\n"
              "10%% chance per machine of a half-speed background load.\n");
}

// Ablation: fan-out semantics of the synthetic edges. Storm's subscriber
// semantics duplicate a bolt's emission to every downstream subscriber,
// making per-node load proportional to the number of source paths — the
// "base parallelism weight" of Section V-A, so the informed strategies
// dominate (the paper's top-left Figure 4 result). Section IV-B4 however
// says tuples are "evenly shuffled among downstream bolts", i.e.
// partitioned, which flattens the load. pla and ipla run under both.
void ablation_fanout(const Args& args) {
  header("Ablation: edge fan-out semantics (split vs duplicate)", args);
  TextTable t({"Topology", "Fan-out", "Strategy", "Mean tuples/s",
               "ipla/pla"});

  for (const auto size : {topo::TopologySize::kMedium,
                          topo::TopologySize::kLarge}) {
    for (const bool split : {true, false}) {
      tuning::Workload w = bench::workload(args, topo::to_string(size));
      for (std::size_t v = 0; v < w.topology.num_nodes(); ++v) {
        w.topology.node(v).split_output = split;
      }

      double means[2] = {0.0, 0.0};
      const char* names[2] = {"pla", "ipla"};
      for (int i = 0; i < 2; ++i) {
        const auto best = bench::run_bench_campaign(
            args,
            "ablation-fanout/" + topo::to_string(size) +
                (split ? "/split/" : "/duplicate/") + names[i],
            [&](std::size_t) {
              tuning::TunerSpec tuner;
              tuner.defaults = bench::synthetic_defaults();
              return tuning::make_tuner(names[i], w.topology, std::move(tuner));
            },
            tuning::sim_objective_factory(w.topology, w.cluster, w.params,
                                          args.seed + 6),
            bench::experiment_options(args, names[i]));
        means[i] = best.best_rep_stats.mean;
      }
      for (int i = 0; i < 2; ++i) {
        t.add_row({topo::to_string(size), split ? "split" : "duplicate",
                   names[i], bench::format_rate(means[i]),
                   i == 1 ? TextTable::num(means[1] / means[0], 2) : "-"});
      }
      std::fprintf(stderr, "[ablation-fanout] %s %s done\n",
                   topo::to_string(size).c_str(),
                   split ? "split" : "duplicate");
    }
  }

  std::printf("%s\n", t.render().c_str());
  std::printf(
      "Expectation: under duplicate (Storm subscriber) semantics the\n"
      "informed strategy dominates, reproducing the paper's top-left\n"
      "Figure 4 quadrant; under split semantics the load is flat and\n"
      "uniform hints are already near-optimal.\n");
}

bool constant(const std::vector<double>& xs) {
  return std::adjacent_find(xs.begin(), xs.end(), std::not_equal_to<>()) ==
         xs.end();
}

// Ablation: discrete-event simulation against the closed-form fluid model.
// The paper's core argument for blackbox optimization is that no usable
// closed-form cost model of the deployed system exists (Section III-C).
// Over a hint sweep and random configurations this reports how fluid
// estimates track DES measurements, and what a tuner that trusted the
// fluid model would lose — the cost-model failure mode of the Section II-A
// related work.
void ablation_fluid(const Args& args) {
  header("Ablation: DES vs fluid bottleneck model", args);

  tuning::Workload w =
      bench::workload(args, "medium", /*tiim=*/true, /*contention=*/0.25);
  w.params.throughput_noise_sd = 0.0;

  // 1. Uniform hint sweep: fluid vs DES side by side.
  TextTable sweep({"Hint", "DES tuples/s", "Fluid tuples/s", "Fluid/DES"});
  for (int h : {1, 2, 4, 8, 12, 16, 20}) {
    sim::TopologyConfig c = bench::synthetic_defaults();
    c.parallelism_hints.assign(w.topology.num_nodes(), h);
    const auto des =
        sim::simulate(w.topology, c, w.cluster, w.params, args.seed);
    const auto fluid = sim::fluid_estimate(w.topology, c, w.cluster, w.params);
    sweep.add_row({std::to_string(h),
                   TextTable::num(des.noiseless_throughput, 1),
                   TextTable::num(fluid.throughput_tuples_per_s, 1),
                   TextTable::num(fluid.throughput_tuples_per_s /
                                      std::max(des.noiseless_throughput, 1.0),
                                  2)});
  }
  std::printf("%s\n", sweep.render().c_str());

  // 2. Random configurations: rank correlation proxy.
  Rng rng(args.seed);
  std::vector<double> des_r, fluid_r;
  for (int i = 0; i < 40; ++i) {
    sim::TopologyConfig c = bench::synthetic_defaults();
    c.parallelism_hints.resize(w.topology.num_nodes());
    for (auto& h : c.parallelism_hints) {
      h = static_cast<int>(rng.uniform_int(1, 20));
    }
    c.batch_parallelism = static_cast<int>(rng.uniform_int(1, 16));
    const auto des = sim::simulate(w.topology, c, w.cluster, w.params,
                                   args.seed + static_cast<std::uint64_t>(i));
    const auto fluid = sim::fluid_estimate(w.topology, c, w.cluster, w.params);
    des_r.push_back(des.noiseless_throughput);
    fluid_r.push_back(fluid.throughput_tuples_per_s);
  }
  // Short windows can measure every configuration at one throughput.
  if (constant(fluid_r) || constant(des_r)) {
    std::printf("Pearson correlation (fluid vs DES) over 40 random configs: "
                "undefined (a sample has zero variance)\n");
  } else {
    std::printf("Pearson correlation (fluid vs DES) over 40 random configs: "
                "%.3f\n",
                pearson_correlation(fluid_r, des_r));
  }

  // 3. Fluid-guided choice vs measurement-guided choice.
  std::size_t best_fluid = 0, best_des = 0;
  for (std::size_t i = 0; i < des_r.size(); ++i) {
    if (fluid_r[i] > fluid_r[best_fluid]) best_fluid = i;
    if (des_r[i] > des_r[best_des]) best_des = i;
  }
  std::printf(
      "Config the fluid model would pick achieves %.1f tuples/s on DES;\n"
      "the measured best achieves %.1f (%.0f%% regret from trusting the\n"
      "cost model instead of sampling — the paper's motivation for a\n"
      "blackbox approach).\n",
      des_r[best_fluid], des_r[best_des],
      100.0 * (1.0 - des_r[best_fluid] / std::max(des_r[best_des], 1.0)));
}

/// Mean, min and max throughput of `reps` seeded runs of one deployment.
Summary placement_runs(const sim::Topology& topology,
                       const sim::TopologyConfig& config,
                       const sim::ClusterSpec& cluster,
                       const sim::SimParams& params, const Args& args) {
  std::vector<double> runs;
  for (std::size_t i = 0; i < args.reps; ++i) {
    runs.push_back(sim::simulate(topology, config, cluster, params,
                                 args.seed + i)
                       .throughput_tuples_per_s);
  }
  return summarize(runs);
}

// Ablation: task placement policy (Storm's even scheduler, random,
// load-aware). A load-aware placement partially masks bad parallelism
// hints and a random one amplifies them; the paper deploys with the even
// scheduler. This measures how much of the tuning problem is placement.
void ablation_scheduler(const Args& args) {
  header("Ablation: task placement policy", args);
  TextTable t({"Workload", "Policy", "Mean tuples/s", "Min", "Max"});
  const auto policies = {sim::SchedulerPolicy::kRoundRobin,
                         sim::SchedulerPolicy::kRandom,
                         sim::SchedulerPolicy::kLoadAware};
  auto add = [&](const char* workload, sim::SchedulerPolicy policy,
                 const Summary& s) {
    t.add_row({workload, sim::to_string(policy), bench::format_rate(s.mean),
               bench::format_rate(s.min), bench::format_rate(s.max)});
  };

  // Sundog under its hand-tuned configuration.
  {
    tuning::Workload w = bench::workload(args, "sundog");
    const sim::TopologyConfig config =
        topo::sundog_baseline_config(w.topology, 11);
    for (const auto policy : policies) {
      w.params.scheduler = policy;
      add("sundog (hints=11)", policy,
          placement_runs(w.topology, config, w.cluster, w.params, args));
    }
  }

  // Imbalanced medium topology with deliberately skewed hints (deep nodes
  // over-parallelized) on a small cluster — where placement matters most.
  {
    tuning::Workload w = bench::workload(args, "medium", /*tiim=*/true);
    w.cluster.num_machines = 10;  // placement pressure
    sim::TopologyConfig config = bench::synthetic_defaults();
    const auto weights = w.topology.base_parallelism_weights();
    config.parallelism_hints.resize(w.topology.num_nodes());
    for (std::size_t v = 0; v < w.topology.num_nodes(); ++v) {
      config.parallelism_hints[v] =
          std::max(1, static_cast<int>(weights[v]));
    }
    config.max_tasks = 200;
    for (const auto policy : policies) {
      w.params.scheduler = policy;
      add("medium/TiIm100, 10 machines", policy,
          placement_runs(w.topology, config, w.cluster, w.params, args));
    }
  }
  std::printf("%s", t.render().c_str());
}

struct Entry {
  std::string_view name;
  const char* paper;  ///< what the entry reproduces
  void (*run)(const Args&);
};

constexpr Entry kEntries[] = {
    {"table1", "Table I: configuration parameters", table1},
    {"table2", "Table II: generated benchmark topologies", table2},
    {"table3", "Table III: topology sizes in the literature", table3},
    {"fig3", "Fig. 3: network load per worker", fig3},
    {"grid", "Figs. 4, 5, 7: throughput, steps to best, step time", grid},
    {"fig6", "Fig. 6: LOESS of bo traces", fig6},
    {"sundog", "Figs. 8a, 8b: Sundog throughput and convergence", sundog},
    {"ablation-kernel", "Sec. III-C: GP kernel family and ARD",
     ablation_kernel},
    {"ablation-hyper", "Sec. III-C: slice sampling vs fixed hyperparameters",
     ablation_hyper},
    {"ablation-noise", "Sec. VI: single-sample vs averaged measurements",
     ablation_noise},
    {"ablation-fanout", "Secs. IV-B4, V-A: split vs duplicate fan-out",
     ablation_fanout},
    {"ablation-fluid", "Sec. III-C: DES vs the fluid cost model",
     ablation_fluid},
    {"ablation-scheduler", "Sec. V: task placement policy",
     ablation_scheduler},
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: bench_repro <entry>... | all | list [--full] "
               "[--steps=N] [--bo-steps=N] [--bo180=N] [--reps=N] "
               "[--passes=N] [--duration=S] [--seed=N] [--threads=N] "
               "[--campaigns-json=FILE]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> flags{argv[0]};
  std::vector<const Entry*> run;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a.starts_with("-")) {
      flags.push_back(argv[i]);
    } else if (a == "list") {
      list = true;
    } else if (a == "all") {
      for (const Entry& e : kEntries) run.push_back(&e);
    } else {
      const auto e = std::find_if(std::begin(kEntries), std::end(kEntries),
                                  [&](const Entry& x) { return x.name == a; });
      if (e == std::end(kEntries)) {
        std::fprintf(stderr, "unknown entry '%s' (bench_repro list names "
                             "them)\n", argv[i]);
        usage();
      }
      run.push_back(e);
    }
  }
  const Args args = Args::parse(static_cast<int>(flags.size()), flags.data());
  if (list) {
    for (const Entry& e : kEntries) {
      std::printf("%-22s %s\n", std::string(e.name).c_str(), e.paper);
    }
    return 0;
  }
  if (run.empty()) usage();
  try {
    for (const Entry* e : run) e->run(args);
  } catch (const stormtune::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
