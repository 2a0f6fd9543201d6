// Experiment driver implementing the paper's evaluation protocol.
//
// Section V-A: up to 60 optimization steps (180 for the bo180 runs); the
// linear-ascent strategies stop early after three consecutive
// zero-performance measurements; afterwards the best configuration is
// re-run 30 times (Figures 4 and 8 report mean/min/max of those
// repetitions); the whole procedure is run twice and the better pass is
// reported. Figure 7's per-step suggestion wall-time is not part of a
// result: the bench harness times tuner proposals itself, so a result is
// a pure function of its inputs.
//
// One pass state machine implements that protocol (campaign_scheduler.cpp).
// run_experiment steps it inline; run_campaign and run_campaigns step one
// instance per pass on a work-stealing StrandPool. Repetition r of a pass
// always evaluates on Objective::clone_stream(r), so no result depends on
// the entry point or the thread count.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "tuning/objective.hpp"
#include "tuning/tuner.hpp"

namespace stormtune::tuning {

struct ExperimentOptions {
  std::size_t max_steps = 60;
  /// Stop after this many consecutive zero-performance runs (paper: 3).
  std::size_t zero_streak_stop = 3;
  /// Repetitions of the best configuration after the optimization.
  std::size_t best_config_reps = 30;
};

struct StepRecord {
  std::size_t step = 0;  ///< 1-based
  double throughput = 0.0;
};

struct ExperimentResult {
  std::string strategy;
  std::vector<StepRecord> trace;
  sim::TopologyConfig best_config;
  double best_throughput = 0.0;  ///< best single measurement during tuning
  std::size_t best_step = 0;     ///< 1-based step that first hit the best
  /// Statistics of re-running best_config `best_config_reps` times.
  Summary best_rep_stats{};
  /// The raw repetition measurements (for significance tests, Fig. 8a).
  std::vector<double> best_rep_values;
};

/// Run one optimization pass: propose/evaluate/report until the step budget
/// or the zero-performance stop, then re-evaluate the best configuration.
/// Repetition r runs on objective.clone_stream(r); an objective that cannot
/// clone continues its own measurement sequence instead.
ExperimentResult run_experiment(Tuner& tuner, Objective& objective,
                                const ExperimentOptions& options);

using TunerFactory = std::function<std::unique_ptr<Tuner>(std::size_t pass)>;
using ObjectiveFactory =
    std::function<std::unique_ptr<Objective>(std::size_t pass)>;

/// One campaign: the paper's full protocol in factory form. Each pass gets
/// a fresh tuner and a fresh objective, so no state is shared across
/// passes. Both factories must be pure functions of the pass index and
/// safe to call concurrently: different passes start on different workers.
struct CampaignSpec {
  std::string name;                ///< label carried into sink records
  TunerFactory make_tuner;         ///< fresh tuner per pass
  ObjectiveFactory make_objective; ///< fresh objective per pass
  ExperimentOptions options;
  std::size_t passes = 2;          ///< paper protocol: best of two passes
};

/// Run every pass of `spec` (one run_experiment each, on its own tuner and
/// objective) over a StrandPool of `threads` workers, the caller included
/// (0 = default_thread_count), and return the pass whose
/// repetition mean is highest (best single measurement when reps are off;
/// ties keep the earlier pass). All passes are appended to `all_passes`
/// when non-null. The result is bit-identical for any thread count.
ExperimentResult run_campaign(const CampaignSpec& spec, std::size_t threads,
                              std::vector<ExperimentResult>* all_passes =
                                  nullptr);

}  // namespace stormtune::tuning
