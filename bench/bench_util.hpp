// Shared infrastructure for the paper-reproduction benchmark binaries.
//
// Every bench binary regenerates one table or figure of the paper. They
// default to a reduced scale (shorter simulated windows, fewer optimization
// steps and repetitions) so the whole suite runs in minutes; pass --full to
// reproduce the paper's exact protocol (60/180 steps, 120 s windows, 30
// repetitions, 2 passes).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bayesopt/bayesopt.hpp"
#include "stormsim/cluster.hpp"
#include "stormsim/config.hpp"
#include "stormsim/topology.hpp"
#include "topology/synthetic.hpp"
#include "tuning/experiment.hpp"
#include "tuning/tuner.hpp"

namespace stormtune::bench {

struct Args {
  bool full = false;
  std::size_t pla_steps = 20;
  std::size_t bo_steps = 25;
  std::size_t bo180_steps = 0;  ///< 0 disables the bo180 runs
  std::size_t reps = 10;        ///< best-config repetitions
  std::size_t passes = 2;       ///< independent optimization passes
  double duration_s = 15.0;     ///< simulated measurement window
  std::uint64_t seed = 2015;    ///< campaign base seed (the paper's year)
  /// Campaign pool width, the calling thread included (so --threads=2 adds
  /// ONE worker next to the caller); 0 = auto (min(hardware, 8)). Results
  /// are bit-identical for any value.
  std::size_t threads = 0;
  /// When non-empty, every campaign a bench binary runs through
  /// run_synthetic_cell / run_sundog_campaign is also appended here as one
  /// JSON line (same record shape as the tune-many result sink), in
  /// execution order.
  std::string campaigns_json;

  /// Parse --full, --steps=N, --bo-steps=N, --bo180=N, --reps=N,
  /// --passes=N, --duration=S, --seed=N, --threads=N (pool width, caller
  /// included; 0 = auto), --campaigns-json=FILE. --full switches every
  /// default to the paper-scale protocol first; explicit flags then
  /// override. An unknown flag or a malformed number exits 2. The kernel
  /// dispatch path is the STORMTUNE_ISA environment variable's.
  static Args parse(int argc, char** argv);

  /// The campaign pool width implied by `threads` (results are
  /// bit-identical for any value; see run_campaign).
  std::size_t pool_threads() const;

  std::string describe() const;
};

/// One cell of the paper's synthetic grid (Figures 4-7).
struct CellSpec {
  topo::TopologySize size = topo::TopologySize::kSmall;
  bool time_imbalance = false;
  double contention = 0.0;

  std::string label() const;
};

/// All 12 cells: {small,medium,large} x {0,100}% TiIm x {0,25}% contention.
std::vector<CellSpec> figure4_cells();

/// Default deployment configuration for synthetic-topology experiments.
sim::TopologyConfig synthetic_defaults();

/// Bayesian-optimizer options used by the bench harness (Spearmint-like:
/// Matern 5/2, EI, slice-sampled hyperparameters kept light).
bo::BayesOptOptions bench_bo_options(std::uint64_t seed);

/// Build a tuner by strategy name: "pla", "ipla", "bo", "ibo", "random".
std::unique_ptr<tuning::Tuner> make_synthetic_tuner(
    const std::string& strategy, const sim::Topology& topology,
    const sim::TopologyConfig& defaults, std::uint64_t seed);

/// Experiment options derived from Args for a given strategy.
tuning::ExperimentOptions experiment_options(const Args& args,
                                             const std::string& strategy,
                                             std::size_t step_override = 0);

/// Per-pass SimObjective factory with the harness's seed stride: pass p
/// measures with seed + 0x632be59bd9b4e019 * p, so pass 0 keeps `seed` and
/// the passes draw independent noise.
tuning::ObjectiveFactory sim_objective_factory(const sim::Topology& topology,
                                              const sim::ClusterSpec& cluster,
                                              const sim::SimParams& params,
                                              std::uint64_t seed);

/// Run one campaign of args.passes passes over args.pool_threads() workers
/// (tuning::run_campaign); all passes are appended to `passes` when
/// non-null.
tuning::ExperimentResult run_bench_campaign(
    const Args& args, tuning::TunerFactory make_tuner,
    tuning::ObjectiveFactory make_objective,
    const tuning::ExperimentOptions& options,
    std::vector<tuning::ExperimentResult>* passes = nullptr);

/// Wall-clock time of tuner proposals (Figure 7's optimizer step time).
/// Results carry no timing, so the harness measures it: wrap() decorates a
/// TunerFactory so the tuner built for pass p times each next() that
/// returns a config into slot p. Slots are sized up front and each pass
/// writes only its own, so no lock is needed. The timer must outlive every
/// campaign that runs a wrapped factory; read it after the campaign
/// returns.
class SuggestTimer {
 public:
  explicit SuggestTimer(std::size_t passes) : slots_(passes) {}
  SuggestTimer(const SuggestTimer&) = delete;
  SuggestTimer& operator=(const SuggestTimer&) = delete;

  tuning::TunerFactory wrap(tuning::TunerFactory make_tuner);

  /// Mean over passes of each pass's mean step time, in seconds.
  double mean_step_seconds() const;
  /// Slowest single step of any pass, in seconds.
  double max_step_seconds() const;

  struct Slot {
    std::size_t steps = 0;
    double total_s = 0.0;
    double max_s = 0.0;
  };

 private:
  std::vector<Slot> slots_;
};

/// Result of tuning one (cell, strategy) pair with the campaign protocol.
struct CampaignCell {
  CellSpec cell;
  std::string strategy;
  tuning::ExperimentResult best;             ///< better of the passes
  std::vector<tuning::ExperimentResult> passes;
  double mean_step_seconds = 0.0;  ///< SuggestTimer over the passes
  double max_step_seconds = 0.0;
};

/// Run the full campaign for one cell and strategy.
CampaignCell run_synthetic_cell(const Args& args, const CellSpec& cell,
                                const std::string& strategy,
                                std::size_t step_override = 0);

/// Append one campaign result to args.campaigns_json (no-op when unset):
/// {"ticket":N,"name":...,"result":{...}}, ticket counting appends within
/// this process. Called by the campaign runners above; standalone benches
/// with their own drivers can call it directly.
void record_campaign_result(const Args& args, const std::string& name,
                            const tuning::ExperimentResult& best);

/// Format tuples/s compactly (e.g. "611k", "1.68M").
std::string format_rate(double tuples_per_s);

/// Sundog parameter sets of Section V-D: "h" (hints + max-tasks),
/// "h_bs_bp" (plus batch size / batch parallelism), "bs_bp_cc" (hints fixed
/// at the pla optimum; batch + concurrency parameters tuned).
std::unique_ptr<tuning::Tuner> make_sundog_tuner(
    const std::string& strategy, const std::string& param_set,
    const sim::Topology& topology, std::uint64_t seed);

/// Run one Sundog tuning campaign (strategy x parameter set).
struct SundogResult {
  std::string strategy;
  std::string param_set;
  tuning::ExperimentResult best;
  std::vector<tuning::ExperimentResult> passes;
};

SundogResult run_sundog_campaign(const Args& args,
                                 const std::string& strategy,
                                 const std::string& param_set,
                                 std::size_t step_override = 0);

}  // namespace stormtune::bench
