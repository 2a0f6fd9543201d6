// Multi-fidelity evaluation ladder: fluid screening → adaptive-window
// promotion → full-DES incumbents.
//
// After the perf arc of PRs 1–7 the suggest and simulate hot paths are near
// the hardware ceiling, so the next order-of-magnitude win is evaluating
// FEWER expensive configurations, not evaluating them faster. The ladder
// stacks the three evaluators this repo already has by cost:
//
//   rung 0  sim::fluid_estimate        ~µs    closed-form upper bounds
//   rung 1  adaptive-window DES        ~ms    PR 4 confidence-stopped run
//   rung 2  full fixed-window DES      ~10ms+ the paper's 120 s measurement
//
// A LadderTuner screens every candidate batch at rung 0, promotes the
// fluid-best survivors to rung 1, and the FidelityLadder objective escalates
// a rung-1 result to a full rung-2 run only when it challenges the incumbent
// (within challenge_fraction) AND posts a decisive rung-1 record — every
// escalation raises a monotone high-water mark the next challenger must
// clear by a 2·rung1_epsilon margin, which stops a converging optimizer
// from buying full runs on noise re-draws of the same near-incumbent
// neighborhood. Rung-0 values never enter the optimizer —
// they are upper bounds on a different scale; only rung-1/rung-2 DES
// measurements are observed, tagged with their rung so the GP carries
// per-fidelity noise (uncertainty-aware multi-fidelity tuning in the spirit
// of Jamshidi & Casale) and the acquisition search charges each rung its
// measured simulated-time cost (expected improvement per second).
//
// Determinism: promotion decisions are a pure function of (candidate set,
// screen RNG stream); all rung costs are simulated milliseconds, never
// wall-clock; the promotion comparator is an explicit total order. Ladder
// campaigns are therefore bit-identical for any thread count under
// run_campaign and run_campaigns — screening runs inside the tuner's
// next(), i.e. inside the existing suggest strand step, so the scheduler
// needs no new phase for it.
//
// See DESIGN.md "Multi-fidelity evaluation ladder".
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "stormsim/fluid.hpp"
#include "tuning/experiment.hpp"
#include "tuning/objective.hpp"
#include "tuning/tuner.hpp"

namespace stormtune::tuning {

struct LadderOptions {
  /// Candidates fluid-screened per queue refill (one acquisition argmax
  /// plus screen_batch − 1 uniform draws from the space).
  std::size_t screen_batch = 8;
  /// Screened candidates promoted to rung 1 per refill, acquisition argmax
  /// included (clamped to [1, screen_batch]).
  std::size_t promote_top_k = 2;
  /// A rung-1 result challenges the incumbent (and is promoted to a full
  /// rung-2 run) when it exceeds challenge_fraction × incumbent AND clears
  /// the escalation high-water mark by 2 × rung1_epsilon (see
  /// FidelityLadder::evaluate).
  double challenge_fraction = 0.9;
  /// Adaptive-window confidence target for rung-1 runs (looser than the
  /// PR 4 default 0.05 — rung 1 is a screen, not a measurement).
  double rung1_epsilon = 0.1;
  /// Rung-1 measurement window as a fraction of the full window.
  double rung1_window_fraction = 0.25;
  /// Observation-noise variance multiple applied to rung-1 measurements
  /// when the caller leaves BayesOptOptions::rung_noise_variance empty.
  /// kFixed mode uses the variances directly; the sampled hyper modes carry
  /// them as fixed ratios on the inferred noise scale (see
  /// gp::apply_hyperparams' noise_ratio_diag).
  double rung1_noise_multiple = 4.0;
  /// Divide the acquisition by each candidate's expected evaluation cost
  /// (BayesOpt::set_acquisition_costs) once both rung costs are measured.
  bool cost_aware_acquisition = true;
};

struct LadderStats {
  std::size_t screened = 0;      ///< rung-0 fluid scores computed
  std::size_t rung1_evals = 0;   ///< adaptive-window DES runs
  std::size_t rung2_evals = 0;   ///< incumbent challenges promoted to full DES
  double rung1_simulated_ms = 0.0;
  double rung2_simulated_ms = 0.0;
};

/// Objective that escalates evaluations through the ladder. evaluate() runs
/// rung 1 (adaptive-window DES) and promotes to rung 2 (full DES, identical
/// seed stream to a plain full-fidelity SimObjective) only when the rung-1
/// value challenges the incumbent. last_rung() reports which rung produced
/// the returned value — the driver calls evaluate() and the tuner's report()
/// synchronously for the same config, so the tuner reads it to tag the
/// observation. Not thread-safe: one ladder per pass, owned by that pass's
/// strand (clone_stream() copies are independent full-fidelity objectives).
class FidelityLadder final : public Objective {
 public:
  /// `params` are the full-fidelity (rung 2) simulation parameters; rung 1
  /// derives from them by enabling the adaptive window with rung1_epsilon
  /// and shrinking the window to rung1_window_fraction. `seed` seeds the
  /// rung-2 objective exactly like a plain SimObjective, so best-config
  /// repetition streams match full-fidelity campaigns bit for bit.
  FidelityLadder(sim::Topology topology, sim::ClusterSpec cluster,
                 sim::SimParams params, std::uint64_t seed,
                 LadderOptions options = {});

  double evaluate(const sim::TopologyConfig& config) override;
  /// Repetitions are always full fidelity: delegates to the rung-2
  /// objective, so rep r of a ladder campaign equals rep r of a
  /// full-fidelity campaign with the same seed.
  std::unique_ptr<Objective> clone_stream(std::uint64_t stream) const override;

  /// Rung-0 screen: fluid throughput upper bound, ~µs, allocation-free via
  /// the persistent FluidWorkspace. `config` must be valid for the topology
  /// (ConfigSpace::decode output always is) — validation is skipped here.
  double fluid_score(const sim::TopologyConfig& config);

  /// Rung of the most recent evaluate() result (1 or 2).
  int last_rung() const { return last_rung_; }
  /// Best rung-2 measurement so far; empty until a config was promoted.
  std::optional<double> incumbent() const { return incumbent_; }
  /// Mean simulated-ms cost of one rung-1 / rung-2 evaluation so far (0
  /// when none have run). Simulated time, never wall-clock — cost-aware
  /// acquisition stays deterministic (detlint DET004).
  double mean_rung1_cost_ms() const;
  double mean_rung2_cost_ms() const;

  const LadderOptions& options() const { return options_; }
  const LadderStats& stats() const { return stats_; }
  const sim::Topology& topology() const { return rung2_.topology(); }

 private:
  LadderOptions options_;
  sim::ClusterSpec cluster_;
  sim::SimParams fluid_params_;  ///< full-fidelity params for rung-0 bounds
  SimObjective rung1_;
  SimObjective rung2_;
  sim::FluidWorkspace ws_;
  std::optional<double> incumbent_;
  /// Escalation high-water mark: the largest rung-1 value that has already
  /// bought a full run. A new challenger must clear it — without this, a
  /// converging optimizer keeps re-escalating near-incumbent configs whose
  /// rung-1 noise crosses the challenge threshold, and the full-run budget
  /// swamps the ladder's savings. Monotone for the whole run.
  double rung1_bar_ = 0.0;
  int last_rung_ = 2;
  LadderStats stats_;
};

/// BO tuner driving the ladder. next() pops from a promotion queue that is
/// refilled by screening screen_batch candidates at rung 0: the acquisition
/// argmax (one opt_.suggest()) is always promoted, the remaining slots are
/// uniform draws ranked by fluid score (descending, index-ascending
/// tie-break — an explicit total order). report() tags the observation with
/// the ladder's last rung, so mixed-fidelity histories carry per-rung GP
/// noise. Because a refill amortizes one GP suggest over promote_top_k
/// evaluations, ladder campaigns also pay LESS suggest time per evaluation
/// than plain BayesTuner campaigns.
class LadderTuner final : public Tuner {
 public:
  /// When `options.rung_noise_variance` is empty and hyper_mode is kFixed,
  /// rung 1 defaults to rung1_noise_multiple × fixed_noise_variance (other
  /// hyper modes infer a scalar noise and stay homoscedastic).
  LadderTuner(ConfigSpace space, bo::BayesOptOptions options,
              std::shared_ptr<FidelityLadder> ladder,
              std::string name = "bo+ladder");

  std::optional<sim::TopologyConfig> next() override;
  void report(const sim::TopologyConfig& config, double throughput) override;
  std::string name() const override { return name_; }

  const bo::BayesOpt& optimizer() const { return opt_; }
  const FidelityLadder& ladder() const { return *ladder_; }

 private:
  void refill_queue();

  ConfigSpace space_;
  std::shared_ptr<FidelityLadder> ladder_;
  bo::BayesOpt opt_;
  std::string name_;
  Rng screen_rng_;
  std::vector<bo::ParamValues> queue_;
  std::size_t queue_pos_ = 0;
  std::optional<bo::ParamValues> pending_;
};

/// Objective adapter delegating to a FidelityLadder that a LadderTuner
/// shares: the campaign drivers own a pass's objective, so a ladder pass
/// hands them this adapter while its tuner holds the other reference.
class SharedLadderObjective final : public Objective {
 public:
  explicit SharedLadderObjective(std::shared_ptr<FidelityLadder> ladder)
      : ladder_(std::move(ladder)) {}

  double evaluate(const sim::TopologyConfig& config) override;
  std::unique_ptr<Objective> clone_stream(std::uint64_t stream) const override;

 private:
  std::shared_ptr<FidelityLadder> ladder_;
};

/// Everything needed to build one ladder campaign's per-pass tuners and
/// objectives. Pass p's optimizer is seeded with seeds(bo.seed, p).tuner
/// and its ladder with seeds(objective_seed, p).objective.
struct LadderCampaignConfig {
  sim::Topology topology;
  sim::ClusterSpec cluster;
  sim::SimParams params;  ///< full-fidelity (rung 2) parameters
  SpaceOptions space;
  sim::TopologyConfig defaults;
  bo::BayesOptOptions bo;
  LadderOptions ladder;
  std::uint64_t objective_seed = 1;
  std::string tuner_name = "bo+ladder";
  SeedRule seeds = pass_seeds;
};

/// Per-pass factory pair for the campaign drivers (run_campaign and
/// run_campaigns): pass p's tuner and objective share ONE
/// FidelityLadder, created on first request and registered by pass index,
/// so the tuner's screening, the objective's promotion state and the
/// observation rung tags stay coherent without any scheduler changes —
/// screening happens inside next(), i.e. inside the existing suggest step.
/// The registry holds each ladder weakly: a finished pass that drops its
/// tuner and objective frees its ladder's workspaces, and a later request
/// for that pass builds a fresh one. The returned factories keep this
/// object alive via shared_ptr and are safe to call concurrently (the
/// registry is mutex-guarded).
class LadderCampaignFactories
    : public std::enable_shared_from_this<LadderCampaignFactories> {
 public:
  static std::shared_ptr<LadderCampaignFactories> create(
      LadderCampaignConfig config);

  TunerFactory tuner_factory();
  ObjectiveFactory objective_factory();

 private:
  explicit LadderCampaignFactories(LadderCampaignConfig config);
  std::shared_ptr<FidelityLadder> ladder(std::size_t pass);

  LadderCampaignConfig config_;
  std::mutex mu_;
  std::map<std::size_t, std::weak_ptr<FidelityLadder>> ladders_;
};

}  // namespace stormtune::tuning
