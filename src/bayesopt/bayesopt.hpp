// The Bayesian-optimization driver (a C++ Spearmint equivalent).
//
// Implements the loop of Section III-C of the paper: fit a GP to all
// configuration/performance observations, marginalize its hyperparameters
// (slice sampling, as in Spearmint) or fit them by MAP, maximize Expected
// Improvement over the unit-hypercube search space with a random multistart
// plus local refinement, and propose the next configuration to run.
// State can be serialized to JSON and resumed — the Spearmint feature the
// paper calls out as important for their cluster campaigns.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "bayesopt/acquisition.hpp"
#include "bayesopt/param_space.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "gp/gp_regressor.hpp"
#include "gp/hyper.hpp"

namespace stormtune::bo {

enum class HyperMode {
  kSliceSample,  ///< marginalize via MCMC (Spearmint's scheme)
  kMle,          ///< point MAP estimate via coordinate search
  kFixed,        ///< fixed, sensible defaults (no refitting)
};

std::string to_string(HyperMode mode);

struct BayesOptOptions {
  gp::KernelFamily kernel = gp::KernelFamily::kMatern52;
  /// One lengthscale per dimension when set; a single shared one otherwise.
  /// ARD is more faithful to Spearmint but costs O(dim) more per MCMC sweep;
  /// for the 100-parameter topologies the isotropic kernel keeps step times
  /// practical, mirroring the paper's own scalability concern (Fig. 7).
  bool ard = false;
  AcquisitionKind acquisition = AcquisitionKind::kExpectedImprovement;
  HyperMode hyper_mode = HyperMode::kSliceSample;
  std::size_t hyper_samples = 5;   ///< posterior samples when slice sampling
  std::size_t hyper_burn_in = 10;
  std::size_t initial_design = 5;  ///< random points before the GP engages
  std::size_t num_candidates = 512;
  std::size_t local_search_iters = 20;
  double xi = 0.0;        ///< EI/PI exploration offset (standardized units)
  double ucb_beta = 2.0;
  double fixed_noise_variance = 1e-3;  ///< in standardized-target units
  /// Per-fidelity observation-noise variances for mixed-rung histories
  /// (standardized-target units, indexed by Observation::rung). Entries that
  /// are 0 (and rungs beyond the array) inherit fixed_noise_variance. When
  /// every effective value is equal the fit takes the homoscedastic scalar
  /// path, bit-identical to pre-ladder behaviour; otherwise the GP carries a
  /// per-observation noise diagonal. Heteroscedastic fits require
  /// hyper_mode == kFixed — slice/MLE infer a scalar noise as part of theta,
  /// which would silently fight the diagonal.
  std::vector<double> rung_noise_variance;
  /// Sliding observation window: when > 0 the surrogate is fit to at most
  /// this many observations — once the window overflows, the oldest
  /// non-incumbent windowed observation is evicted (FIFO with incumbent
  /// pinning: the best observed point is never evicted, so the acquisition
  /// baseline cannot regress). Evicted observations stay in the recorded
  /// history (best()/save_state() still see them); only the GP stops
  /// conditioning on them, turning the per-suggest fit cost from O(t³) in
  /// campaign length to O(w³) in the window. 0 (the default) keeps every
  /// observation and is bit-identical to pre-window behaviour; while the
  /// history still fits the window (t ≤ max_observations) the windowed
  /// optimizer is also bit-identical to the unwindowed one. Must be 0 or
  /// ≥ 2 (incumbent + at least one evictable row).
  std::size_t max_observations = 0;
  /// Windowed slice-sampling only: number of window slides between warm
  /// hyperparameter refreshes. Between refreshes each per-sample GP slides
  /// incrementally (O(w²) evict + append) with its hyperparameters held;
  /// every `hyper_refit_interval`-th slide re-runs the slice sampler warm-
  /// started from the previous chain state. Ignored when the window is
  /// unbounded or before the first eviction.
  std::size_t hyper_refit_interval = 8;
  /// Burn-in sweeps for warm-started refreshes. The chain resumes from the
  /// previous refresh's final state and the posterior only moved as far as
  /// the window slid, so this can be much smaller than hyper_burn_in.
  std::size_t hyper_burn_in_warm = 5;
  std::uint64_t seed = 42;
  /// Ignored: suggest() runs on the calling thread, and campaigns run in
  /// parallel on a StrandPool instead. The field stays only because the
  /// end-to-end benchmark's campaign set-up still assigns it; it goes once
  /// that code stops. Nothing reads it, to_json() does not write it, and
  /// from_json() skips it in old state files.
  std::size_t num_threads = 0;

  Json to_json() const;
  static BayesOptOptions from_json(const Json& j);
};

/// A completed evaluation.
struct Observation {
  ParamValues x;
  double y = 0.0;
  /// Fidelity rung of the measurement (multi-fidelity ladder): 1 = adaptive
  /// -window DES, 2 = full fixed-window DES. Plain single-fidelity campaigns
  /// leave the default 2. Rung 0 (fluid screen) values never enter the
  /// optimizer — they are upper bounds on a different scale and would poison
  /// target standardization.
  int rung = 2;
};

class BayesOpt {
 public:
  BayesOpt(ParamSpace space, BayesOptOptions options);

  const ParamSpace& space() const { return space_; }
  const BayesOptOptions& options() const { return options_; }

  /// Propose the next configuration to evaluate (does not record it).
  ParamValues suggest();

  /// Record the outcome of evaluating `x` (higher y is better).
  void observe(ParamValues x, double y);

  /// Record a fidelity-tagged outcome: `rung` selects the observation's
  /// noise variance through options().rung_noise_variance. The two-argument
  /// overload records rung 2 (full fidelity).
  void observe(ParamValues x, double y, int rung);

  /// Cost-aware acquisition (expected improvement per simulated second):
  /// when enabled, every candidate's averaged acquisition value is divided
  /// by its expected evaluation cost c1 + Φ((μ−t)/σ)·c2, where c1/c2 are the
  /// measured mean costs of a rung-1 / rung-2 evaluation in simulated ms, t
  /// is the rung-2 promotion threshold in raw target units (the ladder's
  /// challenge_fraction × incumbent) and Φ((μ−t)/σ) is the GP's probability
  /// that the candidate is promoted to a full run. Pure per-candidate
  /// arithmetic — determinism is unaffected.
  /// `cost_rung1_ms <= 0` disables the division (the default). Runtime
  /// state: not serialized by save_state (costs are re-measured on resume).
  void set_acquisition_costs(double cost_rung1_ms, double cost_rung2_ms,
                             double threshold_y);

  /// Effective observation-noise variance for a rung (see
  /// BayesOptOptions::rung_noise_variance).
  double rung_noise(int rung) const;

  std::size_t num_observations() const { return observations_.size(); }
  const std::vector<Observation>& observations() const {
    return observations_;
  }
  /// Observations the surrogate currently conditions on (= all of them when
  /// max_observations is 0 or the history still fits the window).
  std::size_t window_size() const { return window_.size(); }
  /// Observations evicted from the window so far (0 when unbounded).
  std::size_t num_evictions() const { return evictions_; }
  /// Indices into observations() the surrogate conditions on, ascending.
  const std::vector<std::size_t>& window_indices() const { return window_; }

  struct BestResult {
    ParamValues x;
    double y = 0.0;
    std::size_t step = 0;  ///< 0-based index of the observation
  };
  /// Best observation so far; throws if none.
  BestResult best() const;

  /// What the local search knows of the coordinate neighbours of the
  /// unit-space point `centre` at `step` (DESIGN.md §8, "Bounded local
  /// search"): each one's bound (+∞ where none exists), its exact score,
  /// and what one search iteration that must beat `best_val` scored (−∞
  /// where it scored nothing: pruned by its bound or dropped by progressive
  /// scoring), neighbour r moving coordinate r/2 up (r even) or down. Fits
  /// the surrogate as suggest() does; for tests of the bound.
  struct NeighborScores {
    std::vector<double> bound, exact, searched;
  };
  NeighborScores neighbor_scores(
      std::span<const double> centre, double step,
      double best_val = -std::numeric_limits<double>::infinity());

  /// Serialize the full optimizer state (space, options, RNG-independent
  /// history). Resuming replays the history into a fresh optimizer.
  Json save_state() const;
  static BayesOpt load_state(const Json& j);

 private:
  struct Surrogate;
  struct ScoreBlock;
  /// Fit the surrogate for the current window into `s` (default-built):
  /// its posterior views may borrow from s itself, so it is filled in
  /// place and never moved.
  void fit_surrogate(Surrogate& s);
  std::vector<double> maximize_acquisition(Surrogate& surrogate);
  /// Coordinate refinement of the multistart winner `best_u` (score
  /// `best_val`): maximize_acquisition's second phase.
  std::vector<double> local_search(const Surrogate& surrogate,
                                   std::vector<double> best_u,
                                   double best_val);
  /// The local search's per-suggest set-up, `cur` its first centre.
  void start_local_search(const Surrogate& surrogate,
                          std::span<const double> cur);
  /// An iteration's set-up at centre `cur` and `step`: its squared
  /// distances into local_.base, local_.order the identity, local_.score
  /// −∞, and the step's geometry.
  void start_iteration(const Surrogate& surrogate,
                       std::span<const double> cur, double step);
  /// Bounds of every neighbour of centre `cur` at `step` into
  /// local_.bound (+∞ throughout where none exists) and, where they
  /// exist, each posterior's term of them into local_.acq. Reorders
  /// local_.order so that the neighbours whose bound reaches `best_val`
  /// come first, by descending bound, ties by index, and returns where
  /// they end.
  std::size_t order_by_bound(const Surrogate& surrogate,
                             std::span<const double> cur, double step,
                             double best_val);
  /// One iteration's work: bound the neighbours, then score them in
  /// descending-bound order while a bound reaches max(best_val, best score).
  void search_neighbors(const Surrogate& surrogate,
                        std::span<const double> cur, double step,
                        double best_val);
  /// Exact scores of neighbours local_.order[lo, hi) into local_.score,
  /// each dropped (left −∞) once its score cannot reach `threshold`;
  /// hi − lo ≤ kBlockRows. Returns the best score, −∞ if all dropped.
  double score_in_order(const Surrogate& surrogate,
                        std::span<const double> cur, double step,
                        std::size_t lo, std::size_t hi, double threshold);
  /// Exact scores of every neighbour (local_.order becomes the identity).
  void score_all_neighbors(const Surrogate& surrogate,
                           std::span<const double> cur, double step);
  /// Diff a previous fit's window `from` against the current window_: true
  /// when the step is incremental (current window = kept prefix of `from`
  /// plus newer appended ids), filling `removals` with the positions of
  /// `from` that dropped out (ascending) and `num_appends` with the count of
  /// new trailing ids. False means the windows diverged (resume, manual
  /// surgery) and the caller should refit from scratch.
  bool window_step(const std::vector<std::size_t>& from,
                   std::vector<std::size_t>& removals,
                   std::size_t& num_appends) const;
  /// Slide one fitted GP from the rows of `from` to the current window_ via
  /// remove_observation / append_observation — O(w²) per changed row instead
  /// of the O(w³) refit. Targets are re-standardized with the current fit's
  /// (y_mean, y_scale). `sampled_noise` selects the appended row's noise:
  /// false = the rung's configured variance (kFixed), true = the GP's own
  /// sampled scalar scaled by the rung's variance ratio (slice-sampled GPs,
  /// see apply_hyperparams' noise_ratio_diag).
  void slide_gp(gp::GpRegressor& g, const std::vector<std::size_t>& from,
                const std::vector<std::size_t>& removals,
                std::size_t num_appends, double y_mean, double y_scale,
                bool het, bool sampled_noise) const;

  ParamSpace space_;
  BayesOptOptions options_;
  Rng rng_;
  std::vector<Observation> observations_;
  // Cost-aware acquisition state (set_acquisition_costs); cost1 <= 0 = off.
  double acq_cost1_ms_ = 0.0;
  double acq_cost2_ms_ = 0.0;
  double acq_threshold_y_ = 0.0;
  std::vector<std::vector<double>> unit_x_;  // cached unit-space inputs
  std::size_t best_index_ = 0;               // incumbent, kept by observe()
  /// Observation indices the surrogate conditions on, in GP row order
  /// (ascending, so older rows come first). Maintained by observe(): every
  /// observation enters; when max_observations > 0 and the window overflows,
  /// the oldest non-incumbent entry leaves. Equals [0, n) when unbounded.
  /// Not serialized — save_state() keeps the full history and load_state()'s
  /// observe() replay rebuilds the identical window.
  std::vector<std::size_t> window_;
  std::size_t evictions_ = 0;
  // kFixed-mode surrogate, kept across suggest() calls so a single new
  // observation is an O(n²) Cholesky rank-grow instead of an O(n³) refit.
  // With a bounded window the same object also absorbs evictions through
  // the O(n²) Cholesky row downdate; fixed_rows_ records which observation
  // ids its rows currently hold so fit_surrogate can diff them against
  // window_.
  std::optional<gp::GpRegressor> fixed_gp_;
  std::vector<std::size_t> fixed_rows_;
  /// Warm sliding-window state for slice-sampled surrogates: the per-sample
  /// GPs of the last full/warm hyperparameter refresh plus the chain's final
  /// theta. These stay whole regressors, not posteriors: each one's O(n²)
  /// slides need its correlation and factor caches. Between refreshes,
  /// suggest() slides these GPs incrementally instead of re-running MCMC;
  /// every hyper_refit_interval-th slide (and whenever the window
  /// diverges) the sampler re-equilibrates from chain_theta with
  /// hyper_burn_in_warm sweeps. Engaged only after the
  /// first eviction, so windowed-but-not-yet-full histories stay
  /// bit-identical to the unwindowed optimizer.
  struct WarmSlice {
    bool valid = false;
    std::vector<std::size_t> rows;     // observation ids, GP row order
    std::vector<gp::GpRegressor> gps;  // one per retained hyper sample
    std::vector<double> chain_theta;   // sampler state at the last refresh
    std::size_t slides_since_refresh = 0;
  };
  WarmSlice warm_;
  /// One posterior's terms for bounding every local-search neighbour of the
  /// current centre (DESIGN.md §8, "Bounded local search"): the centre's
  /// mean, the variance expansion's constant, the scalar sums the bound
  /// expands into beside LocalSearch::sums, and its rounding allowances.
  struct CentreTerms {
    double mean = 0.0;        // μ at the centre
    double mean_b0 = 0.0;     // Σ α_i k'_i
    double mean_g0 = 0.0;     // Σ ½ α_i⁺ κ_i
    double var_a = 0.0;       // 2 k_cᵀw − (upper bound on ‖Lᵀw‖)²
    double var_b0 = 0.0;      // Σ w_i k'_i
    double var_g0 = 0.0;      // Σ w_i⁻ κ_i
    double mean_slack = 0.0;  // rounding allowances
    double var_slack = 0.0;
  };
  /// The candidate block and the buffers that score it, kept across
  /// suggest() calls. The acquisition search streams candidates through
  /// them a fixed block of rows at a time, so their size never scales with
  /// num_candidates, and scoring allocates only when the history outgrows
  /// the n-row blocks (DESIGN.md §8, "Batched prediction"). suggest() state
  /// is per-instance, so distinct optimizers are safe to drive
  /// concurrently from different scheduler workers.
  struct ScoreBlock {
    Matrix qt;                // block candidates transposed: dim rows
    Matrix q;                 // ARD only: the same candidates row-major
    std::vector<double> d2t;  // n × ld training-point-major distances
    std::vector<double> v;    // n × ld solve workspace, one posterior at a time
    std::vector<double> means, vars, scores;  // one entry per block row
    std::vector<double> mean_acc, var_acc;    // cost-aware scoring only
    std::vector<gp::Prediction> preds;        // ARD only
    /// Progressive scoring: per posterior, each column's bound on its
    /// term (posterior-major, kBlockRows apart), and which candidate each
    /// column holds once dropped columns have been compacted out.
    std::vector<double> bounds;
    std::vector<std::size_t> ids;
    // The best multistart candidate so far.
    double best_score = 0.0;
    std::vector<double> best_u;
  };
  ScoreBlock block_;
  /// The local search's buffers, kept across suggest() calls.
  struct LocalSearch {
    bool bounded = false;  // Surrogate::bounds_neighbors
    double eps = 0.0;      // relative rounding allowance, 2(n + d + 64)·u
    double range = 0.0;    // ρ ≥ |c_j − x_ij|, |v_j − x_ij|
    double coord = 0.0;    // H ≥ |c_j|, |x_ij|
    double hs = 0.0;       // ≥ |h|, this step's coordinate move
    double disp = 0.0;     // D = 2ρ·hs ≥ |Δ_i|, its squared-distance change
    std::vector<double> frob;   // per posterior, ≥ ‖L‖_F
    std::vector<CentreTerms> terms;  // per posterior, at the current centre
    std::vector<double> scratch;     // 6 × n, to compute one of them
    /// Per posterior, at the current centre: the four weight vectors
    /// α∘k', ½α⁺∘κ, w∘k', w⁻∘κ (4 × n) and their six column sums over X
    /// (6 × d: Xᵀ(α∘k'), Xᵀ(½α⁺∘κ), (X∘X)ᵀ(½α⁺∘κ), Xᵀ(w∘k'), Xᵀ(w⁻∘κ),
    /// (X∘X)ᵀ(w⁻∘κ)), all from one sweep over X.
    std::vector<double> weights, sums;
    std::vector<double> acq;    // bounded only: per posterior, per neighbour,
                                // its term's bound
    std::vector<double> var;    // per neighbour: one posterior's σ² bound
    std::vector<double> base;   // the centre's squared distances
    std::vector<double> bound;  // one per neighbour
    std::vector<double> score;  // exact score, −∞ where not scored
    std::vector<std::size_t> order;  // neighbours by descending bound
  };
  LocalSearch local_;
};

}  // namespace stormtune::bo
