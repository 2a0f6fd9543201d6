#include "bayesopt/bayesopt.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/check.hpp"
#include "linalg/kernels.hpp"

namespace stormtune::bo {

std::string to_string(HyperMode mode) {
  switch (mode) {
    case HyperMode::kSliceSample: return "slice";
    case HyperMode::kFixed: return "fixed";
  }
  return "unknown";
}

namespace {

/// States saved before `value` of `field` was removed carry it; such a
/// state cannot resume.
void refuse_removed(const char* field, const std::string& value) {
  STORMTUNE_REQUIRE(false, std::string("BayesOpt state: option '") + field +
                               "' is '" + value +
                               "', which this build removed");
}

gp::KernelFamily kernel_from_string(const std::string& s) {
  if (s == "se") return gp::KernelFamily::kSquaredExponential;
  if (s == "matern52") return gp::KernelFamily::kMatern52;
  if (s == "matern32") refuse_removed("kernel", s);
  STORMTUNE_REQUIRE(false, "unknown kernel family '" + s + "'");
  return gp::KernelFamily::kMatern52;
}

HyperMode hyper_mode_from_string(const std::string& s) {
  if (s == "slice") return HyperMode::kSliceSample;
  if (s == "fixed") return HyperMode::kFixed;
  if (s == "mle") refuse_removed("hyper_mode", s);
  STORMTUNE_REQUIRE(false, "unknown hyper mode '" + s + "'");
  return HyperMode::kSliceSample;
}

/// States saved while `field` was an option carry it. Such a state resumes
/// only if it used the value this build fixes: a run saved with another
/// value must not continue silently with this one.
void require_fixed_option(const Json& j, const char* field, double value) {
  if (!j.contains(field)) return;
  const double saved = j.at(field).as_number();
  STORMTUNE_REQUIRE(saved == value,
                    std::string("BayesOpt state: option '") + field +
                        "' is " + Json::number_to_string(saved) +
                        ", but this build fixes it at " +
                        Json::number_to_string(value));
}

}  // namespace

Json BayesOptOptions::to_json() const {
  JsonObject o;
  o["kernel"] = gp::to_string(kernel);
  o["ard"] = ard;
  o["hyper_mode"] = bo::to_string(hyper_mode);
  o["hyper_samples"] = hyper_samples;
  o["hyper_burn_in"] = hyper_burn_in;
  o["initial_design"] = initial_design;
  o["num_candidates"] = num_candidates;
  o["local_search_iters"] = local_search_iters;
  o["fixed_noise_variance"] = fixed_noise_variance;
  if (!rung_noise_variance.empty()) {
    JsonArray rn;
    for (double v : rung_noise_variance) rn.emplace_back(v);
    o["rung_noise_variance"] = Json(std::move(rn));
  }
  // Emitted only when windowing is on, so unwindowed states stay byte-
  // identical to those written before the option existed.
  if (max_observations != 0) {
    o["max_observations"] = max_observations;
  }
  o["seed"] = static_cast<double>(seed);
  return Json(std::move(o));
}

BayesOptOptions BayesOptOptions::from_json(const Json& j) {
  BayesOptOptions o;
  o.kernel = kernel_from_string(j.at("kernel").as_string());
  o.ard = j.at("ard").as_bool();
  // States saved while the acquisition was an option carry it; only EI
  // remains.
  if (j.contains("acquisition")) {
    const std::string acquisition = j.at("acquisition").as_string();
    if (acquisition == "pi" || acquisition == "ucb") {
      refuse_removed("acquisition", acquisition);
    }
    STORMTUNE_REQUIRE(acquisition == "ei",
                      "unknown acquisition '" + acquisition + "'");
  }
  o.hyper_mode = hyper_mode_from_string(j.at("hyper_mode").as_string());
  o.hyper_samples = static_cast<std::size_t>(j.at("hyper_samples").as_int());
  o.hyper_burn_in = static_cast<std::size_t>(j.at("hyper_burn_in").as_int());
  o.initial_design = static_cast<std::size_t>(j.at("initial_design").as_int());
  o.num_candidates = static_cast<std::size_t>(j.at("num_candidates").as_int());
  o.local_search_iters =
      static_cast<std::size_t>(j.at("local_search_iters").as_int());
  require_fixed_option(j, "xi", kXi);
  require_fixed_option(j, "hyper_refit_interval", kHyperRefitInterval);
  require_fixed_option(j, "hyper_burn_in_warm", kHyperBurnInWarm);
  o.fixed_noise_variance = j.at("fixed_noise_variance").as_number();
  o.seed = static_cast<std::uint64_t>(j.at("seed").as_number());
  // States saved while suggest had a thread pool carry "num_threads", and
  // states saved while UCB existed carry "ucb_beta", which an EI state
  // never read; neither changes a result, so both are ignored.
  // Absent in states saved before the multi-fidelity ladder existed.
  if (j.contains("rung_noise_variance")) {
    for (const auto& v : j.at("rung_noise_variance").as_array()) {
      o.rung_noise_variance.push_back(v.as_number());
    }
  }
  // Absent in states saved before the sliding window existed (and in
  // unwindowed states since).
  if (j.contains("max_observations")) {
    o.max_observations =
        static_cast<std::size_t>(j.at("max_observations").as_int());
  }
  return o;
}

BayesOpt::BayesOpt(ParamSpace space, BayesOptOptions options)
    : space_(std::move(space)),
      options_(options),
      rng_(options.seed) {
  STORMTUNE_REQUIRE(options_.hyper_samples > 0,
                    "BayesOpt: hyper_samples must be > 0");
  STORMTUNE_REQUIRE(options_.num_candidates > 0,
                    "BayesOpt: num_candidates must be > 0");
  STORMTUNE_REQUIRE(
      options_.max_observations == 0 || options_.max_observations >= 2,
      "BayesOpt: max_observations must be 0 (unbounded) or >= 2 "
      "(pinned incumbent plus at least one evictable observation)");
}

namespace {

/// Candidates per scoring block: a multiple of every path's solve strip
/// width (linalg/kernels_blocks.hpp), and small enough that each block
/// buffer stays under 64 KiB at bo100-large's d = 101, n = 100.
constexpr std::size_t kBlockRows = 64;
/// Row stride of every block buffer, padded so the distance, solve and
/// moment kernels' column strips do not alias in L1.
constexpr std::size_t kBlockLd = linalg_kernels::padded_ld(kBlockRows);

/// Local-search neighbour r of `cur`: coordinate r/2 moved by +step (r
/// even) or −step (r odd), clamped to the unit interval.
double neighbor_value(std::span<const double> cur, double step,
                      std::size_t r) {
  return std::clamp(cur[r / 2] + (r % 2 == 0 ? step : -step), 0.0, 1.0);
}

/// Neighbours scored before the first threshold update: the best of the
/// highest bounds usually lifts T above most of the rest. In a 25 s
/// bo100-large run, 4 and 16 cost 2 % and 6 % more posterior evaluations.
constexpr std::size_t kFirstNeighbors = 8;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kUnitRoundoff = std::numeric_limits<double>::epsilon() / 2;

/// sup over s ≥ 0 of |g'(s)|, the unit correlation's slope (at s = 0).
double max_slope(gp::KernelFamily family) {
  switch (family) {
    case gp::KernelFamily::kSquaredExponential: return 0.5;
    case gp::KernelFamily::kMatern52: return 5.0 / 6.0;
  }
  return kInf;
}

/// k'_i = dk/db at the centre's scaled squared distances s_i = b_i·t from
/// the transform's own output k_i = a²g(s_i), with no exp: SE's
/// g' = −g/2; Matérn-5/2's g' = −(5/6)(1 + r)e^{−r} with
/// e^{−r} = g/(1 + r + r²/3), r = √(5s).
void corr_slopes(gp::KernelFamily family, double t, const double* b,
                 const double* k, double* dk, std::size_t n) {
  switch (family) {
    case gp::KernelFamily::kSquaredExponential:
      for (std::size_t i = 0; i < n; ++i) dk[i] = -0.5 * t * k[i];
      return;
    case gp::KernelFamily::kMatern52:
      for (std::size_t i = 0; i < n; ++i) {
        const double r = std::sqrt(5.0 * (b[i] * t));
        dk[i] = -(5.0 / 6.0) * t * (1.0 + r) * k[i] / (1.0 + r + r * r / 3.0);
      }
      return;
  }
}

/// κ_i = (1 + ε)·a²g''(s_i)·t², in place over the s_i ≥ 0 in `kap`, from
/// one batched SE transform (scale·e^{−x/2}) and no scalar exp. g'' is
/// positive and decreasing for both families, so g'' at the low end of an
/// interval bounds it there:
///  * SE: g'' = e^{−s/2}/4, so x = s.
///  * Matérn-5/2: g'' = (25/12)e^{−√(5s)}, so x = 2√(5s)(1 − ε).
/// The 1 − ε shrinks the exponent by more than its rounding, which only
/// raises g''; the 1 + ε covers the exp lane's few ulps and the products'.
void curvatures(gp::KernelFamily family, double a2, double t, double eps,
                double* kap, std::size_t n) {
  const double scale = (1.0 + eps) * a2 * t * t;
  const linalg_kernels::KernelOps& ops = linalg_kernels::ops();
  switch (family) {
    case gp::KernelFamily::kSquaredExponential:
      ops.correlation(family, 0.25 * scale, kap, n);
      return;
    case gp::KernelFamily::kMatern52:
      for (std::size_t i = 0; i < n; ++i) {
        kap[i] = 2.0 * std::sqrt(5.0 * kap[i]) * (1.0 - eps);
      }
      ops.correlation(gp::KernelFamily::kSquaredExponential,
                      (25.0 / 12.0) * scale, kap, n);
      return;
  }
}

}  // namespace

/// GP surrogate over standardized targets with a set of hyperparameter
/// samples to marginalize over: one posterior per sample, all fitted on the
/// inputs of one regressor.
struct BayesOpt::Surrogate {
  /// The regressor holding the training inputs and their distance cache
  /// that every posterior below was fitted on: fixed_gp_, a warm window
  /// GP, or own_gp.
  const gp::GpRegressor* inputs_gp = nullptr;
  /// One posterior per hyperparameter sample; what scoring reads.
  std::vector<gp::PosteriorView> posts;
  /// Storage for a fit made for this suggest only: the slice sampler's
  /// regressor and its samples' posteriors.
  std::optional<gp::GpRegressor> own_gp;
  std::vector<gp::Posterior> own_posts;
  double y_mean = 0.0;
  double y_scale = 1.0;
  double best_standardized = 0.0;
  // Cost-aware acquisition (BayesOpt::set_acquisition_costs); cost1 <= 0 =
  // plain acquisition. threshold_standardized is the rung-2 promotion
  // threshold in standardized-target units.
  double cost1_ms = 0.0;
  double cost2_ms = 0.0;
  double threshold_standardized = 0.0;

  Surrogate() = default;
  Surrogate(const Surrogate&) = delete;
  Surrogate& operator=(const Surrogate&) = delete;

  /// Score every regressor in `gps` (all fitted on one X) through its own
  /// posterior.
  void borrow(const std::vector<gp::GpRegressor>& gps) {
    inputs_gp = &gps.front();
    for (const auto& g : gps) posts.push_back(g.posterior());
  }

  /// All posteriors are fits on the same X, differing only in
  /// hyperparameters, so where gp says a distance block is shared
  /// (isotropic kernels) a block's distances are computed once and each
  /// posterior finishes them with its own lengthscale and amplitude
  /// instead of redoing the O(n·d) diff loop per sample. ARD posteriors
  /// build their own block from the candidates in ws.qt.
  bool shares_distances() const {
    return !posts.empty() && posts.front().shares_distances();
  }

  /// Size the block buffers for this surrogate (grow-only, so a steady
  /// history reuses them as they are).
  void size_block(ScoreBlock& ws, std::size_t d) const {
    const std::size_t n = inputs_gp->num_observations();
    if (ws.qt.rows() != d) ws.qt = Matrix(d, kBlockLd);
    ws.d2t.resize(n * kBlockLd);
    ws.v.resize(n * kBlockLd);
    for (auto* b : {&ws.means, &ws.vars, &ws.scores, &ws.mean_acc,
                    &ws.var_acc}) {
      b->resize(kBlockRows);
    }
    ws.bounds.resize(posts.size() * kBlockRows);
    ws.ids.resize(kBlockRows);
    ws.best_u.resize(d);
  }

  /// Checked builds fill a block's buffers with quiet NaN before each use,
  /// so an element read before this block wrote it fails a golden instead
  /// of passing silently with a previous block's value.
  static void poison(ScoreBlock& ws) {
    if constexpr (kCheckedBuild) {
      constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
      std::fill_n(ws.qt.data(), ws.qt.rows() * ws.qt.cols(), kNaN);
      for (auto* b : {&ws.d2t, &ws.v, &ws.means, &ws.vars, &ws.scores,
                      &ws.mean_acc, &ws.var_acc, &ws.bounds}) {
        std::fill(b->begin(), b->end(), kNaN);
      }
    }
  }

  /// Divide the averaged acquisition values by each candidate's expected
  /// evaluation cost c1 + Φ((μ−t)/σ)·c2 (expected improvement per simulated
  /// second). ws.mean_acc / ws.var_acc hold across-GP sums on entry. Pure
  /// per-candidate arithmetic — no shared state, no RNG.
  void apply_cost_divisor(const ScoreBlock& ws, std::span<double> out) const {
    const double inv = 1.0 / static_cast<double>(posts.size());
    for (std::size_t r = 0; r < out.size(); ++r) {
      const double mu = ws.mean_acc[r] * inv;
      const double sd = std::sqrt(ws.var_acc[r] * inv);
      const double promote =
          sd > 0.0 ? normal_cdf((mu - threshold_standardized) / sd)
                   : (mu > threshold_standardized ? 1.0 : 0.0);
      const double cost_s = (cost1_ms + promote * cost2_ms) * 1e-3;
      out[r] /= cost_s;
    }
  }

  /// After posterior s of the block's first m columns: drop each column
  /// whose exact partial sum ws.scores[c] plus its remaining posteriors'
  /// bounds, summed and averaged in score_block's order, is below
  /// `threshold`. Rounding is monotone, so that bounds the column's final
  /// score. The last live column (its shared distances, partial sums,
  /// bounds and id) takes a dropped column's place; returns how many stay.
  /// Only bounded neighbours drop, and bounds_neighbors requires a shared
  /// block.
  std::size_t drop_below(ScoreBlock& ws, std::size_t m, std::size_t s,
                         double threshold) const {
    STORMTUNE_DCHECK(shares_distances(),
                     "BayesOpt: dropping columns of per-posterior blocks");
    const std::size_t num_posts = posts.size();
    const double inv = 1.0 / static_cast<double>(num_posts);
    const std::size_t n = inputs_gp->num_observations();
    for (std::size_t c = 0; c < m;) {
      double reach = ws.scores[c];
      for (std::size_t k = s + 1; k < num_posts; ++k) {
        reach += ws.bounds[k * kBlockRows + c];
      }
      if (!(reach * inv < threshold)) {
        ++c;
        continue;
      }
      const std::size_t last = --m;
      if (c == last) break;
      for (std::size_t i = 0; i < n; ++i) {
        ws.d2t[i * kBlockLd + c] = ws.d2t[i * kBlockLd + last];
      }
      for (auto* b : {&ws.scores, &ws.mean_acc, &ws.var_acc}) {
        (*b)[c] = (*b)[last];
      }
      for (std::size_t k = s + 1; k < num_posts; ++k) {
        ws.bounds[k * kBlockRows + c] = ws.bounds[k * kBlockRows + last];
      }
      ws.ids[c] = ws.ids[last];
    }
    return m;
  }

  /// The acquisition averaged over the posteriors for the block's first m
  /// candidates, into ws.scores. Each posterior scores from the distance
  /// block ws.d2t: one correlation transform, one multi-RHS solve and the
  /// two moment kernels (predict_mv_from_sq_dist_block). A shared block
  /// is the caller's; otherwise each posterior builds its own from the
  /// candidates in ws.qt first. A candidate's score does not depend on the
  /// block it lands in, nor on its column — the transform is element-wise
  /// and a solve column is independent of the others — so the blocking
  /// changes memory traffic only.
  ///
  /// Progressive scoring: with a `threshold` above −∞, ws.bounds holds
  /// each column's per-posterior bounds, and after every posterior but the
  /// last, drop_below removes the columns that cannot reach it; the rest
  /// go on with fewer columns and get the bits they would have got alone.
  /// Returns how many columns finished: ws.scores[0, live) and ws.ids say
  /// which candidate each holds (columns stay in place when nothing
  /// drops). Read-only on the posteriors.
  std::size_t score_block(ScoreBlock& ws, std::size_t m,
                          double threshold = -kInf) const {
    std::fill_n(ws.scores.begin(), m, 0.0);
    const bool costed = cost1_ms > 0.0;
    if (costed) {
      std::fill_n(ws.mean_acc.begin(), m, 0.0);
      std::fill_n(ws.var_acc.begin(), m, 0.0);
    }
    const bool share = shares_distances();
    for (std::size_t s = 0; s < posts.size(); ++s) {
      const gp::PosteriorView& post = posts[s];
      const std::span<double> means(ws.means.data(), m);
      const std::span<double> vars(ws.vars.data(), m);
      if (!share) {
        inputs_gp->sq_dist_block(post, ws.qt.data(), kBlockLd, m,
                                 ws.d2t.data(), kBlockLd);
      }
      gp::predict_mv_from_sq_dist_block(post, ws.d2t.data(), kBlockLd, m,
                                        ws.v.data(), kBlockLd, means, vars);
      expected_improvement_accumulate(means, vars, best_standardized, kXi,
                                      std::span(ws.scores.data(), m));
      if (costed) {
        for (std::size_t r = 0; r < m; ++r) {
          ws.mean_acc[r] += means[r];
          ws.var_acc[r] += vars[r];
        }
      }
      if (threshold > -kInf && s + 1 < posts.size()) {
        m = drop_below(ws, m, s, threshold);
      }
    }
    const std::span<double> out(ws.scores.data(), m);
    const double inv = 1.0 / static_cast<double>(posts.size());
    for (auto& v : out) v *= inv;
    if (costed) apply_cost_divisor(ws, out);
#ifdef STORMTUNE_CHECKED
    // A NaN score would simply never win the argmax; with the blocks
    // poisoned, this turns a read of a stale element into a failure.
    for (const double v : out) {
      STORMTUNE_DCHECK(!std::isnan(v),
                       "BayesOpt: NaN acquisition score (a scoring block "
                       "element was read before it was written)");
    }
#endif
    return m;
  }

  /// Score the block's first m multistart candidates (columns of ws.qt) and
  /// fold them into the block's running argmax: strict >, so the lowest
  /// index wins a tie. `fresh` restarts the argmax at the first of them.
  void score_candidates(ScoreBlock& ws, std::size_t m, bool fresh) const {
    const std::size_t d = ws.qt.rows();
    if (shares_distances()) {
      // Training-point-major, so each posterior reads its distance rows
      // stride-1.
      inputs_gp->sq_dist_block(posts.front(), ws.qt.data(), kBlockLd, m,
                               ws.d2t.data(), kBlockLd);
    }
    score_block(ws, m);
    for (std::size_t c = 0; c < m; ++c) {
      if ((fresh && c == 0) || ws.scores[c] > ws.best_score) {
        ws.best_score = ws.scores[c];
        for (std::size_t k = 0; k < d; ++k) ws.best_u[k] = ws.qt(k, c);
      }
    }
  }

  /// Score the block's first m columns as neighbours ws.ids[0, m) of
  /// `cur` (neighbor_value) through score_block, dropping those that
  /// cannot reach `threshold`; returns how many finished. No neighbour is
  /// ever built for a shared block: each one's distances are an O(n)
  /// single-coordinate update of the centre's (`base`, from
  /// unscaled_sq_dists) instead of an O(n·d) recomputation. Otherwise the
  /// neighbours go into ws.qt's columns.
  std::size_t score_neighbors(ScoreBlock& ws, std::span<const double> cur,
                              double step, std::span<const double> base,
                              std::size_t m, double threshold) const {
    if (shares_distances()) {
      const Matrix& x = inputs_gp->inputs();
      const std::size_t n = x.rows();
      for (std::size_t c = 0; c < m; ++c) {
        const std::size_t j = ws.ids[c] / 2;
        const double cj = cur[j];
        const double vj = neighbor_value(cur, step, ws.ids[c]);
        for (std::size_t i = 0; i < n; ++i) {
          const double old_diff = cj - x(i, j);
          const double new_diff = vj - x(i, j);
          const double s = base[i] - old_diff * old_diff + new_diff * new_diff;
          // Guard rounding from the subtraction.
          ws.d2t[i * kBlockLd + c] = s < 0.0 ? 0.0 : s;
        }
      }
    } else {
      for (std::size_t c = 0; c < m; ++c) {
        for (std::size_t k = 0; k < cur.size(); ++k) ws.qt(k, c) = cur[k];
        ws.qt(ws.ids[c] / 2, c) = neighbor_value(cur, step, ws.ids[c]);
      }
    }
    return score_block(ws, m, threshold);
  }

  /// Whether neighbor_bounds bounds a neighbour's score: non-ARD
  /// posteriors (which share the centre's distances) and no cost divisor,
  /// at any history length (EI is nondecreasing in μ and σ²). Every other
  /// neighbour's bound is +∞.
  bool bounds_neighbors() const {
    return shares_distances() && !(cost1_ms > 0.0);
  }

  /// Posterior `post`'s CentreTerms at the centre whose squared distances
  /// are ls.base, and its four weight vectors α∘k', ½α⁺∘κ, w∘k' and w⁻∘κ
  /// into `weights` (4 × n), with `frob` ≥ ‖L‖_F and `scratch` six
  /// n-entry vectors. Writing Δ_i for neighbour (j, h)'s change of
  /// b_i = ‖c − x_i‖², Δ_i = h² + 2h·c_j − 2h·x_ij, and k(b) = a²g(b/ℓ²)
  /// convex in b:
  ///   k_i + k'_i Δ_i ≤ k_nb,i ≤ k_i + k'_i Δ_i + ½κ_i Δ_i²,
  /// κ_i = a²g''(max(0, b_i − D)/ℓ²)/ℓ⁴. Hence μ_nb ≤ μ_c + Σα_i k'_i Δ_i
  /// + ½Σα_i⁺κ_i Δ_i², and for any w, ‖L⁻¹k‖² ≥ 2kᵀw − ‖Lᵀw‖² gives
  /// σ²_nb ≤ a² − (2k_cᵀw − ‖Lᵀw‖²) − 2Σw_i k'_i Δ_i + Σw_i⁻κ_i Δ_i².
  /// Each sum expands in h, c_j and coordinate j of the weights' six
  /// column sums (LocalSearch::sums, one sweep for all posteriors). The
  /// slacks cover the rounding of this and of the exact path (DESIGN.md
  /// §8, "Bounded local search").
  void centre_terms(const gp::PosteriorView& post, const LocalSearch& ls,
                    double frob, double* scratch, double* weights,
                    CentreTerms& ct) const {
    const std::span<const double> base = ls.base;
    const std::size_t n = base.size();
    double* k = scratch;    // k(b_i), the centre's covariances
    double* dk = k + n;     // k'(b_i)
    double* kap = dk + n;   // κ_i
    double* err = kap + n;  // δk_i, the rounding of one covariance
    double* w = err + n;    // w ≈ K⁻¹k
    double* lt = w + n;     // Lᵀw
    double* wa = weights;   // α∘k'
    double* wb = wa + n;    // ½α⁺∘κ
    double* wc = wb + n;    // w∘k'
    double* we = wc + n;    // w⁻∘κ
    const double a2 = post.variance;
    const double t = post.inv_sq_ls[0];
    const double eps = ls.eps;
    for (std::size_t i = 0; i < n; ++i) k[i] = base[i] * t;
    linalg_kernels::ops().correlation(post.family, a2, k, n);
    corr_slopes(post.family, t, base.data(), k, dk, n);
    for (std::size_t i = 0; i < n; ++i) {
      const double lo = (base[i] - ls.disp) * t * (1.0 - eps);
      kap[i] = lo > 0.0 ? lo : 0.0;
    }
    curvatures(post.family, a2, t, eps, kap, n);
    const double slope_max = max_slope(post.family) * a2 * t;
    for (std::size_t i = 0; i < n; ++i) {
      err[i] = 4.0 * eps * a2 +
               2.0 * slope_max * eps *
                   (base[i] + 2.0 * ls.range * ls.range + 2.0 * ls.disp);
    }

    // The mean.
    const double* alpha = post.alpha.data();
    double dot = 0.0, abs_alpha = 0.0, abs_alpha_err = 0.0, abs_lin = 0.0;
    ct.mean_b0 = 0.0;
    ct.mean_g0 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      dot += alpha[i] * k[i];
      wa[i] = alpha[i] * dk[i];
      wb[i] = alpha[i] > 0.0 ? 0.5 * alpha[i] * kap[i] : 0.0;
      abs_alpha += std::fabs(alpha[i]);
      abs_alpha_err += std::fabs(alpha[i]) * err[i];
      abs_lin += std::fabs(wa[i]);
      ct.mean_b0 += wa[i];
      ct.mean_g0 += wb[i];
    }
    ct.mean = post.mean_value + dot;

    // The variance. Any w gives a valid bound; its accuracy only sets how
    // tight the bound is.
    linalg_kernels::ops().bound_solve(post.lower, post.ld, n, k, w, lt);
    double kw = 0.0, ltw2 = 0.0, w2 = 0.0, abs_w = 0.0, abs_w_err = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      kw += k[i] * w[i];
      ltw2 += lt[i] * lt[i];
      w2 += w[i] * w[i];
      abs_w += std::fabs(w[i]);
      abs_w_err += std::fabs(w[i]) * err[i];
    }
    // ‖L'ᵀw‖ for the factor L' = L + ΔL the exact path's solve is exact
    // for: the computed ‖Lᵀw‖ plus both products' rounding, each at most
    // eps·‖L‖_F·‖w‖ in any summation order.
    const double ltw =
        (std::sqrt(ltw2) + 2.0 * eps * frob * std::sqrt(w2)) * (1.0 + eps);
    ct.var_a = 2.0 * kw - ltw * ltw;
    double abs_wlin = 0.0;
    ct.var_b0 = 0.0;
    ct.var_g0 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      wc[i] = w[i] * dk[i];
      we[i] = w[i] < 0.0 ? -w[i] * kap[i] : 0.0;
      abs_wlin += std::fabs(wc[i]);
      ct.var_b0 += wc[i];
      ct.var_g0 += we[i];
    }

    // Rounding allowances: the expansions' error is at most eps times
    // their magnitude, |h|(|h| + 4H) per linear weight and its square per
    // quadratic one. k' derives from the computed k, so it is off by
    // sup|g'|·t·δk_i plus eps|k'_i|, each times |Δ_i| ≤ D.
    const double lin = ls.hs * (ls.hs + 4.0 * ls.coord);
    const double quad = lin * lin;
    const double dd = ls.disp;
    const double slope_err = max_slope(post.family) * t * dd;
    ct.mean_slack = 2.0 * eps * (std::fabs(post.mean_value) + a2 * abs_alpha) +
                    (2.0 + slope_err) * abs_alpha_err + eps * lin * abs_lin +
                    eps * quad * ct.mean_g0 +
                    eps * (std::fabs(ct.mean) + 2.0 * dd * abs_lin +
                           dd * dd * ct.mean_g0);
    ct.var_slack = 2.0 * eps * a2 * abs_w +
                   (4.0 + 2.0 * slope_err) * abs_w_err +
                   2.0 * eps * lin * abs_wlin + eps * quad * ct.var_g0 +
                   2.0 * eps *
                       (a2 + std::fabs(ct.var_a) + 3.0 * dd * abs_wlin +
                        dd * dd * ct.var_g0);
  }

  /// Posterior `post`'s bounds on the mean and variance of every neighbour
  /// r of `cur`, from its CentreTerms `ct` and column sums `sums`
  /// (6 × d), into mu[r] and var[r]; then mu[r] becomes the bound on the
  /// posterior's acquisition term of r's score, +∞ where the arithmetic
  /// gives none (an infinite κ, a NaN).
  void neighbor_bounds(const gp::PosteriorView& post, const CentreTerms& ct,
                       const double* sums, double eps,
                       std::span<const double> cur, double step, double* mu,
                       double* var) const {
    const std::size_t d = cur.size();
    const std::size_t num_nb = 2 * d;
    const double a2 = post.variance;
    for (std::size_t r = 0; r < num_nb; ++r) {
      const std::size_t j = r / 2;
      const double cj = cur[j];
      const double h = neighbor_value(cur, step, r) - cj;
      const double p = h * (h + 2.0 * cj);  // Δ_i = p − 2h·x_ij
      mu[r] = ct.mean + (p * ct.mean_b0 - 2.0 * h * sums[j]) +
              (p * (p * ct.mean_g0 - 4.0 * h * sums[d + j]) +
               4.0 * h * h * sums[2 * d + j]) +
              ct.mean_slack;
      const double v = a2 - ct.var_a -
                       2.0 * (p * ct.var_b0 - 2.0 * h * sums[3 * d + j]) +
                       (p * (p * ct.var_g0 - 4.0 * h * sums[4 * d + j]) +
                        4.0 * h * h * sums[5 * d + j]) +
                       ct.var_slack;
      // The exact variance is never above a², and never below 0.
      var[r] = v < a2 ? (v > 0.0 ? v : 0.0) : a2;
    }
    linalg_kernels::ops().ei_bounds(mu, var, num_nb, best_standardized, kXi,
                                    eps, mu);
  }
};

bool BayesOpt::window_step(const std::vector<std::size_t>& from,
                           std::vector<std::size_t>& removals,
                           std::size_t& num_appends) const {
  // Both id lists are ascending (rows are appended in observation order and
  // evictions erase without reordering), so the step is incremental exactly
  // when window_ = (from minus some entries) ++ (ids newer than all of
  // from). A window id older than a kept row that is NOT in `from` would
  // need a mid-factor insertion — no such Cholesky path exists; refit.
  removals.clear();
  num_appends = 0;
  std::size_t ti = 0;
  for (std::size_t fi = 0; fi < from.size(); ++fi) {
    if (ti < window_.size() && window_[ti] < from[fi]) return false;
    if (ti < window_.size() && window_[ti] == from[fi]) {
      ++ti;
    } else {
      removals.push_back(fi);
    }
  }
  num_appends = window_.size() - ti;
  return from.size() > removals.size();  // at least one kept row
}

void BayesOpt::slide_gp(gp::GpRegressor& g,
                        const std::vector<std::size_t>& from,
                        const std::vector<std::size_t>& removals,
                        std::size_t num_appends, double y_mean, double y_scale,
                        bool het, bool sampled_noise) const {
  std::vector<std::size_t> rows = from;
  Vector ya;
  const auto restandardize = [&] {
    ya.resize(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ya[i] = (observations_[rows[i]].y - y_mean) / y_scale;
    }
  };
  // Descending positions so earlier removal indices stay valid.
  for (auto it = removals.rbegin(); it != removals.rend(); ++it) {
    rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(*it));
    restandardize();
    g.remove_observation(*it, ya);
  }
  for (std::size_t k = window_.size() - num_appends; k < window_.size(); ++k) {
    const std::size_t id = window_[k];
    rows.push_back(id);
    restandardize();
    if (het || !g.noise_diag().empty()) {
      const double noise_new =
          sampled_noise
              ? g.noise_variance() *
                    (rung_noise(observations_[id].rung) / rung_noise(2))
              : rung_noise(observations_[id].rung);
      g.append_observation(unit_x_[id], ya, noise_new);
    } else {
      g.append_observation(unit_x_[id], ya);
    }
  }
}

namespace {

/// The posteriors of `samples` on `gp`'s inputs, with `gp` as the fit
/// scratch: sample_hyperparams left it fitted with the chain's final
/// sample, so that posterior is taken first, while its factor is still in
/// place, and the others are refits of `gp` itself. A refit's factor and α
/// are a pure function of the distance cache and theta — the correlation
/// and factor caches only skip recomputing the same bits — so these are the
/// posteriors a fresh fit per sample would give.
std::vector<gp::Posterior> sample_posteriors(
    gp::GpRegressor& gp, const std::vector<gp::HyperSample>& samples,
    const Vector& y, std::span<const double> noise_ratios) {
  std::vector<gp::Posterior> posts(samples.size());
  posts.back() = gp::Posterior(gp.posterior());
  const Matrix& x = gp.inputs();
  for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
    gp::apply_hyperparams(gp, samples[i].theta, x, y, noise_ratios);
    posts[i] = gp::Posterior(gp.posterior());
  }
  return posts;
}

}  // namespace

void BayesOpt::fit_surrogate(Surrogate& s) {
  // The surrogate conditions on the windowed observations only. With an
  // unbounded window window_ is exactly [0, n), so every loop below walks
  // the same rows in the same order as the pre-window code — bit-identical.
  const std::size_t n = window_.size();
  const std::size_t d = space_.dim();

  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) ys[i] = observations_[window_[i]].y;
  const Summary sum = summarize(ys);
  s.y_mean = sum.mean;
  s.y_scale = sum.stddev > 1e-12 ? sum.stddev : 1.0;

  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = (observations_[window_[i]].y - s.y_mean) / s.y_scale;
  }
  // The unit-space inputs, built only for a fit that needs them; they move
  // into the regressor's distance cache, so X exists once.
  const auto unit_inputs = [&] {
    Matrix x(n, d);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < d; ++j) x(i, j) = unit_x_[window_[i]][j];
    }
    return x;
  };
  s.best_standardized = *std::max_element(y.begin(), y.end());
  s.cost1_ms = acq_cost1_ms_;
  s.cost2_ms = acq_cost2_ms_;
  s.threshold_standardized = (acq_threshold_y_ - s.y_mean) / s.y_scale;

  // Per-observation noise variances from the fidelity tags. The diagonal is
  // only engaged when the effective rung variances actually differ — a
  // history whose rungs all share one variance takes the homoscedastic
  // scalar path, bit-identical to pre-ladder fits. Slice sampling infers
  // the overall noise scale and carry the rung structure as fixed ratios
  // against the full-fidelity rung (see apply_hyperparams).
  std::vector<double> noises(n);
  bool het = false;
  for (std::size_t i = 0; i < n; ++i) {
    noises[i] = rung_noise(observations_[window_[i]].rung);
    het = het || noises[i] != noises[0];
  }
  std::vector<double> noise_ratios;
  if (het && options_.hyper_mode != HyperMode::kFixed) {
    const double base = rung_noise(2);
    noise_ratios.resize(n);
    for (std::size_t i = 0; i < n; ++i) noise_ratios[i] = noises[i] / base;
  }

  gp::Kernel kernel(options_.kernel, d, options_.ard);
  // Reasonable starting lengthscale for a unit cube.
  std::vector<double> ls(options_.ard ? d : 1, 0.3);
  kernel.set_lengthscales(ls);
  gp::GpRegressor gp(std::move(kernel), options_.fixed_noise_variance, 0.0);

  switch (options_.hyper_mode) {
    case HyperMode::kFixed: {
      // Hyperparameters never change in this mode, so the surrogate is kept
      // across calls: an unchanged window is reused outright, a single new
      // observation is an O(n²) Cholesky rank-grow instead of the O(n³)
      // refactorization, and a window slide additionally absorbs each
      // eviction through the O(n²) row downdate.
      std::vector<std::size_t> removals;
      std::size_t num_appends = 0;
      if (fixed_gp_ && fixed_gp_->fitted() && fixed_rows_ == window_) {
        // Same window as the previous call (e.g. repeated suggest() without
        // observe()): the standardized targets are identical, reuse as-is.
      } else if (fixed_gp_ && fixed_gp_->fitted() &&
                 window_step(fixed_rows_, removals, num_appends) &&
                 (!removals.empty() || num_appends == 1)) {
        // A multi-append with no eviction refits from scratch instead (the
        // pre-window behaviour, which windowed-but-not-yet-full histories
        // must reproduce bit for bit).
        slide_gp(*fixed_gp_, fixed_rows_, removals, num_appends, s.y_mean,
                 s.y_scale, het, /*sampled_noise=*/false);
        fixed_rows_ = window_;
      } else {
        if (het) gp.set_noise_diag(noises);
        gp.set_inputs(unit_inputs());
        gp.refit(y);
        fixed_gp_ = std::move(gp);
        fixed_rows_ = window_;
      }
      s.inputs_gp = &*fixed_gp_;
      s.posts.push_back(fixed_gp_->posterior());
      break;
    }
    case HyperMode::kSliceSample: {
      const bool windowed = options_.max_observations > 0;
      std::vector<std::size_t> removals;
      std::size_t num_appends = 0;
      // The warm path only engages once an eviction has actually happened:
      // until then the windowed optimizer must stay bit-identical to the
      // unwindowed one, which re-samples the chain on every suggest().
      const bool can_slide = windowed && evictions_ > 0 && warm_.valid &&
                             !warm_.gps.empty() &&
                             window_step(warm_.rows, removals, num_appends);
      if (can_slide && removals.empty() && num_appends == 0) {
        // Unchanged window (repeated suggest() without observe()): the
        // standardized targets are identical, score the warm GPs as-is.
        s.borrow(warm_.gps);
        break;
      }
      if (can_slide && !removals.empty() &&
          warm_.slides_since_refresh + 1 < kHyperRefitInterval) {
        // Incremental slide: each per-sample GP evicts and appends through
        // the O(n²) downdate / rank-grow paths with its hyperparameters
        // held fixed; no MCMC this call.
        for (auto& wg : warm_.gps) {
          slide_gp(wg, warm_.rows, removals, num_appends, s.y_mean,
                   s.y_scale, het, /*sampled_noise=*/true);
        }
        warm_.rows = window_;
        ++warm_.slides_since_refresh;
        s.borrow(warm_.gps);
        break;
      }
      gp::HyperSamplerOptions hs;
      hs.num_samples = options_.hyper_samples;
      hs.burn_in = options_.hyper_burn_in;
      hs.thin = 1;
      if (windowed && evictions_ > 0 && warm_.valid &&
          !warm_.chain_theta.empty()) {
        // Warm refresh: resume the chain where the last refresh left it —
        // the posterior moved only as far as the window slid, so a short
        // burn-in re-equilibrates it.
        hs.initial_theta = warm_.chain_theta;
        hs.burn_in = kHyperBurnInWarm;
      }
      gp.set_inputs(unit_inputs());
      const Matrix& x = gp.inputs();
      const auto samples =
          gp::sample_hyperparams(gp, x, y, hs, rng_, noise_ratios);
      if (!windowed) {
        s.own_posts = sample_posteriors(gp, samples, y, noise_ratios);
        s.inputs_gp = &s.own_gp.emplace(std::move(gp));
        for (const auto& post : s.own_posts) s.posts.push_back(post.view());
        break;
      }
      // The window keeps one whole regressor per sample for its slides:
      // one refit per copy, each an independent O(n³) Cholesky. The copies
      // share the sampler GP's inputs and distance cache, so the refits
      // skip the O(n²·d) pairwise loop.
      warm_.gps.assign(samples.size(), gp);
      for (std::size_t i = 0; i < samples.size(); ++i) {
        gp::apply_hyperparams(warm_.gps[i], samples[i].theta, x, y,
                              noise_ratios);
      }
      warm_.valid = true;
      warm_.rows = window_;
      warm_.chain_theta = samples.back().theta;
      warm_.slides_since_refresh = 0;
      s.borrow(warm_.gps);
      break;
    }
  }
}

namespace {

/// Serial argmax with a lowest-index tie-break, so the winner does not
/// depend on the order shards finished.
std::size_t argmax_index(const std::vector<double>& v) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[best]) best = i;
  }
  return best;
}

/// Multistart candidate c, drawn from its generation shard's stream into
/// column `col` of `qt` (row k = coordinate k). Three families:
///  * global uniform draws (exploration);
///  * dense Gaussian perturbations of the incumbent (exploitation);
///  * sparse mutations of the incumbent — resample a few coordinates and
///    keep the rest. In the 50-100-dimensional hint spaces dense
///    perturbations barely move and uniform draws never land near the
///    incumbent, so sparse moves are what make local progress possible.
void generate_candidate(std::size_t c, std::span<const double> inc_u,
                        Rng& rng, Matrix& qt, std::size_t col) {
  const std::size_t d = inc_u.size();
  switch (c % 4) {
    case 0:
    case 1:
      for (std::size_t j = 0; j < d; ++j) qt(j, col) = rng.uniform();
      break;
    case 2:
      for (std::size_t j = 0; j < d; ++j) {
        qt(j, col) = std::clamp(inc_u[j] + rng.normal(0.0, 0.1), 0.0, 1.0);
      }
      break;
    case 3: {
      for (std::size_t j = 0; j < d; ++j) qt(j, col) = inc_u[j];
      const std::size_t mutations = 1 + static_cast<std::size_t>(
          rng.uniform_int(0, std::max<std::int64_t>(
                                 1, static_cast<std::int64_t>(d) / 8)));
      for (std::size_t m = 0; m < mutations; ++m) {
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(d) - 1));
        qt(j, col) = rng.uniform();
      }
      break;
    }
  }
}

}  // namespace

std::vector<double> BayesOpt::maximize_acquisition(Surrogate& surrogate) {
  const std::size_t num_cands = options_.num_candidates;

  // Random multistart (generate_candidate), streamed through block_
  // kBlockRows candidates at a time: nothing here scales with
  // num_candidates, and the block persists across suggest() calls.
  //
  // Generation is sharded a FIXED number of ways: everything a generation
  // shard does is a pure function of (base_seed, shard index), and each
  // shard draws from its own Rng stream. The running argmax is strict >,
  // so the result is the lowest-index maximum over all candidates. A
  // candidate's score does not depend on which block scored it
  // (Surrogate::score_block).
  const BestResult incumbent = best();
  const std::vector<double> inc_u = space_.to_unit(incumbent.x);
  const std::uint64_t base_seed = rng_();
  constexpr std::size_t kGenShards = 16;
  const std::size_t gen_shards = std::min(kGenShards, num_cands);
  surrogate.size_block(block_, space_.dim());
  std::size_t filled = 0;
  for (std::size_t g = 0; g < gen_shards; ++g) {
    Rng rng = Rng::stream(base_seed, g);
    for (std::size_t c = g * num_cands / gen_shards;
         c < (g + 1) * num_cands / gen_shards; ++c) {
      if (filled == 0) Surrogate::poison(block_);
      generate_candidate(c, inc_u, rng, block_.qt, filled);
      if (++filled == kBlockRows || c + 1 == num_cands) {
        surrogate.score_candidates(block_, filled, /*fresh=*/c + 1 == filled);
        filled = 0;
      }
    }
  }
  return local_search(surrogate, block_.best_u, block_.best_score);
}

void BayesOpt::start_local_search(const Surrogate& surrogate,
                                  std::span<const double> cur) {
  const std::size_t d = space_.dim();
  const std::size_t n = surrogate.inputs_gp->num_observations();
  const std::size_t num_nb = 2 * d;
  const std::size_t num_posts = surrogate.posts.size();
  LocalSearch& ls = local_;
  ls.bounded = surrogate.bounds_neighbors();
  ls.base.resize(surrogate.shares_distances() ? n : 0);
  ls.bound.assign(num_nb, kInf);
  ls.score.resize(num_nb);
  ls.order.resize(num_nb);
  if (!ls.bounded) return;
  // The box holding X, the centre and the unit cube (every later centre
  // stays in the cube), and each factor's Frobenius norm.
  const Matrix& x = surrogate.inputs_gp->inputs();
  double lo = 0.0, hi = 1.0;
  for (std::size_t e = 0; e < n * d; ++e) {
    lo = std::min(lo, x.data()[e]);
    hi = std::max(hi, x.data()[e]);
  }
  for (const double v : cur) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  ls.eps = 2.0 * static_cast<double>(n + d + 64) * kUnitRoundoff;
  ls.range = hi - lo;
  ls.coord = std::max(-lo, hi);
  ls.frob.resize(num_posts);
  for (std::size_t s = 0; s < num_posts; ++s) {
    const gp::PosteriorView& post = surrogate.posts[s];
    double f2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double* li = post.lower + i * post.ld;
      for (std::size_t j = 0; j <= i; ++j) f2 += li[j] * li[j];
    }
    ls.frob[s] = std::sqrt(f2) * (1.0 + ls.eps);
  }
  ls.terms.resize(num_posts);
  ls.acq.resize(num_posts * num_nb);
  ls.weights.resize(num_posts * 4 * n);
  ls.sums.resize(num_posts * 6 * d);
  ls.var.resize(num_nb);
  ls.scratch.resize(6 * n);
}

std::size_t BayesOpt::order_by_bound(const Surrogate& surrogate,
                                     std::span<const double> cur, double step,
                                     double best_val) {
  LocalSearch& ls = local_;
  const std::size_t num_nb = ls.bound.size();
  if (ls.bounded) {
    const std::size_t num_posts = surrogate.posts.size();
    const std::size_t n = ls.base.size();
    const std::size_t d = cur.size();
    for (std::size_t s = 0; s < num_posts; ++s) {
      surrogate.centre_terms(surrogate.posts[s], ls, ls.frob[s],
                             ls.scratch.data(), ls.weights.data() + 4 * n * s,
                             ls.terms[s]);
    }
    // Every posterior's six column sums in one pass over X.
    linalg_kernels::ops().bound_sums(surrogate.inputs_gp->inputs().data(), d,
                                     n, d, ls.weights.data(), num_posts,
                                     ls.sums.data());
    for (std::size_t s = 0; s < num_posts; ++s) {
      surrogate.neighbor_bounds(surrogate.posts[s], ls.terms[s],
                                ls.sums.data() + 6 * d * s, ls.eps, cur, step,
                                ls.acq.data() + num_nb * s, ls.var.data());
    }
    // score_block's average, in its order: rounding is monotone, so the
    // average of the bounds bounds the exact average.
    const double inv = 1.0 / static_cast<double>(num_posts);
    for (std::size_t r = 0; r < num_nb; ++r) {
      double acc = 0.0;
      for (std::size_t s = 0; s < num_posts; ++s) {
        acc += ls.acq[num_nb * s + r];
      }
      acc *= inv;
      ls.bound[r] = std::isnan(acc) ? kInf : acc;
    }
  }
  // No T is below best_val, so a neighbour whose bound is below it is never
  // scored: only the rest are sorted.
  const auto cut =
      std::partition(ls.order.begin(), ls.order.end(),
                     [&](std::size_t r) { return ls.bound[r] >= best_val; });
  std::sort(ls.order.begin(), cut, [&](std::size_t a, std::size_t b) {
    return ls.bound[a] > ls.bound[b] || (ls.bound[a] == ls.bound[b] && a < b);
  });
  return static_cast<std::size_t>(cut - ls.order.begin());
}

double BayesOpt::score_in_order(const Surrogate& surrogate,
                                std::span<const double> cur, double step,
                                std::size_t lo, std::size_t hi,
                                double threshold) {
  LocalSearch& ls = local_;
  ScoreBlock& ws = block_;
  const std::size_t m = hi - lo;
  const std::size_t num_nb = ls.bound.size();
  Surrogate::poison(ws);
  for (std::size_t c = 0; c < m; ++c) ws.ids[c] = ls.order[lo + c];
  if (ls.bounded) {
    for (std::size_t s = 0; s < surrogate.posts.size(); ++s) {
      for (std::size_t c = 0; c < m; ++c) {
        ws.bounds[s * kBlockRows + c] = ls.acq[num_nb * s + ws.ids[c]];
      }
    }
  }
  // Without bounds (all +∞) nothing could drop: score at T = −∞.
  const std::size_t live =
      surrogate.score_neighbors(ws, cur, step, ls.base, m,
                                ls.bounded ? threshold : -kInf);
  double best = -kInf;
  for (std::size_t c = 0; c < live; ++c) {
    ls.score[ws.ids[c]] = ws.scores[c];
    best = std::max(best, ws.scores[c]);
  }
  return best;
}

void BayesOpt::search_neighbors(const Surrogate& surrogate,
                                std::span<const double> cur, double step,
                                double best_val) {
  LocalSearch& ls = local_;
  const std::size_t cut = order_by_bound(surrogate, cur, step, best_val);
  // A first small round lifts T before the rest; +∞ bounds (all of them
  // scored anyway) go a whole block at a time. Each round's survivors are
  // scored progressively against the T it started with.
  double threshold = best_val;
  std::size_t next = 0;
  std::size_t batch =
      ls.bound[ls.order[0]] < kInf ? kFirstNeighbors : kBlockRows;
  while (next < cut && ls.bound[ls.order[next]] >= threshold) {
    std::size_t end = next;
    const std::size_t cap = std::min(cut, next + batch);
    while (end < cap && ls.bound[ls.order[end]] >= threshold) ++end;
    threshold = std::max(
        threshold, score_in_order(surrogate, cur, step, next, end, threshold));
    next = end;
    batch = kBlockRows;
  }
}

void BayesOpt::start_iteration(const Surrogate& surrogate,
                               std::span<const double> cur, double step) {
  // One O(n·d) distance pass for the centre; every neighbour's distances
  // are then an O(n) single-coordinate update (score_neighbors).
  LocalSearch& ls = local_;
  if (!ls.base.empty()) surrogate.inputs_gp->unscaled_sq_dists(cur, ls.base);
  std::iota(ls.order.begin(), ls.order.end(), std::size_t{0});
  std::fill(ls.score.begin(), ls.score.end(), -kInf);
  ls.hs = step + ls.eps;
  ls.disp = 2.0 * ls.range * ls.hs;
}

void BayesOpt::score_all_neighbors(const Surrogate& surrogate,
                                   std::span<const double> cur, double step) {
  const std::size_t num_nb = local_.order.size();
  std::iota(local_.order.begin(), local_.order.end(), std::size_t{0});
  for (std::size_t b = 0; b < num_nb; b += kBlockRows) {
    score_in_order(surrogate, cur, step, b, std::min(num_nb, b + kBlockRows),
                   -kInf);
  }
}

std::vector<double> BayesOpt::local_search(const Surrogate& surrogate,
                                           std::vector<double> best_u,
                                           double best_val) {
  // Each iteration moves to the best strict improvement among the 2d
  // coordinate neighbours of the current point, or halves the step. Each
  // neighbour gets an upper bound on its score (order_by_bound, +∞ where
  // none exists); they are then scored exactly in descending-bound order
  // until the next bound falls below T = max(best_val, best exact score
  // so far), one posterior at a time, dropping a neighbour once its
  // partial score plus its remaining bounds falls below T
  // (Surrogate::score_block). An unscored
  // or dropped neighbour's score is then below a scored one's or below
  // best_val, so it could neither win the argmax, tie with its winner nor
  // be accepted: the move, the halving and every output bit are the
  // unpruned search's.
  LocalSearch& ls = local_;
  double step = 0.1;
  std::vector<double> cur = best_u;
  start_local_search(surrogate, cur);
  for (std::size_t it = 0; it < options_.local_search_iters; ++it) {
    start_iteration(surrogate, cur, step);
    search_neighbors(surrogate, cur, step, best_val);
    const std::size_t idx = argmax_index(ls.score);
#ifdef STORMTUNE_CHECKED
    // Score every neighbour as the unpruned search did: each exact score
    // must be within its bound, and the move or halving must be the same.
    {
      const std::vector<double> pruned = ls.score;
      score_all_neighbors(surrogate, cur, step);
      const std::size_t full_idx = argmax_index(ls.score);
      for (std::size_t r = 0; r < ls.score.size(); ++r) {
        STORMTUNE_INVARIANT(ls.score[r] <= ls.bound[r],
                            "BayesOpt: a local-search neighbour's exact "
                            "score exceeds its bound");
      }
      const bool moves = pruned[idx] > best_val;
      STORMTUNE_INVARIANT(
          moves == (ls.score[full_idx] > best_val) &&
              (!moves || (idx == full_idx && pruned[idx] == ls.score[idx])),
          "BayesOpt: the pruned local search decided otherwise than the "
          "unpruned one");
      ls.score = pruned;
    }
#endif
    if (ls.score[idx] > best_val) {
      best_val = ls.score[idx];
      cur[idx / 2] = neighbor_value(cur, step, idx);
      best_u = cur;
    } else {
      step *= 0.5;
      if (step < 1e-3) break;
    }
  }
  return best_u;
}

BayesOpt::NeighborScores BayesOpt::neighbor_scores(
    std::span<const double> centre, double step, double best_val) {
  STORMTUNE_REQUIRE(!observations_.empty() &&
                        observations_.size() >= options_.initial_design,
                    "BayesOpt::neighbor_scores: the surrogate is not engaged");
  STORMTUNE_REQUIRE(centre.size() == space_.dim(),
                    "BayesOpt::neighbor_scores: size mismatch");
  Surrogate surrogate;
  fit_surrogate(surrogate);
  surrogate.size_block(block_, space_.dim());
  start_local_search(surrogate, centre);
  start_iteration(surrogate, centre, step);
  search_neighbors(surrogate, centre, step, best_val);
  NeighborScores out{local_.bound, {}, local_.score};
  score_all_neighbors(surrogate, centre, step);
  out.exact = local_.score;
  return out;
}

ParamValues BayesOpt::suggest() {
  if (observations_.empty() ||
      observations_.size() < options_.initial_design) {
    return space_.sample(rng_);
  }
  Surrogate surrogate;
  fit_surrogate(surrogate);
  const std::vector<double> u = maximize_acquisition(surrogate);
  return space_.from_unit(u);
}

void BayesOpt::observe(ParamValues x, double y) {
  observe(std::move(x), y, 2);
}

void BayesOpt::observe(ParamValues x, double y, int rung) {
  STORMTUNE_REQUIRE(std::isfinite(y), "BayesOpt::observe: non-finite target");
  STORMTUNE_REQUIRE(rung == 1 || rung == 2,
                    "BayesOpt::observe: rung must be 1 (adaptive DES) or 2 "
                    "(full DES); rung-0 fluid screens stay out of the GP");
  x = space_.canonicalize(std::move(x));
  unit_x_.push_back(space_.to_unit(x));
  // Strict > keeps the earliest of equal maxima, matching the previous
  // full-rescan behaviour.
  if (observations_.empty() || y > observations_[best_index_].y) {
    best_index_ = observations_.size();
  }
  observations_.push_back(Observation{std::move(x), y, rung});
  window_.push_back(observations_.size() - 1);
  if (options_.max_observations > 0 &&
      window_.size() > options_.max_observations) {
    // FIFO with incumbent pinning: evict the oldest windowed observation
    // that is not the incumbent (the incumbent was updated above, so a just-
    // observed new best is already protected). max_observations >= 2
    // guarantees an evictable entry exists.
    std::size_t evict = 0;
    while (evict < window_.size() && window_[evict] == best_index_) ++evict;
    window_.erase(window_.begin() + static_cast<std::ptrdiff_t>(evict));
    ++evictions_;
  }
}

void BayesOpt::set_acquisition_costs(double cost_rung1_ms, double cost_rung2_ms,
                                     double threshold_y) {
  STORMTUNE_REQUIRE(
      cost_rung1_ms <= 0.0 ||
          (std::isfinite(cost_rung1_ms) && std::isfinite(cost_rung2_ms) &&
           cost_rung2_ms >= 0.0 && std::isfinite(threshold_y)),
      "BayesOpt::set_acquisition_costs: non-finite or negative costs");
  acq_cost1_ms_ = cost_rung1_ms;
  acq_cost2_ms_ = cost_rung2_ms;
  acq_threshold_y_ = threshold_y;
}

double BayesOpt::rung_noise(int rung) const {
  if (rung >= 0 &&
      static_cast<std::size_t>(rung) < options_.rung_noise_variance.size()) {
    const double v =
        options_.rung_noise_variance[static_cast<std::size_t>(rung)];
    if (v > 0.0) return v;
  }
  return options_.fixed_noise_variance;
}

BayesOpt::BestResult BayesOpt::best() const {
  STORMTUNE_REQUIRE(!observations_.empty(), "BayesOpt::best: no observations");
  const Observation& ob = observations_[best_index_];
  return BestResult{ob.x, ob.y, best_index_};
}

Json BayesOpt::save_state() const {
  JsonObject o;
  o["space"] = space_.to_json();
  o["options"] = options_.to_json();
  JsonArray obs;
  for (const auto& ob : observations_) {
    JsonObject e;
    JsonArray xs;
    for (double v : ob.x) xs.emplace_back(v);
    e["x"] = Json(std::move(xs));
    e["y"] = ob.y;
    if (ob.rung != 2) e["rung"] = ob.rung;
    obs.emplace_back(std::move(e));
  }
  o["observations"] = Json(std::move(obs));
  return Json(std::move(o));
}

BayesOpt BayesOpt::load_state(const Json& j) {
  ParamSpace space = ParamSpace::from_json(j.at("space"));
  BayesOptOptions options = BayesOptOptions::from_json(j.at("options"));
  BayesOpt opt(std::move(space), options);
  for (const auto& e : j.at("observations").as_array()) {
    ParamValues x;
    for (const auto& v : e.at("x").as_array()) x.push_back(v.as_number());
    // Rung tag absent in states saved before the multi-fidelity ladder
    // existed (and omitted for the default full-fidelity rung 2).
    const int rung =
        e.contains("rung") ? static_cast<int>(e.at("rung").as_int()) : 2;
    opt.observe(std::move(x), e.at("y").as_number(), rung);
  }
  return opt;
}

}  // namespace stormtune::bo
