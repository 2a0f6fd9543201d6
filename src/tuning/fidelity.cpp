#include "tuning/fidelity.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace stormtune::tuning {

namespace {

/// Seed salt separating the rung-1 noise stream from the rung-2 stream the
/// ladder shares with plain full-fidelity objectives.
constexpr std::uint64_t kRung1SeedSalt = 0xd1b54a32d192ed03ULL;
/// Seed salt for the tuner's screening stream (uniform candidate draws).
constexpr std::uint64_t kScreenSeedSalt = 0xa0761d6478bd642fULL;

sim::SimParams rung1_params(const sim::SimParams& full,
                            const LadderOptions& options) {
  sim::SimParams p = full;
  p.adaptive_window = true;
  p.adaptive_epsilon = options.rung1_epsilon;
  p.duration_s = full.duration_s * options.rung1_window_fraction;
  // Rung 1 is a screen, not a measurement: coarser confidence blocks (4x4
  // commits instead of the full-window 8x6) let the adaptive rule stop as
  // soon as the loose rung1_epsilon target is met, instead of idling at
  // the measurement-grade commit floor.
  p.adaptive_block_commits = 4;
  p.adaptive_min_blocks = 4;
  return p;
}

bo::BayesOptOptions ladder_bo_options(bo::BayesOptOptions o,
                                      const LadderOptions& lo) {
  if (o.rung_noise_variance.empty()) {
    // Rung-1 measurements come from a shorter, loosely-stopped window:
    // give them a wider noise band than full-window rung-2 runs. The zero
    // entries inherit fixed_noise_variance (rung 2 keeps the
    // single-fidelity default). kFixed mode applies the variances as-is;
    // the sampled hyper modes keep the rung-1/rung-2 ratio fixed while the
    // overall noise scale is inferred (apply_hyperparams' noise_ratio_diag).
    o.rung_noise_variance = {0.0, lo.rung1_noise_multiple *
                                      o.fixed_noise_variance,
                             0.0};
  }
  return o;
}

}  // namespace

FidelityLadder::FidelityLadder(sim::Topology topology, sim::ClusterSpec cluster,
                               sim::SimParams params, std::uint64_t seed,
                               LadderOptions options)
    : options_(options),
      cluster_(cluster),
      fluid_params_(params),
      rung1_(topology, cluster, rung1_params(params, options),
             seed ^ kRung1SeedSalt),
      rung2_(std::move(topology), cluster, params, seed) {
  STORMTUNE_REQUIRE(options_.challenge_fraction > 0.0 &&
                        options_.challenge_fraction <= 1.0,
                    "FidelityLadder: challenge_fraction must be in (0, 1]");
  STORMTUNE_REQUIRE(options_.rung1_window_fraction > 0.0 &&
                        options_.rung1_window_fraction <= 1.0,
                    "FidelityLadder: rung1_window_fraction must be in (0, 1]");
  STORMTUNE_REQUIRE(options_.rung1_epsilon > 0.0,
                    "FidelityLadder: rung1_epsilon must be > 0");
}

double FidelityLadder::evaluate(const sim::TopologyConfig& config) {
  const double v1 = rung1_.evaluate(config);
  ++stats_.rung1_evals;
  stats_.rung1_simulated_ms += rung1_.last_result().simulated_ms;
  last_rung_ = 1;
  // Zero-performance runs (crashes, stalled deployments) never challenge:
  // the driver's zero-streak stop sees them exactly as in full mode.
  if (v1 <= 0.0) return v1;
  // A challenger must clear both the incumbent's challenge threshold and
  // the escalation high-water mark by a 2*rung1_epsilon margin — two
  // rung-1 measurements each carrying a relative confidence half-width of
  // rung1_epsilon are only distinguishable when separated by about twice
  // that. Every full run raises the bar, so re-escalating the same
  // near-incumbent neighborhood requires a decisive new rung-1 record, not
  // another favorable noise draw. Sub-margin improvements still steer the
  // search — rung-1 values reach the optimizer and the best-config
  // selection, and the repetition phase re-measures the winner at full
  // fidelity.
  const double bar =
      std::max(incumbent_ ? options_.challenge_fraction * *incumbent_ : 0.0,
               (1.0 + 2.0 * options_.rung1_epsilon) * rung1_bar_);
  if (incumbent_ && v1 < bar) return v1;
  // The rung-1 value challenges the incumbent (or none exists yet): spend a
  // full fixed-window run and let only ITS measurement update the incumbent
  // — rung-1 values are too loosely measured to hold the title.
  const double v2 = rung2_.evaluate(config);
  ++stats_.rung2_evals;
  stats_.rung2_simulated_ms += rung2_.last_result().simulated_ms;
  last_rung_ = 2;
  if (!incumbent_ || v2 > *incumbent_) incumbent_ = v2;
  // The bar rises on every escalation, successful or not: the next
  // challenger has to post a rung-1 value no prior escalation reached.
  // Rung-1 values are monotone-comparable across the whole run (same
  // simulator, same window policy), so a monotone bar never blocks a
  // config whose shortened-window measurement genuinely leads the pack.
  rung1_bar_ = std::max(rung1_bar_, v1);
  return v2;
}

std::unique_ptr<Objective> FidelityLadder::clone_stream(
    std::uint64_t stream) const {
  return rung2_.clone_stream(stream);
}

double FidelityLadder::fluid_score(const sim::TopologyConfig& config) {
  ++stats_.screened;
  return sim::fluid_estimate(rung2_.topology(), config, cluster_,
                             fluid_params_, ws_)
      .throughput_tuples_per_s;
}

double FidelityLadder::mean_rung1_cost_ms() const {
  return stats_.rung1_evals > 0
             ? stats_.rung1_simulated_ms /
                   static_cast<double>(stats_.rung1_evals)
             : 0.0;
}

double FidelityLadder::mean_rung2_cost_ms() const {
  return stats_.rung2_evals > 0
             ? stats_.rung2_simulated_ms /
                   static_cast<double>(stats_.rung2_evals)
             : 0.0;
}

LadderTuner::LadderTuner(ConfigSpace space, bo::BayesOptOptions options,
                         std::shared_ptr<FidelityLadder> ladder,
                         std::string name)
    : space_(std::move(space)),
      ladder_(std::move(ladder)),
      opt_(space_.space(), ladder_bo_options(options, ladder_->options())),
      name_(std::move(name)),
      screen_rng_(options.seed ^ kScreenSeedSalt) {
  STORMTUNE_REQUIRE(ladder_ != nullptr, "LadderTuner: null ladder");
}

void LadderTuner::refill_queue() {
  queue_.clear();
  queue_pos_ = 0;
  const LadderOptions& lo = ladder_->options();
  // Expected improvement per simulated second: once both rungs have a
  // measured mean cost and an incumbent exists, the acquisition search
  // charges each candidate c1 + Φ(promote) · c2 (see
  // BayesOpt::set_acquisition_costs). Simulated-ms costs keep this a pure
  // function of the evaluation history.
  if (lo.cost_aware_acquisition && ladder_->incumbent()) {
    const double c1 = ladder_->mean_rung1_cost_ms();
    const double c2 = ladder_->mean_rung2_cost_ms();
    if (c1 > 0.0 && c2 > 0.0) {
      opt_.set_acquisition_costs(
          c1, c2, lo.challenge_fraction * *ladder_->incumbent());
    }
  }
  const std::size_t batch = std::max<std::size_t>(1, lo.screen_batch);
  const std::size_t keep =
      std::clamp<std::size_t>(lo.promote_top_k, 1, batch);
  // Slot 0: the acquisition argmax — always promoted, never screened out.
  // One GP suggest is amortized over the whole promotion queue, so ladder
  // mode pays 1/keep of full mode's suggest cost per evaluation.
  queue_.push_back(opt_.suggest());
  // Remaining slots: uniform draws, fluid-screened. The draws are consumed
  // from screen_rng_ unconditionally and in order, so the candidate set —
  // and therefore the promotion decision — is a pure function of the
  // (candidate set, RNG stream) pair, independent of thread count.
  struct Scored {
    double score;
    std::size_t index;
  };
  std::vector<bo::ParamValues> sampled;
  std::vector<Scored> scored;
  sampled.reserve(batch - 1);
  scored.reserve(batch - 1);
  for (std::size_t i = 1; i < batch; ++i) {
    bo::ParamValues x = space_.space().sample(screen_rng_);
    const double s = ladder_->fluid_score(space_.decode(x));
    scored.push_back(Scored{s, i - 1});
    sampled.push_back(std::move(x));
  }
  // Promotion order: fluid score descending, index ascending on ties — an
  // explicit total order over the candidate set, so ties cannot make the
  // promoted set depend on sort internals (detlint DET003).
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.index < b.index;
            });
  const std::size_t promote = std::min(keep - 1, scored.size());
  for (std::size_t i = 0; i < promote; ++i) {
    queue_.push_back(std::move(sampled[scored[i].index]));
  }
}

std::optional<sim::TopologyConfig> LadderTuner::next() {
  if (queue_pos_ >= queue_.size()) refill_queue();
  pending_ = std::move(queue_[queue_pos_]);
  ++queue_pos_;
  return space_.decode(*pending_);
}

void LadderTuner::report(const sim::TopologyConfig& config,
                         double throughput) {
  // Prefer the exact suggested vector when it matches the evaluated
  // configuration (same policy as BayesTuner::report).
  bo::ParamValues x = pending_ && space_.decode(*pending_).describe() ==
                                      config.describe()
                          ? *pending_
                          : space_.encode(config);
  pending_.reset();
  // The driver calls evaluate() then report() synchronously for the same
  // config, so the ladder's last rung is this measurement's fidelity.
  opt_.observe(std::move(x), throughput, ladder_->last_rung());
}

LadderCampaignFactories::LadderCampaignFactories(LadderCampaignConfig config)
    : config_(std::move(config)) {}

std::shared_ptr<LadderCampaignFactories> LadderCampaignFactories::create(
    LadderCampaignConfig config) {
  return std::shared_ptr<LadderCampaignFactories>(
      new LadderCampaignFactories(std::move(config)));
}

std::shared_ptr<FidelityLadder> LadderCampaignFactories::ladder(
    std::size_t pass) {
  std::lock_guard<std::mutex> lock(mu_);
  std::weak_ptr<FidelityLadder>& slot = ladders_[pass];
  if (auto live = slot.lock()) return live;
  const std::uint64_t seed =
      config_.seeds(config_.objective_seed, pass).objective;
  // Not make_shared: the weak slot would then hold the ladder's storage.
  std::shared_ptr<FidelityLadder> l(
      new FidelityLadder(config_.topology, config_.cluster, config_.params,
                         seed, config_.ladder));
  slot = l;
  return l;
}

double SharedLadderObjective::evaluate(const sim::TopologyConfig& config) {
  return ladder_->evaluate(config);
}

std::unique_ptr<Objective> SharedLadderObjective::clone_stream(
    std::uint64_t stream) const {
  return ladder_->clone_stream(stream);
}

TunerFactory LadderCampaignFactories::tuner_factory() {
  auto self = shared_from_this();
  return [self](std::size_t pass) -> std::unique_ptr<Tuner> {
    bo::BayesOptOptions bo = self->config_.bo;
    bo.seed = self->config_.seeds(self->config_.bo.seed, pass).tuner;
    ConfigSpace space(self->config_.topology, self->config_.space,
                      self->config_.defaults);
    return std::make_unique<LadderTuner>(std::move(space), std::move(bo),
                                         self->ladder(pass),
                                         self->config_.tuner_name);
  };
}

ObjectiveFactory LadderCampaignFactories::objective_factory() {
  auto self = shared_from_this();
  return [self](std::size_t pass) -> std::unique_ptr<Objective> {
    return std::make_unique<SharedLadderObjective>(self->ladder(pass));
  };
}

}  // namespace stormtune::tuning
