#include "tuning/campaign_scheduler.hpp"

#include <atomic>
#include <memory>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace stormtune::tuning {

namespace {

/// One optimization pass of the paper's protocol as a resumable state
/// machine over a borrowed tuner and objective. Each step() does one unit
/// of work — one suggest, one evaluation, or one best-config repetition —
/// so the same machine runs inline (run_experiment) or as a strand.
///
/// Repetition r evaluates on a clone bound to stream r (a rebound clone is
/// bit-identical to a fresh clone_stream(r)), so its value is a pure
/// function of (pass, rep). Only an objective that cannot clone continues
/// its own measurement sequence.
class PassRun {
 public:
  PassRun(Tuner& tuner, Objective& objective, const ExperimentOptions& options)
      : tuner_(tuner), objective_(objective), options_(options) {
    STORMTUNE_REQUIRE(options.max_steps > 0,
                      "experiment: max_steps must be > 0");
    result_.strategy = tuner.name();
  }

  /// Advance by one unit of work. Returns false once the pass is complete.
  bool step();

  /// Whether the next step is a suggest (dense linalg that prefers to stay
  /// on its home worker's warm caches).
  bool suggesting() const { return phase_ == Phase::kSuggest; }

  ExperimentResult& result() { return result_; }

 private:
  enum class Phase { kSuggest, kEvaluate, kReps };

  /// Close the tuning loop; returns whether repetitions remain.
  bool finish_tuning_loop();
  /// Evaluate the next repetition; returns whether more remain.
  bool rep_step();

  Tuner& tuner_;
  Objective& objective_;
  const ExperimentOptions& options_;
  Phase phase_ = Phase::kSuggest;

  ExperimentResult result_;
  std::optional<sim::TopologyConfig> pending_config_;
  std::size_t step_index_ = 0;  // 1-based
  std::size_t zero_streak_ = 0;

  std::unique_ptr<Objective> rep_clone_;  // null: the objective cannot clone
  std::size_t rep_ = 0;                   // next repetition
};

bool PassRun::step() {
  switch (phase_) {
    case Phase::kSuggest: {
      std::optional<sim::TopologyConfig> config = tuner_.next();
      if (!config) return finish_tuning_loop();
      pending_config_ = std::move(config);
      ++step_index_;
      phase_ = Phase::kEvaluate;
      return true;
    }
    case Phase::kEvaluate: {
      const double throughput = objective_.evaluate(*pending_config_);
      tuner_.report(*pending_config_, throughput);

      StepRecord rec;
      rec.step = step_index_;
      rec.throughput = throughput;
      result_.trace.push_back(rec);

      if (throughput > result_.best_throughput) {
        result_.best_throughput = throughput;
        result_.best_config = *pending_config_;
        result_.best_step = step_index_;
      }

      bool stop = step_index_ >= options_.max_steps;
      if (throughput <= 0.0) {
        if (++zero_streak_ >= options_.zero_streak_stop &&
            options_.zero_streak_stop > 0) {
          stop = true;
        }
      } else {
        zero_streak_ = 0;
      }
      if (stop) return finish_tuning_loop();
      phase_ = Phase::kSuggest;
      return true;
    }
    case Phase::kReps:
      return rep_step();
  }
  STORMTUNE_REQUIRE(false, "experiment: corrupt pass phase");
  return false;
}

bool PassRun::rep_step() {
  if (rep_ == 0) {
    rep_clone_ = objective_.clone_stream(0);
  } else if (rep_clone_ && !rep_clone_->rebind_stream(rep_)) {
    rep_clone_ = objective_.clone_stream(rep_);
    STORMTUNE_REQUIRE(rep_clone_ != nullptr,
                      "experiment: clone_stream failed mid-phase");
  }
  Objective& target = rep_clone_ ? *rep_clone_ : objective_;
  result_.best_rep_values[rep_] = target.evaluate(result_.best_config);
  if (++rep_ < options_.best_config_reps) return true;
  result_.best_rep_stats = summarize(result_.best_rep_values);
  return false;
}

bool PassRun::finish_tuning_loop() {
  STORMTUNE_REQUIRE(!result_.trace.empty(),
                    "experiment: tuner proposed nothing");
  if (options_.best_config_reps == 0 || result_.best_step == 0) return false;
  result_.best_rep_values.assign(options_.best_config_reps, 0.0);
  phase_ = Phase::kReps;
  return true;
}

/// Shared per-campaign bookkeeping: pass results land here and the LAST
/// pass to finish performs the gather (deterministic despite racing
/// completion order — the gather is a pure function of the pass results,
/// which are all final by then).
struct CampaignState {
  const CampaignSpec* spec = nullptr;
  std::size_t ticket = 0;  // submission index
  std::vector<ExperimentResult> pass_results;
  std::atomic<std::size_t> passes_remaining{0};
  ExperimentResult* final_slot = nullptr;  // where the winning pass goes
  ResultSink* sink = nullptr;
};

/// Winning pass by repetition mean (or best single measurement when reps
/// are off), first-pass-wins on ties.
void gather_campaign(CampaignState& c) {
  const bool use_reps = c.spec->options.best_config_reps > 0;
  std::size_t win = 0;
  for (std::size_t pass = 1; pass < c.pass_results.size(); ++pass) {
    const double score = use_reps ? c.pass_results[pass].best_rep_stats.mean
                                  : c.pass_results[pass].best_throughput;
    const double best = use_reps ? c.pass_results[win].best_rep_stats.mean
                                 : c.pass_results[win].best_throughput;
    if (score > best) win = pass;
  }
  *c.final_slot = c.pass_results[win];
  if (c.sink != nullptr) {
    CampaignOutcome outcome;
    outcome.ticket = c.ticket;
    outcome.name = c.spec->name;
    outcome.result = *c.final_slot;
    c.sink->submit(std::move(outcome));
  }
}

/// One (campaign, pass) pair as a strand: the first step builds the pass's
/// tuner and objective, every later step forwards to its PassRun. The
/// StrandPool guarantees a strand never runs concurrently with itself.
class PassStrand : public Strand {
 public:
  PassStrand(CampaignState& campaign, std::size_t pass)
      : campaign_(campaign), pass_(pass) {}

  bool step() override {
    if (!run_) {
      tuner_ = campaign_.spec->make_tuner(pass_);
      STORMTUNE_REQUIRE(tuner_ != nullptr,
                        "campaign: tuner factory returned null");
      objective_ = campaign_.spec->make_objective(pass_);
      STORMTUNE_REQUIRE(objective_ != nullptr,
                        "campaign: objective factory returned null");
      run_.emplace(*tuner_, *objective_, campaign_.spec->options);
      return true;
    }
    if (run_->step()) return true;
    finish_pass();
    return false;
  }

  int steal_preference() const override {
    // Simulation-phase steps (evaluations and repetitions) migrate
    // cheaply; suggest steps prefer their home worker's warm caches. The
    // init step builds the tuner/objective — unplaced state, free to move.
    return run_ && run_->suggesting() ? 0 : 1;
  }

 private:
  void finish_pass() {
    // Release the heavyweight per-pass state before the (possibly much
    // later) campaign gather; the results vector is all that must survive.
    campaign_.pass_results[pass_] = std::move(run_->result());
    tuner_.reset();
    objective_.reset();
    run_.reset();
    if (campaign_.passes_remaining.fetch_sub(1, std::memory_order_seq_cst) ==
        1) {
      gather_campaign(campaign_);
    }
  }

  CampaignState& campaign_;
  std::size_t pass_;
  std::unique_ptr<Tuner> tuner_;
  std::unique_ptr<Objective> objective_;
  std::optional<PassRun> run_;
};

void init_campaign(CampaignState& c, const CampaignSpec& spec,
                   std::size_t ticket, ExperimentResult* final_slot,
                   ResultSink* sink) {
  STORMTUNE_REQUIRE(spec.passes > 0, "campaign: passes must be > 0");
  STORMTUNE_REQUIRE(spec.make_tuner && spec.make_objective,
                    "campaign: spec is missing a factory");
  c.spec = &spec;
  c.ticket = ticket;
  c.pass_results.resize(spec.passes);
  c.passes_remaining.store(spec.passes, std::memory_order_seq_cst);
  c.final_slot = final_slot;
  c.sink = sink;
}

/// Run every pass of every campaign to completion as one strand each on a
/// StrandPool of `threads` workers (0 = auto); returns the steal count.
std::uint64_t run_passes(std::vector<CampaignState>& campaigns,
                         std::size_t threads) {
  std::vector<std::unique_ptr<PassStrand>> owned;
  std::vector<Strand*> strands;
  for (CampaignState& c : campaigns) {
    for (std::size_t pass = 0; pass < c.spec->passes; ++pass) {
      owned.push_back(std::make_unique<PassStrand>(c, pass));
      strands.push_back(owned.back().get());
    }
  }
  StrandPool pool(threads > 0 ? threads : ThreadPool::default_thread_count());
  pool.run(strands);
  return pool.steal_count();
}

}  // namespace

ExperimentResult run_experiment(Tuner& tuner, Objective& objective,
                                const ExperimentOptions& options) {
  PassRun run(tuner, objective, options);
  while (run.step()) {
  }
  return std::move(run.result());
}

ExperimentResult run_campaign(const CampaignSpec& spec, std::size_t threads,
                              std::vector<ExperimentResult>* all_passes) {
  ExperimentResult best;
  std::vector<CampaignState> campaigns(1);
  init_campaign(campaigns[0], spec, 0, &best, nullptr);
  run_passes(campaigns, threads);
  if (all_passes != nullptr) {
    for (ExperimentResult& r : campaigns[0].pass_results) {
      all_passes->push_back(std::move(r));
    }
  }
  return best;
}

MultiCampaignResult run_campaigns(const std::vector<CampaignSpec>& specs,
                                  const CampaignSchedulerOptions& options,
                                  ResultSink* sink) {
  MultiCampaignResult out;
  out.results.resize(specs.size());
  if (specs.empty()) return out;
  std::vector<CampaignState> campaigns(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    init_campaign(campaigns[i], specs[i], i, &out.results[i], sink);
  }
  out.steal_count = run_passes(campaigns, options.num_threads);
  return out;
}

}  // namespace stormtune::tuning
