#include "probe.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "tuning/fidelity.hpp"
#include "tuning/objective.hpp"

namespace e2e {

namespace {

std::uint32_t worker_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

/// Wraps one pass's tuner. Untraced it keeps three clock reads per step;
/// traced it also records the pass, step, suggest and observe spans.
class TimedTuner final : public tuning::Tuner {
 public:
  TimedTuner(std::unique_ptr<tuning::Tuner> inner, std::uint32_t campaign,
             std::uint32_t pass, std::size_t max_steps, bool traced,
             Collector& out)
      : inner_(std::move(inner)),
        ladder_(dynamic_cast<const tuning::LadderTuner*>(inner_.get())),
        campaign_(campaign),
        pass_(pass),
        traced_(traced),
        out_(out),
        born_ns_(now_ns()) {
    steps_.reserve(max_steps);
    if (traced_) spans_.reserve(3 * max_steps + 1);
  }

  ~TimedTuner() override {
    try {
      if (traced_) push(SpanKind::kPass, 0, born_ns_, now_ns());
      LadderCounts counts;
      if (traced_ && ladder_ != nullptr) {
        const tuning::LadderStats& s = ladder_->ladder().stats();
        counts = {s.screened, s.rung1_evals, s.rung2_evals};
      }
      out_.merge(steps_, spans_, counts);
    } catch (...) {
      out_.note_lost();
    }
  }

  TimedTuner(const TimedTuner&) = delete;
  TimedTuner& operator=(const TimedTuner&) = delete;

  /// The pass's fidelity ladder, when the inner tuner is a LadderTuner.
  const tuning::FidelityLadder* ladder() const {
    return ladder_ != nullptr ? &ladder_->ladder() : nullptr;
  }

  std::optional<sim::TopologyConfig> next() override {
    const std::int64_t t0 = now_ns();
    std::optional<sim::TopologyConfig> config = inner_->next();
    const std::int64_t t1 = now_ns();
    if (config) {
      steps_.push_back(StepStamp{t0, t1, 0});
      if (traced_) push(SpanKind::kSuggest, steps_.size(), t0, t1);
    }
    return config;
  }

  void report(const sim::TopologyConfig& config, double throughput) override {
    const std::int64_t t0 = traced_ ? now_ns() : 0;
    inner_->report(config, throughput);
    const std::int64_t t1 = now_ns();
    if (steps_.empty()) return;
    StepStamp& s = steps_.back();
    s.report_out = t1;
    if (traced_) {
      push(SpanKind::kObserve, steps_.size(), t0, t1);
      push(SpanKind::kStep, steps_.size(), s.next_in, t1);
    }
  }

  std::string name() const override { return inner_->name(); }

 private:
  void push(SpanKind kind, std::size_t index, std::int64_t begin,
            std::int64_t end) {
    Span s;
    s.kind = kind;
    s.campaign = campaign_;
    s.pass = pass_;
    s.index = static_cast<std::uint32_t>(index);
    s.worker = worker_id();
    s.begin_ns = begin;
    s.end_ns = end;
    spans_.push_back(s);
  }

  std::unique_ptr<tuning::Tuner> inner_;
  const tuning::LadderTuner* ladder_;
  std::uint32_t campaign_;
  std::uint32_t pass_;
  bool traced_;
  Collector& out_;
  std::int64_t born_ns_;
  std::vector<StepStamp> steps_;
  std::vector<Span> spans_;
};

/// Wraps a pass objective (traced runs only) or one of its repetition
/// clones. Evaluation k of a pass objective is step k's evaluation.
class TimedObjective final : public tuning::Objective {
 public:
  TimedObjective(std::unique_ptr<tuning::Objective> inner,
                 std::uint32_t campaign, std::uint32_t pass,
                 const tuning::FidelityLadder* ladder, bool rep_clone,
                 std::uint64_t stream, std::size_t max_steps, Collector& out)
      : inner_(std::move(inner)),
        sim_(dynamic_cast<const tuning::SimObjective*>(inner_.get())),
        ladder_(ladder),
        campaign_(campaign),
        pass_(pass),
        rep_clone_(rep_clone),
        index_(static_cast<std::uint32_t>(stream)),
        out_(out) {
    spans_.reserve(max_steps + 1);
  }

  ~TimedObjective() override {
    try {
      out_.merge({}, spans_, LadderCounts{});
    } catch (...) {
      out_.note_lost();
    }
  }

  TimedObjective(const TimedObjective&) = delete;
  TimedObjective& operator=(const TimedObjective&) = delete;

  double evaluate(const sim::TopologyConfig& config) override {
    const double before = ladder_simulated_ms();
    const std::int64_t t0 = now_ns();
    const double value = inner_->evaluate(config);
    const std::int64_t t1 = now_ns();
    Span s = make(rep_clone_ ? SpanKind::kRep : SpanKind::kEvaluate, t0, t1);
    if (!rep_clone_) s.index = ++evaluations_;
    if (ladder_ != nullptr) {
      s.rung = static_cast<std::uint8_t>(ladder_->last_rung());
      s.simulated_ms = ladder_simulated_ms() - before;
      s.crashed = s.simulated_ms == 0.0;
    } else if (sim_ != nullptr) {
      s.simulated_ms = sim_->last_result().simulated_ms;
      s.crashed = sim_->last_result().crashed;
    }
    spans_.push_back(s);
    return value;
  }

  std::unique_ptr<tuning::Objective> clone_stream(
      std::uint64_t stream) const override {
    const std::int64_t t0 = now_ns();
    std::unique_ptr<tuning::Objective> inner = inner_->clone_stream(stream);
    if (!inner) return nullptr;
    auto clone = std::make_unique<TimedObjective>(
        std::move(inner), campaign_, pass_, nullptr, true, stream, 1, out_);
    clone->spans_.push_back(clone->make(SpanKind::kRebind, t0, now_ns()));
    return clone;
  }

  bool rebind_stream(std::uint64_t stream) override {
    const std::int64_t t0 = now_ns();
    const bool ok = inner_->rebind_stream(stream);
    index_ = static_cast<std::uint32_t>(stream);
    spans_.push_back(make(SpanKind::kRebind, t0, now_ns()));
    return ok;
  }

 private:
  double ladder_simulated_ms() const {
    if (ladder_ == nullptr) return 0.0;
    const tuning::LadderStats& s = ladder_->stats();
    return s.rung1_simulated_ms + s.rung2_simulated_ms;
  }

  Span make(SpanKind kind, std::int64_t begin, std::int64_t end) const {
    Span s;
    s.kind = kind;
    s.campaign = campaign_;
    s.pass = pass_;
    s.index = index_;
    s.worker = worker_id();
    s.begin_ns = begin;
    s.end_ns = end;
    return s;
  }

  std::unique_ptr<tuning::Objective> inner_;
  const tuning::SimObjective* sim_;
  const tuning::FidelityLadder* ladder_;
  std::uint32_t campaign_;
  std::uint32_t pass_;
  bool rep_clone_;
  std::uint32_t index_;
  std::uint32_t evaluations_ = 0;
  Collector& out_;
  std::vector<Span> spans_;
};

}  // namespace

std::int64_t now_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPass: return "pass";
    case SpanKind::kStep: return "step";
    case SpanKind::kSuggest: return "suggest";
    case SpanKind::kEvaluate: return "evaluate";
    case SpanKind::kObserve: return "observe";
    case SpanKind::kRep: return "rep";
    case SpanKind::kRebind: return "rebind";
  }
  return "?";
}

void Collector::merge(const std::vector<StepStamp>& steps,
                      const std::vector<Span>& spans,
                      const LadderCounts& ladder) {
  std::lock_guard<std::mutex> lock(mu_);
  data_.steps.insert(data_.steps.end(), steps.begin(), steps.end());
  data_.spans.insert(data_.spans.end(), spans.begin(), spans.end());
  data_.ladder.screened += ladder.screened;
  data_.ladder.rung1_evals += ladder.rung1_evals;
  data_.ladder.rung2_evals += ladder.rung2_evals;
}

void Collector::note_lost() {
  std::lock_guard<std::mutex> lock(mu_);
  ++data_.lost;
}

std::vector<StepStamp> Collector::take_steps() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(data_.steps, {});
}

Collected Collector::drain() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(data_, Collected{});
}

void instrument(tuning::CampaignSpec& spec, std::uint32_t campaign,
                bool traced, Collector& out) {
  // Pass p's objective needs pass p's ladder, which only the tuner exposes;
  // both factories run back to back in the pass's first strand step, and
  // each pass touches only its own slot.
  auto ladders = std::make_shared<std::vector<const tuning::FidelityLadder*>>(
      spec.passes, nullptr);
  const std::size_t max_steps = spec.options.max_steps;
  spec.make_tuner = [inner = std::move(spec.make_tuner), campaign, max_steps,
                     traced, ladders, &out](std::size_t pass) {
    auto t = std::make_unique<TimedTuner>(
        inner(pass), campaign, static_cast<std::uint32_t>(pass), max_steps,
        traced, out);
    (*ladders)[pass] = t->ladder();
    return std::unique_ptr<tuning::Tuner>(std::move(t));
  };
  if (!traced) return;
  spec.make_objective = [inner = std::move(spec.make_objective), campaign,
                         max_steps, ladders, &out](std::size_t pass)
      -> std::unique_ptr<tuning::Objective> {
    return std::make_unique<TimedObjective>(
        inner(pass), campaign, static_cast<std::uint32_t>(pass),
        (*ladders)[pass], false, 0, max_steps, out);
  };
}

}  // namespace e2e
