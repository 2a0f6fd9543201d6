// Timing probes at the Tuner/Objective boundary, from outside the library.
//
// instrument() wraps a campaign's factories so every pass's tuner (and, when
// traced, its objective and repetition clones) is a decorator that times
// the calls it forwards. Each decorator records into buffers it owns and
// merges them into the shared Collector under its lock only when it is
// destroyed, so the timed path itself takes no lock.
//
//  * Untraced: three clock reads per step (next() entry and return, report()
//    return), into a step array reserved for the pass's step budget.
//  * Traced: spans pass › step › {suggest, evaluate, observe} and rep, each
//    tagged with campaign, pass, step and fidelity rung, plus the ladder
//    counters of LadderTuner::ladder(), which only traced passes report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "tuning/campaign_scheduler.hpp"

namespace e2e {

using namespace stormtune;

/// Nanoseconds on the steady clock since the first call in this process.
std::int64_t now_ns();

enum class SpanKind : std::uint8_t {
  kPass,      ///< tuner decorator lifetime: the whole pass incl. repetitions
  kStep,      ///< next() entry to report() return
  kSuggest,   ///< Tuner::next
  kEvaluate,  ///< Objective::evaluate on the pass objective
  kObserve,   ///< Tuner::report
  kRep,       ///< Objective::evaluate on a clone_stream/rebind_stream copy
  kRebind,    ///< Objective::clone_stream / rebind_stream
};

const char* to_string(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kStep;
  std::uint8_t rung = 0;      ///< 1 or 2 for ladder evaluations, else 0
  bool crashed = false;       ///< evaluations: the deployment crashed
  std::uint32_t campaign = 0; ///< run-wide campaign id
  std::uint32_t pass = 0;
  std::uint32_t index = 0;    ///< step (1-based) or repetition stream
  std::uint32_t worker = 0;   ///< recording thread, numbered on first use
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  double simulated_ms = 0.0;  ///< evaluations: simulated time covered
};

/// One tuning step as the untraced run sees it.
struct StepStamp {
  std::int64_t next_in = 0;
  std::int64_t next_out = 0;
  std::int64_t report_out = 0;
};

struct LadderCounts {
  std::uint64_t screened = 0;
  std::uint64_t rung1_evals = 0;
  std::uint64_t rung2_evals = 0;
};

/// Everything the decorators recorded.
struct Collected {
  std::vector<StepStamp> steps;
  std::vector<Span> spans;
  LadderCounts ladder;
  std::size_t lost = 0;  ///< decorators that could not merge their buffers
};

/// Destination of every decorator's buffers.
class Collector {
 public:
  void merge(const std::vector<StepStamp>& steps,
             const std::vector<Span>& spans, const LadderCounts& ladder);
  /// A decorator could not merge (allocation failure in its destructor).
  void note_lost();
  /// Hand out the step stamps merged so far and keep the rest.
  std::vector<StepStamp> take_steps();
  /// Hand out everything merged so far and start empty.
  Collected drain();

 private:
  std::mutex mu_;
  Collected data_;
};

/// Wrap `spec`'s factories with timing decorators recording into `out`.
/// `campaign` is the run-wide id the spans carry.
void instrument(tuning::CampaignSpec& spec, std::uint32_t campaign,
                bool traced, Collector& out);

}  // namespace e2e
