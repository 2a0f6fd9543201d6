// Multi-tenant campaign scheduler: N independent tuning campaigns
// multiplexed over one work-stealing StrandPool.
//
// This file also holds the one implementation of the paper's protocol: a
// pass state machine (propose, evaluate and report; zero-streak stop; one
// best-config repetition per step; the best-of-passes gather) that
// run_experiment steps inline and run_campaign / run_campaigns step as
// one strand per (campaign, pass) pair. Strand steps alternate between two
// phase types with opposite hardware appetites:
//
//   * suggest  — the BO proposal (dense linalg, wide-ISA bound; profits
//                from staying on one core's warm caches),
//   * simulate — one objective evaluation or best-config repetition
//                (branchy discrete-event simulation, cache-resident via
//                the campaign's own SimWorkspace; cheap to migrate).
//
// Each strand advertises its NEXT phase through Strand::steal_preference,
// so an idle worker raids a busy worker's backlog simulation work first
// and leaves suggest steps on their home core. A worker blocked on one
// campaign's long suggest therefore never idles while another campaign
// has evaluations queued.
//
// Determinism is the headline guarantee, and it comes from ownership, not
// from the schedule: every strand owns its tuner, its objective (and thus
// its RNG streams and simulation workspace), and its partial
// ExperimentResult, and repetition r always evaluates on
// Objective::clone_stream(r). Stealing changes only WHERE and WHEN a step
// runs, never what it computes, so each campaign's results are
// bit-identical to a solo run_campaign() of the same spec — for any thread
// count, any submission order of the other campaigns, and any
// interleaving, with no excluded field: the library reads no clock.
// The worker that finishes a campaign submits it to an optional ResultSink,
// which writes it on that worker in submission-ticket order, so output
// files are byte-identical regardless of completion order.
//
// See DESIGN.md §9 "Multi-tenant campaign scheduling".
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tuning/experiment.hpp"
#include "tuning/result_sink.hpp"

namespace stormtune::tuning {

struct CampaignSchedulerOptions {
  /// Worker threads, caller included. 0 = default_thread_count.
  std::size_t num_threads = 1;
};

struct MultiCampaignResult {
  /// Winning pass per campaign, in submission order — element i is
  /// bit-identical to run_campaign() of specs[i].
  std::vector<ExperimentResult> results;
  /// Successful steals during the run (scheduling telemetry only).
  std::uint64_t steal_count = 0;
};

/// Run every campaign to completion over a work-stealing pool. When `sink`
/// is non-null, each campaign's winning pass is also submitted to it with
/// ticket = submission index (the sink is NOT closed — the caller owns its
/// lifecycle). Pass p's tuner and objective are built back to back,
/// make_tuner first, in the pass's first strand step.
MultiCampaignResult run_campaigns(const std::vector<CampaignSpec>& specs,
                                  const CampaignSchedulerOptions& options,
                                  ResultSink* sink = nullptr);

}  // namespace stormtune::tuning
