// Ticket-ordered result output for multi-campaign runs.
//
// A finished campaign's scheduler worker hands its outcome to a
// ResultSink, which writes it right there on that worker, under one mutex,
// and flushes. The traffic does not justify a writer thread: a campaign
// produces one record of about 1–2 KB, formatting it costs ~50 µs against
// ~0.2 s of campaign CPU, and a 3-worker batch finishes ~15 campaigns/s
// (DESIGN.md §9.4).
//
// Ordering is the deterministic part: every record carries the campaign's
// submission *ticket* (its index in the submission order), and the sink
// emits records strictly in ticket order, parking out-of-order arrivals in
// a reorder buffer until the gap before them fills. The bytes written are
// therefore a pure function of the submitted records — independent of
// thread count and completion order. Nothing here reads a clock.
//
// Corruption detection (STORMTUNE_CHECKED builds): submit() throws
// InvariantError on a duplicate ticket or a ticket at/past expected_records
// when a record count was declared; close() REQUIREs that the reorder
// buffer drained (a leftover record means a ticket gap — some campaign
// never reported).
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "tuning/experiment.hpp"

namespace stormtune::tuning {

/// One finished campaign, as handed to the sink by a scheduler worker.
struct CampaignOutcome {
  std::size_t ticket = 0;    ///< index in campaign submission order
  std::string name;          ///< caller-chosen campaign label
  ExperimentResult result;   ///< the winning pass (scheduler semantics)
};

/// The record format: one JSON document per line,
/// {"ticket":N,"name":...,"result":{...}}.
class JsonlResultBackend {
 public:
  explicit JsonlResultBackend(std::ostream& out) : out_(out) {}
  void write(const CampaignOutcome& outcome);
  void flush();

 private:
  std::ostream& out_;
};

struct ResultSinkOptions {
  /// Total records that will be submitted, when known up front (the
  /// scheduler knows its campaign count). 0 = open-ended. close() requires
  /// exactly this many; checked builds also reject tickets at or beyond it.
  std::size_t expected_records = 0;
};

/// Ticket-order reorder buffer in front of a JsonlResultBackend. Any number
/// of threads may submit concurrently; each write happens on the thread
/// whose submission completed the contiguous ticket prefix.
class ResultSink {
 public:
  ResultSink(std::unique_ptr<JsonlResultBackend> backend,
             ResultSinkOptions options = {});
  /// Closes implicitly, swallowing errors — call close() yourself to see
  /// them (missing-ticket REQUIRE, declared-count REQUIRE).
  ~ResultSink();

  ResultSink(const ResultSink&) = delete;
  ResultSink& operator=(const ResultSink&) = delete;

  /// Park one record, then write and flush every record of the contiguous
  /// ticket prefix that is now complete. A formatting error (e.g. a
  /// non-finite throughput) throws here, to the submitting thread.
  void submit(CampaignOutcome outcome);

  /// Check that every submitted record was written and, when a count was
  /// declared, that all of them arrived. Throws on a ticket gap.
  /// Idempotent; submit() after close() throws.
  void close();

  /// Records written so far.
  std::size_t written() const;

 private:
  void write_ready_records();  // emits the contiguous ticket prefix

  std::unique_ptr<JsonlResultBackend> backend_;
  ResultSinkOptions options_;

  mutable std::mutex mutex_;  // guards everything below
  std::map<std::size_t, CampaignOutcome> pending_;  // reorder by ticket
  std::size_t next_ticket_ = 0;  // = records written
  std::vector<bool> seen_tickets_;  // checked builds: duplicate detection
  bool closed_ = false;
};

}  // namespace stormtune::tuning
