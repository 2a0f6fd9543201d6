// Asynchronous buffered result pipeline for multi-campaign runs.
//
// The campaign scheduler's workers must never block on I/O: a finished
// campaign's result is handed to a ResultSink, which queues it on a
// bounded MPSC queue and returns. A dedicated writer thread drains the
// queue in batches and hands records to a pluggable backend (JSONL or
// CSV). Modeled on the buffered writer-thread output stage common in
// large-scale grid simulators.
//
// Ordering is the deterministic part: every record carries the campaign's
// submission *ticket* (its index in the submission order), and the writer
// emits records strictly in ticket order, parking out-of-order arrivals in
// a reorder buffer. The bytes a backend sees are therefore a pure function
// of the submitted records — independent of thread count, completion
// order, and queue timing. No backend reads a clock.
//
// Corruption detection (STORMTUNE_CHECKED builds): submit() throws
// InvariantError on a duplicate ticket or a ticket at/past expected_records
// when a record count was declared; close() REQUIREs that the reorder
// buffer drained (a leftover record means a ticket gap — some campaign
// never reported).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "tuning/experiment.hpp"

namespace stormtune::tuning {

/// One finished campaign, as handed to the sink by a scheduler worker.
struct CampaignOutcome {
  std::size_t ticket = 0;    ///< index in campaign submission order
  std::string name;          ///< caller-chosen campaign label
  ExperimentResult result;   ///< the winning pass (scheduler semantics)
};

/// Formats records for one output stream. Backends run exclusively on the
/// sink's writer thread, so they need no locking; write() sees records in
/// strict ticket order.
class ResultSinkBackend {
 public:
  virtual ~ResultSinkBackend() = default;
  virtual void write(const CampaignOutcome& outcome) = 0;
  /// Called after each drained batch and once at close; flush buffers here.
  virtual void end_batch() {}
};

/// One JSON document per line: {"ticket":N,"name":...,"result":{...}}.
class JsonlResultBackend : public ResultSinkBackend {
 public:
  explicit JsonlResultBackend(std::ostream& out) : out_(out) {}
  void write(const CampaignOutcome& outcome) override;
  void end_batch() override;

 private:
  std::ostream& out_;
};

/// Header + one row per campaign:
/// ticket,name,strategy,steps,best_step,best_throughput,rep_mean,rep_min,rep_max
class CsvResultBackend : public ResultSinkBackend {
 public:
  explicit CsvResultBackend(std::ostream& out);
  void write(const CampaignOutcome& outcome) override;
  void end_batch() override;

 private:
  std::ostream& out_;
};

struct ResultSinkOptions {
  /// Bounded queue capacity; submit() blocks (backpressure) when full.
  std::size_t queue_capacity = 256;
  /// Max records the writer drains per wakeup before an end_batch().
  std::size_t batch_max = 64;
  /// Total records that will be submitted, when known up front (the
  /// scheduler knows its campaign count). 0 = open-ended. Checked builds
  /// reject tickets at or beyond a declared count.
  std::size_t expected_records = 0;
};

/// Bounded MPSC queue + writer thread + ticket-order reorder buffer.
/// Thread-safe producers; single consumer owned by the sink.
class ResultSink {
 public:
  ResultSink(std::unique_ptr<ResultSinkBackend> backend,
             ResultSinkOptions options = {});
  /// Closes implicitly, swallowing errors — call close() yourself to see
  /// them (missing-ticket REQUIRE, backend stream failures).
  ~ResultSink();

  ResultSink(const ResultSink&) = delete;
  ResultSink& operator=(const ResultSink&) = delete;

  /// Queue one record; blocks while the queue is at capacity. Safe to call
  /// from any number of scheduler workers concurrently.
  void submit(CampaignOutcome outcome);

  /// Drain everything, emit a final end_batch, and join the writer thread.
  /// Throws if submitted tickets have gaps (records in the reorder buffer
  /// that can never be written). Idempotent.
  void close();

  /// Records actually handed to the backend so far (test/telemetry hook).
  std::size_t written() const;

 private:
  void writer_loop();
  void write_ready_records();  // emits the contiguous ticket prefix

  std::unique_ptr<ResultSinkBackend> backend_;
  ResultSinkOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable space_cv_;  // producers wait here when full
  std::condition_variable data_cv_;   // writer waits here for records
  std::deque<CampaignOutcome> queue_;
  bool closing_ = false;
  std::size_t written_count_ = 0;
  std::vector<bool> seen_tickets_;  // checked builds: duplicate detection

  // Writer-thread-only state (no locking needed).
  std::map<std::size_t, CampaignOutcome> pending_;  // reorder by ticket
  std::size_t next_ticket_ = 0;

  bool closed_ = false;  // caller-thread-only
  std::thread writer_;
};

}  // namespace stormtune::tuning
