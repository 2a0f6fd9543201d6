// Thread pools for deterministic parallel work.
//
// Two execution models live here:
//
//  * ThreadPool — static partitioning for data-parallel numerics (the BO
//    suggest loop). Work is `num_shards` independent shards; shard s runs
//    on worker s % workers, so there is no scheduling nondeterminism.
//  * StrandPool — dynamic scheduling for many independent *sequential*
//    jobs (the multi-campaign scheduler). Work is a set of resumable
//    strands multiplexed over per-worker steal deques; scheduling IS
//    nondeterministic, and determinism of results comes from a stronger
//    property of the work itself: each strand owns all the state it
//    touches, so WHAT a step computes never depends on which worker runs
//    it or when.
//
// ThreadPool design contract (see DESIGN.md "Performance architecture"):
//  * The shard count is chosen by the CALLER and must not depend on the
//    thread count; each shard writes only to its own output slot (and
//    draws only from its own Rng stream, via Rng::stream).
//  * Shards are partitioned statically across workers (shard % workers), so
//    there is no work-stealing and no scheduling nondeterminism to reason
//    about. Because every shard's computation is a pure function of the
//    shard index, results are bitwise-identical for 1, 2, or N threads.
//  * parallel_for blocks until every shard has run. The first exception
//    thrown by a shard is captured and rethrown on the calling thread after
//    all workers have quiesced.
//
// A pool of size 1 owns no threads at all and runs shards inline on the
// caller — the zero-overhead configuration for single-core hosts.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace stormtune {

class ThreadPool {
 public:
  /// `num_threads` counts the calling thread: a pool of size T spawns T-1
  /// workers and the caller executes its own share of shards.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size() + 1; }

  /// Run body(shard) for every shard in [0, num_shards), blocking until all
  /// complete. Not reentrant: body must not call parallel_for on this pool.
  void parallel_for(std::size_t num_shards,
                    const std::function<void(std::size_t)>& body);

  /// min(hardware_concurrency, 8), at least 1 — the default sizing used when
  /// callers pass "auto" (0) for a thread-count option.
  static std::size_t default_thread_count();

 private:
  void worker_loop(std::size_t worker_id);
  void run_partition(std::size_t worker_id);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;   // workers wait here for a new job
  std::condition_variable done_cv_;   // caller waits here for completion
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t num_shards_ = 0;
  std::uint64_t generation_ = 0;      // bumped per job, workers sync on it
  std::size_t workers_done_ = 0;
  std::exception_ptr first_error_;
  bool shutdown_ = false;
};

/// A resumable unit of sequential work, scheduled by StrandPool.
///
/// A strand is stepped repeatedly until step() returns false. Between
/// steps it sits in exactly one worker's deque; while it runs it is owned
/// by exactly one worker. A strand is therefore never executed
/// concurrently with itself, and its steps always observe the effects of
/// all previous steps — which is what lets a strand carry mutable
/// per-campaign state (tuner, objective, simulation workspace) without any
/// locking, and what makes its results independent of the schedule.
class Strand {
 public:
  virtual ~Strand() = default;

  /// Run the next slice of work. Return true if more work remains.
  virtual bool step() = 0;

  /// Steal preference of the NEXT step (phase-aware stealing): an idle
  /// worker scanning a victim's deque takes the first strand with a
  /// positive preference before falling back to the oldest entry.
  /// Home-worker pops ignore it. The multi-campaign scheduler returns 1
  /// for simulation-phase strands (branchy, cheap to migrate) and 0 for
  /// suggest-phase strands (dense linalg whose caches favor staying put).
  /// Purely a placement hint: it can never change what a step computes.
  virtual int steal_preference() const { return 0; }
};

/// Dynamic work-stealing companion to ThreadPool for many independent
/// sequential jobs of uneven, unpredictable length.
///
///  * Each worker owns a deque. run() seeds strand i into deque i % T in
///    submission order, then every worker loops: pop the NEWEST entry of
///    its own deque (LIFO — keeps one job's warm state on one core), or
///    steal from the OLDEST end of another worker's deque (FIFO — takes
///    the job its home worker is furthest from resuming), preferring
///    positive steal_preference() entries near the head.
///  * A worker that finds no work parks on a condition variable and is
///    woken when any strand is re-queued or when all strands finish.
///  * run() blocks until every strand has completed. The first exception
///    thrown by a step is captured, remaining work is abandoned (strands
///    are retired without further steps), and the exception is rethrown
///    on the caller after all workers have quiesced.
///
/// Determinism: the pool guarantees only mutual exclusion per strand and
/// completion of all strands. Results are bit-identical across thread
/// counts and schedules iff each strand's computation is a pure function
/// of its own state — the contract the campaign scheduler's strands
/// satisfy by owning their tuner, objective, and RNG streams outright.
///
/// Like ThreadPool, `num_threads` counts the caller: a pool of size T
/// spawns T-1 workers during run() and the caller participates as worker
/// 0. A pool of size 1 runs every strand inline.
class StrandPool {
 public:
  explicit StrandPool(std::size_t num_threads);

  StrandPool(const StrandPool&) = delete;
  StrandPool& operator=(const StrandPool&) = delete;

  std::size_t num_threads() const { return num_threads_; }

  /// Run all strands to completion (see class comment). Not reentrant.
  void run(const std::vector<Strand*>& strands);

  /// Number of successful steals during the last run() — scheduling
  /// telemetry only (tests assert the steal path is exercised; benches
  /// report it). Never feeds back into any computed result.
  std::uint64_t steal_count() const {
    return steal_count_.load(std::memory_order_seq_cst);
  }

 private:
  struct WorkerDeque {
    std::mutex mutex;
    std::deque<Strand*> strands;
  };

  Strand* pop_own(std::size_t worker_id);
  Strand* steal(std::size_t worker_id);
  void push(std::size_t worker_id, Strand* strand);
  void retire_one();
  void worker_loop(std::size_t worker_id);

  std::size_t num_threads_;
  std::vector<WorkerDeque> deques_;
  std::atomic<std::size_t> active_{0};  // strands not yet finished
  std::atomic<bool> abort_{false};      // set on first exception
  std::atomic<std::uint64_t> steal_count_{0};
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::uint64_t park_epoch_ = 0;  // bumped on every (re-)queue
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
};

}  // namespace stormtune
