// Discrete-event simulator of a Storm/Trident deployment.
//
// This is the substitute for the paper's physical 80-machine cluster: it
// turns (topology, configuration) into a measured throughput, reproducing
// the mechanisms that make the configuration-performance landscape
// non-trivial:
//
//  * machines are processor-sharing servers — every runnable job on a
//    machine progresses at rate min(1, cores/active) x speed factor, so
//    over-parallelization causes genuine time-sharing slowdown;
//  * each task instance is serial (Storm executors are single-threaded),
//    so a node's batch work parallelizes only across its tasks;
//  * each worker has a bounded executor pool (`worker_threads`) and a
//    bounded receiver pool (`receiver_threads`) that gate job admission;
//  * contentious bolts pay the paper's penalty: per-tuple cost multiplied
//    by the bolt's total task count (Section IV-B2);
//  * Trident mini-batches: at most `batch_parallelism` batches in flight;
//    a bolt starts a batch only after all upstream nodes finished it; a
//    batch commits through a serial coordinator on the master machine;
//  * ackers do per-tuple bookkeeping that must finish before commit;
//  * tuples crossing machines incur transfer latency and are accounted
//    against sender NICs (Figure 3's network-load metric);
//  * in-flight batch data causes memory pressure that slows machines once
//    a soft budget is exceeded (why unbounded batch sizes stop paying off);
//  * reported throughput carries multiplicative measurement noise and
//    optional background "student" load (Section IV-C1).
#pragma once

#include <cstdint>
#include <memory>

#include "stormsim/cluster.hpp"
#include "stormsim/config.hpp"
#include "stormsim/metrics.hpp"
#include "stormsim/topology.hpp"

namespace stormtune::sim {

/// The engine's reusable per-run state: job/batch slot pools and free
/// lists, gate FIFOs, event heaps, deployment and batch-profile buffers,
/// metrics accumulators. Defined in engine.cpp; owned by Simulator.
struct SimWorkspace;

class Simulator;

#ifdef STORMTUNE_CHECKED
namespace testing {
/// Checked-build corruption hooks for the invariant tests: each one damages
/// the persistent workspace state the way a reuse bug would, so the next
/// run() must fail its reuse-precondition verification with InvariantError.
/// These functions only exist when built with STORMTUNE_CHECKED=ON.
void corrupt_job_free_list(Simulator& sim);
void corrupt_departure_index(Simulator& sim);
}  // namespace testing
#endif

/// A simulator with a persistent workspace. Campaign-scale evaluation runs
/// thousands of simulations; constructing the buffers afresh each time is
/// pure overhead, so repeated run() calls reuse every buffer — after the
/// first run of a given workload, a run performs zero heap allocations
/// (pinned by tests/test_engine_golden.cpp).
///
/// Reuse is bitwise-transparent: run() through a used workspace returns
/// exactly the bits a freshly constructed simulator would, for any history
/// of prior runs (slot pools hand out indices in creation order from a
/// high-water mark, the RNG is fully reseeded, and every field of every
/// reused buffer is rewritten before use).
///
/// NOT thread-safe: one Simulator per thread (the campaign driver keeps one
/// per pool worker slot). Move-only.
class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(Simulator&&) noexcept;
  Simulator& operator=(Simulator&&) noexcept;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Run one evaluation in this simulator's workspace. The returned
  /// reference stays valid until the next run() call on this object.
  const SimResult& run(const Topology& topology, const TopologyConfig& config,
                       const ClusterSpec& cluster, const SimParams& params,
                       std::uint64_t seed);

 private:
#ifdef STORMTUNE_CHECKED
  friend void testing::corrupt_job_free_list(Simulator& sim);
  friend void testing::corrupt_departure_index(Simulator& sim);
#endif
  std::unique_ptr<SimWorkspace> ws_;
};

/// Simulate one evaluation run and return its measurements. Thin wrapper
/// over a scratch Simulator workspace — prefer a long-lived Simulator when
/// evaluating repeatedly.
///
/// `seed` drives all stochastic elements (noise, background load, random
/// placement); the same seed yields a bit-identical result.
SimResult simulate(const Topology& topology, const TopologyConfig& config,
                   const ClusterSpec& cluster, const SimParams& params,
                   std::uint64_t seed);

/// True when a run's seed reaches nothing but its measurement noise: no
/// background-load draws (`background_load_prob == 0`) and a placement
/// policy that ignores its seed (not kRandom). The event trajectory, and
/// every SimResult field except throughput_tuples_per_s, is then a pure
/// function of (topology, config, cluster, params).
bool seed_only_draws_noise(const SimParams& params);

/// Turn `result`, a run of some seed under `params`, into the run of `seed`
/// by redrawing its measurement noise: the same RNG draws, in the same
/// order, that run() makes. Requires seed_only_draws_noise(params); the
/// result is then bit-identical to a fresh run at `seed`.
void redraw_noise(SimResult& result, const SimParams& params,
                  std::uint64_t seed);

}  // namespace stormtune::sim
