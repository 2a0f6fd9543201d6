// The blackbox objective: configuration -> measured throughput.
//
// The paper treats the deployed application as a blackbox function sampled
// by running it on the cluster for two minutes (Section III-C). Here an
// evaluation is one simulator run; each call uses a fresh noise seed, so
// repeated evaluations of the same configuration scatter the way repeated
// cluster runs did.
#pragma once

#include <cstdint>
#include <memory>

#include "stormsim/cluster.hpp"
#include "stormsim/config.hpp"
#include "stormsim/engine.hpp"
#include "stormsim/topology.hpp"

namespace stormtune::tuning {

class Objective {
 public:
  virtual ~Objective() = default;
  /// One measurement run; returns throughput in tuples/s (>= 0).
  virtual double evaluate(const sim::TopologyConfig& config) = 0;

  /// An independent copy of this objective whose measurement noise comes
  /// from a seed stream derived from `stream`. The pass state machine
  /// behind every experiment driver runs best-config repetition r on
  /// clone_stream(r), so the repetitions are independent of each other AND
  /// of evaluation order, and no result depends on the entry point or the
  /// thread count. Objectives that cannot provide isolated streams return
  /// nullptr (the default); their repetitions then continue this object's
  /// own measurement sequence.
  virtual std::unique_ptr<Objective> clone_stream(std::uint64_t stream) const {
    (void)stream;
    return nullptr;
  }

  /// Retarget a clone_stream() copy at a different stream, reusing its
  /// internal state (notably a SimObjective's simulation workspace) instead
  /// of constructing a fresh clone. After rebind_stream(s) the object
  /// behaves exactly like a fresh clone_stream(s) result. Returns false if
  /// unsupported or if this objective is not a clone (the driver then makes
  /// a fresh clone).
  virtual bool rebind_stream(std::uint64_t stream) {
    (void)stream;
    return false;
  }
};

/// Objective backed by the discrete-event simulator.
class SimObjective final : public Objective {
 public:
  SimObjective(sim::Topology topology, sim::ClusterSpec cluster,
               sim::SimParams params, std::uint64_t seed);

  /// One run at this evaluation's seed. When the seed draws only the noise
  /// and `config` is a recorded run's — the best run's, or the run this
  /// clone simulated last — the run would retrace that run's events
  /// exactly, so evaluate() copies its result and redraws the noise
  /// (sim::redraw_noise): bit-identical, without the simulation. Checked
  /// builds simulate anyway and require every field to match.
  double evaluate(const sim::TopologyConfig& config) override;
  std::unique_ptr<Objective> clone_stream(std::uint64_t stream) const override;
  bool rebind_stream(std::uint64_t stream) override;

  /// Full result of the most recent evaluation (network stats etc.).
  const sim::SimResult& last_result() const { return last_; }
  const sim::Topology& topology() const { return topology_; }
  std::size_t num_evaluations() const { return evaluations_; }
  /// Evaluations since construction that replayed a recorded run instead
  /// of simulating (see evaluate()).
  std::size_t num_replays() const { return replays_; }

 private:
  /// A configuration and the full result of one run of it. Immutable, so
  /// clones share records across threads.
  struct RunRecord {
    sim::TopologyConfig config;
    sim::SimResult result;
  };

  sim::Topology topology_;
  sim::ClusterSpec cluster_;
  sim::SimParams params_;
  std::uint64_t seed_;
  /// Parent seed this clone's seed was derived from; only meaningful when
  /// cloned_ (rebind_stream re-derives seed_ from it for a new stream).
  std::uint64_t stream_base_ = 0;
  bool cloned_ = false;
  std::size_t evaluations_ = 0;
  std::size_t replays_ = 0;
  /// Persistent simulation workspace: repeated evaluations reuse all engine
  /// buffers (see sim::Simulator) instead of reconstructing them per run.
  sim::Simulator simulator_;
  sim::SimResult last_;
  /// The configuration with the highest value this objective has returned
  /// (strict >, so the first of equal values stays) and that run. Shared
  /// with clone_stream() copies, kept across rebind_stream(). Stays empty
  /// unless sim::seed_only_draws_noise(params_).
  std::shared_ptr<const RunRecord> best_;
  /// The run this clone simulated last. A repetition whose run falls short
  /// of best_ is repeated on the same clone's next stream, so it is kept
  /// across rebind_stream() but not handed to clones. Stays empty in a
  /// source objective, whose evaluations rarely repeat a configuration,
  /// and under the same condition as best_.
  std::shared_ptr<const RunRecord> recent_;
};

}  // namespace stormtune::tuning
