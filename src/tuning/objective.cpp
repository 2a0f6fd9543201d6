#include "tuning/objective.hpp"

#include "common/check.hpp"

#ifdef STORMTUNE_CHECKED
#include <bit>
#endif

namespace stormtune::tuning {
namespace {

/// Stream seed derivation shared by clone_stream and rebind_stream: a
/// different odd multiplier than evaluate()'s per-evaluation increment, so
/// stream seed sequences and evaluation seed sequences never collide.
std::uint64_t derive_stream_seed(std::uint64_t base, std::uint64_t stream) {
  return base ^ (0x632be59bd9b4e019ULL * (stream + 0x9e3779b97f4a7c15ULL));
}

#ifdef STORMTUNE_CHECKED
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Every SimResult field, doubles compared bit for bit.
bool same_bits(const sim::SimResult& a, const sim::SimResult& b) {
  if (!same_bits(a.throughput_tuples_per_s, b.throughput_tuples_per_s) ||
      !same_bits(a.noiseless_throughput, b.noiseless_throughput) ||
      a.batches_committed != b.batches_committed ||
      a.batches_emitted != b.batches_emitted ||
      !same_bits(a.tuples_committed, b.tuples_committed) ||
      !same_bits(a.mean_batch_latency_ms, b.mean_batch_latency_ms) ||
      !same_bits(a.network_bytes_per_s_per_worker,
                 b.network_bytes_per_s_per_worker) ||
      !same_bits(a.peak_nic_utilization, b.peak_nic_utilization) ||
      !same_bits(a.cpu_utilization, b.cpu_utilization) ||
      a.total_tasks != b.total_tasks || a.crashed != b.crashed ||
      !same_bits(a.simulated_ms, b.simulated_ms) ||
      a.early_stopped != b.early_stopped ||
      a.node_stats.size() != b.node_stats.size()) {
    return false;
  }
  for (std::size_t v = 0; v < a.node_stats.size(); ++v) {
    const sim::NodeStats& x = a.node_stats[v];
    const sim::NodeStats& y = b.node_stats[v];
    if (x.name != y.name || x.tasks != y.tasks ||
        x.batches_processed != y.batches_processed ||
        !same_bits(x.mean_stage_ms, y.mean_stage_ms) ||
        !same_bits(x.max_stage_ms, y.max_stage_ms) ||
        !same_bits(x.busy_core_ms, y.busy_core_ms)) {
      return false;
    }
  }
  return true;
}
#endif

}  // namespace

SimObjective::SimObjective(sim::Topology topology, sim::ClusterSpec cluster,
                           sim::SimParams params, std::uint64_t seed)
    : topology_(std::move(topology)), cluster_(cluster), params_(params),
      seed_(seed) {
  topology_.validate();
}

double SimObjective::evaluate(const sim::TopologyConfig& config) {
  // Derive a distinct seed per evaluation so measurement noise is fresh,
  // while the whole campaign stays reproducible from `seed_`.
  const std::uint64_t run_seed =
      seed_ + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(++evaluations_);
  const auto recorded = [&](const std::shared_ptr<const RunRecord>& r) {
    return r && r->config == config;
  };
  const RunRecord* replay = recorded(best_)     ? best_.get()
                            : recorded(recent_) ? recent_.get()
                                                : nullptr;
  if (replay != nullptr) {
    last_ = replay->result;
    sim::redraw_noise(last_, params_, run_seed);
    ++replays_;
    STORMTUNE_INVARIANT(
        same_bits(last_, simulator_.run(topology_, config, cluster_, params_,
                                        run_seed)),
        "SimObjective: a replayed run differs from the simulation");
  } else {
    last_ = simulator_.run(topology_, config, cluster_, params_, run_seed);
    if (cloned_ && sim::seed_only_draws_noise(params_)) {
      recent_ = std::make_shared<const RunRecord>(RunRecord{config, last_});
    }
  }
  if (sim::seed_only_draws_noise(params_) &&
      (!best_ || last_.throughput_tuples_per_s >
                     best_->result.throughput_tuples_per_s)) {
    // A clone's simulated run is the record just made; a replay differs
    // from its record by the redrawn noise.
    best_ = replay == nullptr && cloned_
                ? recent_
                : std::make_shared<const RunRecord>(RunRecord{config, last_});
  }
  return last_.throughput_tuples_per_s;
}

std::unique_ptr<Objective> SimObjective::clone_stream(
    std::uint64_t stream) const {
  auto clone = std::make_unique<SimObjective>(
      topology_, cluster_, params_, derive_stream_seed(seed_, stream));
  clone->stream_base_ = seed_;
  clone->cloned_ = true;
  clone->best_ = best_;
  return clone;
}

bool SimObjective::rebind_stream(std::uint64_t stream) {
  if (!cloned_) return false;
  seed_ = derive_stream_seed(stream_base_, stream);
  evaluations_ = 0;
  return true;
}

}  // namespace stormtune::tuning
