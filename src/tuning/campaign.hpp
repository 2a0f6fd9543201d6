// One tuning campaign as plain data: exactly what a `stormtune tune` flag
// or a `tune-many` campaign entry sets. Next to it: the topology
// catalogue, the checks that refuse a bad description before anything is
// scheduled, and make_campaign, which builds the CampaignSpec the drivers
// run. Pass seeds follow tuning::pass_seeds (experiment.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/json.hpp"
#include "stormsim/cluster.hpp"
#include "stormsim/config.hpp"
#include "stormsim/topology.hpp"
#include "tuning/config_space.hpp"
#include "tuning/experiment.hpp"
#include "tuning/fidelity.hpp"

namespace stormtune::tuning {

struct CampaignDesc {
  std::string topology;     ///< a name from topologies()
  bool tiim = false;        ///< synthetic topologies: time imbalance
  double contention = 0.0;  ///< synthetic topologies: contentious fraction

  // The deployment every un-tuned field comes from.
  int hint = 4;
  int batch_size = 0;  ///< 0 = the topology's default
  int batch_parallelism = 5;
  int worker_threads = 8;
  int receiver_threads = 1;
  int ackers = 0;
  int max_tasks = 0;

  double duration_s = 20.0;  ///< simulated measurement window
  bool adaptive_window = false;
  double adaptive_epsilon = 0.0;  ///< 0 = the SimParams default

  std::string strategy = "bo";  ///< a strategy-table row
  /// Comma-separated blocks, each at most once: h (hints and max-tasks),
  /// batch (batch size and parallelism), cc (worker and receiver threads,
  /// ackers).
  std::string what = "h";
  std::size_t steps = 30;
  std::size_t reps = 10;
  std::size_t passes = 2;
  std::uint64_t seed = 1;
  std::string fidelity = "full";  ///< full | ladder (bo and ibo only)
  std::size_t gp_window = 0;      ///< BO observation window; 0 = unbounded
  LadderOptions ladder;

  /// `defaults` overridden by a campaign-file entry: a required "topology"
  /// and any of strategy, what, steps, reps, passes, seed, duration, tiim,
  /// contention, adaptive_window, adaptive_epsilon (also turns the window
  /// on), fidelity, gp_window and ladder_{rung1_epsilon,challenge_fraction,
  /// promote_top_k}. A count or seed that is not a non-negative integer
  /// throws Error naming the field; check() judges the values.
  static CampaignDesc from_json(const Json& entry,
                                const CampaignDesc& defaults);

  /// Why make_campaign would refuse this campaign ("field 'what': ..."),
  /// or an empty string.
  [[nodiscard]] std::string check() const;
};

/// What a campaign on one topology runs against.
struct Workload {
  sim::Topology topology;
  sim::ClusterSpec cluster;
  sim::SimParams params;          ///< with the desc's window rule
  sim::TopologyConfig defaults;  ///< the desc's deployment fields
};

struct TopologyInfo {
  const char* name;
  const char* description;
};

/// The topology catalogue, in `stormtune list` order.
std::span<const TopologyInfo> topologies();

/// The workload `desc` names; an unknown topology throws Error.
Workload load_workload(const CampaignDesc& desc);

/// The blocks `desc.what` selects, informed when the strategy is; a `what`
/// that check() refuses throws Error.
SpaceOptions space_options(const CampaignDesc& desc);

/// Pass p's objective measures with seeds(seed, p).objective.
ObjectiveFactory sim_objective_factory(const sim::Topology& topology,
                                       const sim::ClusterSpec& cluster,
                                       const sim::SimParams& params,
                                       std::uint64_t seed,
                                       SeedRule seeds = pass_seeds);

/// The campaign `desc` describes, labelled `name`, pass p seeded by
/// seeds(desc.seed, p). A desc check() refuses throws Error naming the
/// campaign and the field. Under the ladder, pass p's tuner and objective
/// share one FidelityLadder.
CampaignSpec make_campaign(const CampaignDesc& desc, std::string name,
                           SeedRule seeds = pass_seeds);

}  // namespace stormtune::tuning
