// The benchmark's workloads: sets of tuning campaigns built the way
// `stormtune tune-many` builds a campaigns-file entry.
//
// Every workload draws its campaigns from one union of campaign templates.
// Round r of a run instantiates each member template i with seed
// S + i + 65536·r, so a campaign is the same computation in whichever
// workload runs it, and the golden digests pin that (see checks.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "stormsim/cluster.hpp"
#include "stormsim/config.hpp"
#include "stormsim/topology.hpp"
#include "tuning/campaign_scheduler.hpp"
#include "tuning/config_space.hpp"

namespace e2e {

using namespace stormtune;

/// One campaign shape of the union, in tune-many terms.
struct CampaignTemplate {
  std::string name;      ///< e.g. "fig4-medium/0"; shared across workloads
  std::string topology;  ///< medium | large | sundog
  std::string what;      ///< tuned blocks, as tune-many's --what
  bool ladder = false;   ///< fidelity=ladder instead of full
  std::size_t steps = 0;
  std::size_t reps = 0;
  std::size_t passes = 0;
  double window_s = 0.0;  ///< simulated measurement window
};

struct Workload {
  std::string name;
  std::vector<std::size_t> members;  ///< indices into campaign_union()
  std::size_t workers = 1;           ///< run_campaigns thread count
  bool sink = false;                ///< route results through a ResultSink
  /// Wall time of one round, calibration included, on the reference host
  /// in one of its slower stretches; --seconds=T runs round(T /
  /// nominal_round_s) rounds, so the work is fixed per (seed, T).
  double nominal_round_s = 1.0;
};

const std::vector<CampaignTemplate>& campaign_union();
const std::vector<Workload>& workloads();
/// nullptr when no workload has that name.
const Workload* find_workload(std::string_view name);

/// Everything one campaign of a round needs; shared by its factories and
/// read by the post-run checks.
struct CampaignContext {
  CampaignTemplate tmpl;  ///< scale applied
  std::string key;        ///< "<template>@r<round>", the golden-file key
  std::uint64_t seed = 0;
  sim::Topology topology;
  sim::ClusterSpec cluster;
  sim::SimParams params;
  sim::TopologyConfig defaults;
  tuning::SpaceOptions space;
};

/// A round's campaigns, ready for tuning::run_campaigns.
struct Round {
  std::vector<std::shared_ptr<const CampaignContext>> contexts;
  std::vector<tuning::CampaignSpec> specs;
};

/// Build round `round` of `w` for base seed `seed`. `smoke` shrinks every
/// campaign to 2 steps, 1 repetition and 1 s windows.
Round build_round(const Workload& w, std::uint64_t seed, std::size_t round,
                  bool smoke);

/// Dimension of the optimizer's search space for a campaign (the surrogate's
/// input dimension d).
std::size_t search_dim(const CampaignContext& c);

}  // namespace e2e
