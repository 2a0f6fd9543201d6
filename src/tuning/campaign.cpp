#include "tuning/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <tuple>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "topology/literature.hpp"
#include "topology/sundog.hpp"
#include "topology/synthetic.hpp"
#include "tuning/strategy.hpp"

namespace stormtune::tuning {

namespace {

constexpr TopologyInfo kTopologies[] = {
    {"small", "10-node synthetic benchmark (Table II)"},
    {"medium", "50-node synthetic benchmark (Table II)"},
    {"large", "100-node synthetic benchmark (Table II)"},
    {"sundog", "entity-ranking application (Fig. 2)"},
    {"linear_road", "Linear Road benchmark, 60 operators"},
    {"dissemination", "Aurora data-dissemination problem, 40 operators"},
    {"linear_road_compact", "2013 Linear Road reformulation, 7 operators"},
    {"debs13", "DEBS'13 Grand Challenge query, 3 operators"},
};

/// Sets `out`'s blocks from `what`, comma-separated tokens from {h, batch,
/// cc}; returns why it cannot, or an empty string.
std::string parse_what(const std::string& what, SpaceOptions& out) {
  out.tune_hints = out.tune_batch = out.tune_concurrency = false;
  for (std::size_t start = 0;;) {
    const std::size_t comma = what.find(',', start);
    const std::string token = what.substr(start, comma - start);
    bool* block = token == "h"       ? &out.tune_hints
                  : token == "batch" ? &out.tune_batch
                  : token == "cc"    ? &out.tune_concurrency
                                     : nullptr;
    if (block == nullptr) {
      return "unknown block '" + token + "' in '" + what +
             "' (expected comma-separated h, batch, cc)";
    }
    if (*block) return "repeats '" + token + "'";
    *block = true;
    if (comma == std::string::npos) return {};
    start = comma + 1;
  }
}

}  // namespace

CampaignDesc CampaignDesc::from_json(const Json& entry,
                                     const CampaignDesc& defaults) {
  CampaignDesc d = defaults;
  d.topology = entry.at("topology").as_string();
  // A count or seed must be a non-negative integer below 2^64.
  const auto read = [&entry](const char* field, auto& out) {
    if (!entry.contains(field)) return;
    using T = std::remove_reference_t<decltype(out)>;
    const Json& v = entry.at(field);
    if constexpr (std::is_same_v<T, std::string>) {
      out = v.as_string();
    } else if constexpr (std::is_same_v<T, bool>) {
      out = v.as_bool();
    } else if constexpr (std::is_same_v<T, double>) {
      out = v.as_number();
    } else {
      const double n = v.is_number() ? v.as_number() : -1.0;
      STORMTUNE_REQUIRE(n >= 0.0 && n < 0x1p64 && n == std::floor(n),
                        std::string("campaign field '") + field +
                            "' must be a non-negative integer");
      out = static_cast<T>(n);
    }
  };
  read("strategy", d.strategy);
  read("what", d.what);
  read("steps", d.steps);
  read("reps", d.reps);
  read("passes", d.passes);
  read("seed", d.seed);
  read("duration", d.duration_s);
  read("tiim", d.tiim);
  read("contention", d.contention);
  read("adaptive_window", d.adaptive_window);
  if (entry.contains("adaptive_epsilon")) d.adaptive_window = true;
  read("adaptive_epsilon", d.adaptive_epsilon);
  read("fidelity", d.fidelity);
  read("gp_window", d.gp_window);
  read("ladder_rung1_epsilon", d.ladder.rung1_epsilon);
  read("ladder_challenge_fraction", d.ladder.challenge_fraction);
  read("ladder_promote_top_k", d.ladder.promote_top_k);
  return d;
}

std::string CampaignDesc::check() const {
  const auto named = [](const char* field, const std::string& why) {
    return std::string("field '") + field + "': " + why;
  };
  if (std::ranges::none_of(kTopologies, [this](const TopologyInfo& t) {
        return topology == t.name;
      })) {
    return named("topology", "unknown topology '" + topology + "'");
  }
  const Strategy* row = find_strategy(strategy);
  if (row == nullptr) {
    return named("strategy", "unknown strategy '" + strategy + "' (expected " +
                                 strategy_names() + ")");
  }
  if (fidelity == "ladder" && !row->bayesian) {
    return named("strategy", "fidelity ladder requires strategy bo or ibo "
                             "(got '" + strategy + "')");
  }
  SpaceOptions space;
  if (const std::string why = parse_what(what, space); !why.empty()) {
    return named("what", why);
  }
  const std::tuple<bool, const char*, const char*> rules[] = {
      {contention >= 0.0 && contention <= 1.0, "contention",
       "must be in [0, 1]"},
      {hint >= 1, "hint", "must be >= 1"},
      {batch_size >= 0, "batch_size",
       "must be >= 0 (0 = the topology's default)"},
      {batch_parallelism >= 1, "batch_parallelism", "must be >= 1"},
      {worker_threads >= 1, "worker_threads", "must be >= 1"},
      {receiver_threads >= 1, "receiver_threads", "must be >= 1"},
      {ackers >= 0, "ackers", "must be >= 0"},
      {max_tasks >= 0, "max_tasks", "must be >= 0"},
      {std::isfinite(duration_s) && duration_s > 0.0, "duration",
       "must be a finite number of seconds > 0"},
      {std::isfinite(adaptive_epsilon) && adaptive_epsilon >= 0.0,
       "adaptive_epsilon", "must be a finite number >= 0 (0 = the default)"},
      {fidelity == "full" || fidelity == "ladder", "fidelity",
       "must be 'full' or 'ladder'"},
      {steps > 0, "steps", "must be > 0"},
      {passes > 0, "passes", "must be > 0"},
      {gp_window != 1, "gp_window", "must be 0 (unbounded) or >= 2"},
      {std::isfinite(ladder.rung1_epsilon) && ladder.rung1_epsilon > 0.0,
       "ladder_rung1_epsilon", "must be a finite number > 0"},
      {ladder.challenge_fraction > 0.0 && ladder.challenge_fraction <= 1.0,
       "ladder_challenge_fraction", "must be in (0, 1]"},
      {ladder.promote_top_k >= 1, "ladder_promote_top_k", "must be >= 1"},
  };
  for (const auto& [ok, field, why] : rules) {
    if (!ok) return named(field, why);
  }
  return {};
}

std::span<const TopologyInfo> topologies() { return kTopologies; }

Workload load_workload(const CampaignDesc& desc) {
  const std::string& name = desc.topology;
  Workload w;
  w.cluster = topo::paper_cluster();
  w.params = topo::synthetic_sim_params();
  int default_batch_size = 200;
  if (name == "small" || name == "medium" || name == "large") {
    topo::SyntheticSpec spec;
    spec.size = name == "small"    ? topo::TopologySize::kSmall
                : name == "medium" ? topo::TopologySize::kMedium
                                   : topo::TopologySize::kLarge;
    spec.time_imbalance = desc.tiim;
    spec.contention_fraction = desc.contention;
    w.topology = topo::build_synthetic(spec);
  } else if (name == "sundog") {
    w.topology = topo::build_sundog();
    w.cluster = topo::sundog_cluster();
    w.params = topo::sundog_sim_params();
    default_batch_size = 50000;
  } else {
    default_batch_size = 1000;
    if (name == "linear_road") {
      w.topology = topo::build_linear_road();
    } else if (name == "dissemination") {
      w.topology = topo::build_dissemination();
    } else if (name == "linear_road_compact") {
      w.topology = topo::build_linear_road_compact();
    } else if (name == "debs13") {
      w.topology = topo::build_debs13();
    } else {
      STORMTUNE_REQUIRE(false, "unknown topology '" + name + "'");
    }
  }
  w.params.duration_s = desc.duration_s;
  w.params.adaptive_window = desc.adaptive_window;
  if (desc.adaptive_epsilon > 0.0) {
    w.params.adaptive_epsilon = desc.adaptive_epsilon;
  }
  w.defaults = sim::uniform_hint_config(w.topology, desc.hint);
  w.defaults.batch_size =
      desc.batch_size > 0 ? desc.batch_size : default_batch_size;
  w.defaults.batch_parallelism = desc.batch_parallelism;
  w.defaults.worker_threads = desc.worker_threads;
  w.defaults.receiver_threads = desc.receiver_threads;
  w.defaults.num_ackers = desc.ackers;
  w.defaults.max_tasks = desc.max_tasks;
  return w;
}

SpaceOptions space_options(const CampaignDesc& desc) {
  SpaceOptions space;
  const std::string why = parse_what(desc.what, space);
  STORMTUNE_REQUIRE(why.empty(), "field 'what': " + why);
  const Strategy* row = find_strategy(desc.strategy);
  space.informed = row != nullptr && row->informed;
  return space;
}

ObjectiveFactory sim_objective_factory(const sim::Topology& topology,
                                       const sim::ClusterSpec& cluster,
                                       const sim::SimParams& params,
                                       std::uint64_t seed, SeedRule seeds) {
  return [topology, cluster, params, seed,
          seeds](std::size_t pass) -> std::unique_ptr<Objective> {
    return std::make_unique<SimObjective>(topology, cluster, params,
                                          seeds(seed, pass).objective);
  };
}

namespace {

/// space_options(desc) with the `batch` block's batch-size range set to
/// [b/5, 10b] around the workload's starting batch size b: Sundog's 50000
/// keeps SpaceOptions' own [10000, 500000], and the synthetic topologies'
/// 200 gets [40, 2000] instead of a range none of their batches fit.
SpaceOptions campaign_space(const CampaignDesc& desc, const Workload& w) {
  SpaceOptions space = space_options(desc);
  space.batch_size_min = std::max(1, w.defaults.batch_size / 5);
  space.batch_size_max = 10 * w.defaults.batch_size;
  return space;
}

}  // namespace

CampaignSpec make_campaign(const CampaignDesc& desc, std::string name,
                           SeedRule seeds) {
  const std::string why = desc.check();
  STORMTUNE_REQUIRE(why.empty(), "campaign '" + name + "' " + why);
  Workload w = load_workload(desc);
  CampaignSpec spec;
  spec.name = std::move(name);
  spec.options.max_steps = desc.steps;
  spec.options.best_config_reps = desc.reps;
  spec.passes = desc.passes;
  if (desc.fidelity == "ladder") {
    LadderCampaignConfig lc;
    lc.space = campaign_space(desc, w);
    lc.defaults = std::move(w.defaults);
    lc.topology = std::move(w.topology);
    lc.cluster = w.cluster;
    lc.params = w.params;
    // The fixed-hyper GP keeps ladder suggests cheap through the
    // incremental append and evict paths.
    lc.bo.seed = desc.seed;
    lc.bo.hyper_mode = bo::HyperMode::kFixed;
    lc.bo.max_observations = desc.gp_window;
    lc.ladder = desc.ladder;
    lc.objective_seed = desc.seed;
    lc.tuner_name = desc.strategy + "+ladder";
    lc.seeds = seeds;
    auto factories = LadderCampaignFactories::create(std::move(lc));
    spec.make_tuner = factories->tuner_factory();
    spec.make_objective = factories->objective_factory();
    return spec;
  }
  TunerSpec tuner;
  tuner.space = campaign_space(desc, w);
  tuner.defaults = std::move(w.defaults);
  tuner.bo.max_observations = desc.gp_window;
  spec.make_objective =
      sim_objective_factory(w.topology, w.cluster, w.params, desc.seed, seeds);
  spec.make_tuner = [strategy = desc.strategy, topology = std::move(w.topology),
                     tuner = std::move(tuner), seed = desc.seed,
                     seeds](std::size_t pass) {
    TunerSpec t = tuner;
    t.seed = seeds(seed, pass).tuner;
    return make_tuner(strategy, topology, std::move(t));
  };
  return spec;
}

}  // namespace stormtune::tuning
