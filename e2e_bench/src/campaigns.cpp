#include "campaigns.hpp"

#include "common/error.hpp"
#include "topology/sundog.hpp"
#include "topology/synthetic.hpp"
#include "tuning/fidelity.hpp"

namespace e2e {

namespace {

/// Per-pass objective seed stride of tune-many (and of the ladder factories).
constexpr std::uint64_t kPassSeedStride = 0x632be59bd9b4e019ULL;
/// Seed distance between rounds: runs whose base seeds differ by less than
/// this share no campaign.
constexpr std::uint64_t kRoundSeedStride = 1ULL << 16;
/// BayesOpt suggest pool width. Wider pools give the same results, but on a
/// shared host their speed-up came and went from one minute to the next
/// (bo100-large at 3 threads ran 30 % faster in one set of runs than in the
/// next), which no bound on an unchanged commit could absorb.
constexpr std::size_t kBoThreads = 1;

/// Append `copies` of `t`, named "<t.name>/<i>".
void add_copies(std::vector<CampaignTemplate>& u, int copies,
                CampaignTemplate t) {
  const std::string prefix = t.name;
  for (int i = 0; i < copies; ++i) {
    t.name = prefix + "/" + std::to_string(i);
    u.push_back(t);
  }
}

/// tune-many's load_workload + config_from_options for a campaign entry
/// that sets only topology, what and duration.
void load_topology(CampaignContext& c) {
  int default_batch_size = 200;
  if (c.tmpl.topology == "sundog") {
    c.topology = topo::build_sundog();
    c.cluster = topo::sundog_cluster();
    c.params = topo::sundog_sim_params();
    default_batch_size = 50000;
  } else {
    topo::SyntheticSpec spec;
    STORMTUNE_REQUIRE(c.tmpl.topology == "medium" || c.tmpl.topology == "large",
                      "e2e: unknown topology '" + c.tmpl.topology + "'");
    spec.size = c.tmpl.topology == "medium" ? topo::TopologySize::kMedium
                                            : topo::TopologySize::kLarge;
    c.topology = topo::build_synthetic(spec);
    c.cluster = topo::paper_cluster();
    c.params = topo::synthetic_sim_params();
  }
  c.params.duration_s = c.tmpl.window_s;
  c.defaults = sim::uniform_hint_config(c.topology, 4);
  c.defaults.batch_size = default_batch_size;
  c.space.tune_hints = c.tmpl.what.find('h') != std::string::npos;
  c.space.tune_batch = c.tmpl.what.find("batch") != std::string::npos;
  c.space.tune_concurrency = c.tmpl.what.find("cc") != std::string::npos;
}

/// Factories with tune-many's per-pass seed conventions.
void set_factories(const std::shared_ptr<const CampaignContext>& ctx,
                   tuning::CampaignSpec& spec) {
  if (ctx->tmpl.ladder) {
    tuning::LadderCampaignConfig lc;
    lc.topology = ctx->topology;
    lc.cluster = ctx->cluster;
    lc.params = ctx->params;
    lc.space = ctx->space;
    lc.defaults = ctx->defaults;
    lc.bo.seed = ctx->seed;
    lc.bo.num_threads = kBoThreads;
    lc.bo.hyper_mode = bo::HyperMode::kFixed;
    lc.objective_seed = ctx->seed;
    lc.tuner_name = "bo+ladder";
    auto factories = tuning::LadderCampaignFactories::create(std::move(lc));
    spec.make_tuner = factories->tuner_factory();
    spec.make_objective = factories->objective_factory();
    return;
  }
  spec.make_tuner = [ctx](std::size_t pass) -> std::unique_ptr<tuning::Tuner> {
    bo::BayesOptOptions bopts;
    bopts.seed = ctx->seed * 7919 + pass;
    bopts.num_threads = kBoThreads;
    return std::make_unique<tuning::BayesTuner>(
        tuning::ConfigSpace(ctx->topology, ctx->space, ctx->defaults), bopts,
        "bo");
  };
  spec.make_objective =
      [ctx](std::size_t pass) -> std::unique_ptr<tuning::Objective> {
    return std::make_unique<tuning::SimObjective>(
        ctx->topology, ctx->cluster, ctx->params,
        ctx->seed + kPassSeedStride * pass);
  };
}

}  // namespace

const std::vector<CampaignTemplate>& campaign_union() {
  // Sized so that one run holds tens of independent campaigns. A campaign's
  // cost follows the throughput of the configurations it happens to try
  // (about ±28 % from seed to seed for fig4-medium), so the seed-to-seed
  // spread of every timing falls with the number of campaigns a run holds.
  static const std::vector<CampaignTemplate> all = [] {
    std::vector<CampaignTemplate> u;
    add_copies(u, 2, {"fig4-medium", "medium", "h", false, 12, 3, 2, 15.0});
    add_copies(u, 1, {"bo100-large", "large", "h", false, 100, 3, 1, 5.0});
    add_copies(u, 1, {"ladder-medium", "medium", "h", true, 32, 3, 2, 30.0});
    add_copies(u, 1,
               {"ladder-sundog", "sundog", "h,batch", true, 32, 3, 2, 15.0});
    return u;
  }();
  return all;
}

const std::vector<Workload>& workloads() {
  // Rounds are kept short (about a second of work) where the workload
  // allows: the host's speed changes within seconds, and a round's times
  // are calibrated by readings taken before and after it.
  static const std::vector<Workload> all = {
      {"fig4-medium", {0, 1}, 1, false, 0.65},
      {"bo100-large", {2}, 1, false, 2.7},
      {"ladder-mixed", {3, 4}, 1, false, 1.6},
      {"multitenant-3w", {0, 1, 3, 4}, 3, true, 0.9},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Round build_round(const Workload& w, std::uint64_t seed, std::size_t round,
                  bool smoke) {
  const std::vector<CampaignTemplate>& all = campaign_union();
  Round r;
  r.contexts.reserve(w.members.size());
  r.specs.reserve(w.members.size());
  for (const std::size_t i : w.members) {
    auto ctx = std::make_shared<CampaignContext>();
    ctx->tmpl = all[i];
    if (smoke) {
      ctx->tmpl.steps = 2;
      ctx->tmpl.reps = 1;
      ctx->tmpl.window_s = 1.0;
    }
    ctx->key = ctx->tmpl.name + "@r" + std::to_string(round);
    ctx->seed = seed + i + kRoundSeedStride * round;
    load_topology(*ctx);

    tuning::CampaignSpec spec;
    spec.name = ctx->key;
    spec.passes = ctx->tmpl.passes;
    spec.options.max_steps = ctx->tmpl.steps;
    spec.options.best_config_reps = ctx->tmpl.reps;
    // Every campaign runs its whole step budget, so a run's work does not
    // hinge on where a seed happens to hit three crashes in a row.
    spec.options.zero_streak_stop = 0;
    set_factories(ctx, spec);
    r.specs.push_back(std::move(spec));
    r.contexts.push_back(std::move(ctx));
  }
  return r;
}

std::size_t search_dim(const CampaignContext& c) {
  return tuning::ConfigSpace(c.topology, c.space, c.defaults).space().dim();
}

}  // namespace e2e
