// Multi-fidelity evaluation ladder: golden and validation tests.
//
// Coverage:
//  - hexfloat goldens for sim::fluid_estimate on the paper's four
//    evaluation topologies (the three synthetic sizes and Sundog), pinning
//    the rung-0 screen bitwise;
//  - the caller-owned FluidWorkspace overload is bitwise identical to the
//    validating by-value overload;
//  - FidelityLadder escalation policy (rung-1 always, rung-2 only on
//    incumbent challenges) and full-fidelity repetition streams;
//  - a hexfloat golden for a whole ladder campaign (pins the promotion
//    decisions — fluid screen order, challenge threshold, rung tagging);
//  - ladder campaigns are bit-identical across scheduler thread counts;
//  - ladder-mode campaigns land within the PR 4 adaptive tolerance of
//    full-fidelity campaigns on all four paper topologies.
//
// If an intentional behavior change invalidates a golden, regenerate it
// with the dump loops at the bottom of this file's history: print every
// field with %a and paste the table.
#include "tuning/fidelity.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "stormsim/engine.hpp"
#include "stormsim/fluid.hpp"
#include "topology/sundog.hpp"
#include "topology/synthetic.hpp"
#include "tuning/campaign_scheduler.hpp"
#include "tuning/config_space.hpp"
#include "tuning/report.hpp"

namespace stormtune::tuning {
namespace {

struct PaperCase {
  const char* name;
  sim::Topology topology;
  sim::TopologyConfig config;
  sim::ClusterSpec cluster;
  sim::SimParams params;  // full 120 s window, adaptive off
};

/// The four evaluation deployments of the paper, configured exactly like
/// the adaptive-window validation suite (test_adaptive_window.cpp).
std::vector<PaperCase> paper_cases() {
  std::vector<PaperCase> cases;
  auto synth = [&](const char* name, topo::TopologySize size, int hint,
                   int batch_size) {
    topo::SyntheticSpec spec;
    spec.size = size;
    sim::Topology t = topo::build_synthetic(spec);
    sim::TopologyConfig c = sim::uniform_hint_config(t, hint);
    c.batch_size = batch_size;
    cases.push_back({name, t, c, topo::paper_cluster(),
                     topo::synthetic_sim_params()});
  };
  synth("small/h4", topo::TopologySize::kSmall, 4, 50);
  synth("medium/h6", topo::TopologySize::kMedium, 6, 200);
  synth("large/h8", topo::TopologySize::kLarge, 8, 200);
  {
    sim::Topology t = topo::build_sundog();
    cases.push_back({"sundog", t, topo::sundog_baseline_config(t),
                     topo::sundog_cluster(), topo::sundog_sim_params()});
  }
  return cases;
}

struct FluidGolden {
  const char* name;
  double throughput_tuples_per_s;
  int bottleneck;
  double stage_limited;
  double cpu_limited;
  double commit_limited;
  double pipeline_limited;
  double critical_path_ms;
};

// Captured from sim::fluid_estimate at the introduction of the fidelity
// ladder; EXPECT_EQ on hexfloat constants makes the comparison bitwise.
const FluidGolden kFluidGolden[] = {
    {"small/h4", 0x1.56c57dbf317fp+6, 0, 0x1.b6bf5946a5c14p+0,
     0x1.331a0acf5ae6fp+5, 0x1.0aaaaaaaaaaabp+4, 0x1.46e7e8338536cp+2,
     0x1.e970000000001p+9},
    {"medium/h6", 0x1.6c31d59b2496ep+8, 0, 0x1.d22b4edb101d5p+0,
     0x1.424489700d6fep+3, 0x1.0aaaaaaaaaaabp+4, 0x1.599734c137624p+2,
     0x1.cef9b9b9b9b9cp+9},
    {"large/h8", 0x1.422445960e847p+8, 0, 0x1.9c57634f6ebep+0,
     0x1.6d97c57436b7ep+2, 0x1.0aaaaaaaaaaabp+4, 0x1.c00d594f249bfp+1,
     0x1.6519ee58469eep+10},
    {"sundog", 0x1.2cb30fcb42038p+19, 3, 0x1.4p+4, 0x1.4e171b0dfc2a3p+5,
     0x1.9p+3, 0x1.8a21fee92795dp+3, 0x1.95f45d1745d18p+8},
};

TEST(FluidGoldenTest, BitwiseStableOnPaperTopologies) {
  const auto cases = paper_cases();
  ASSERT_EQ(cases.size(), std::size(kFluidGolden));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const PaperCase& c = cases[i];
    const FluidGolden& g = kFluidGolden[i];
    SCOPED_TRACE(c.name);
    ASSERT_STREQ(c.name, g.name);
    const sim::FluidEstimate e =
        sim::fluid_estimate(c.topology, c.config, c.cluster, c.params);
    EXPECT_EQ(e.throughput_tuples_per_s, g.throughput_tuples_per_s);
    EXPECT_EQ(static_cast<int>(e.bottleneck), g.bottleneck);
    EXPECT_EQ(e.stage_limited, g.stage_limited);
    EXPECT_EQ(e.cpu_limited, g.cpu_limited);
    EXPECT_EQ(e.commit_limited, g.commit_limited);
    EXPECT_EQ(e.pipeline_limited, g.pipeline_limited);
    EXPECT_EQ(e.critical_path_ms, g.critical_path_ms);
  }
}

TEST(FluidGoldenTest, WorkspaceOverloadBitwiseIdenticalToPlain) {
  // One workspace reused across all four deployments (shrinking and
  // growing buffers) must return exactly the bits of the validating
  // by-value overload.
  sim::FluidWorkspace ws;
  for (int round = 0; round < 2; ++round) {
    for (const PaperCase& c : paper_cases()) {
      SCOPED_TRACE(c.name);
      const sim::FluidEstimate plain =
          sim::fluid_estimate(c.topology, c.config, c.cluster, c.params);
      const sim::FluidEstimate reused =
          sim::fluid_estimate(c.topology, c.config, c.cluster, c.params, ws);
      EXPECT_EQ(reused.throughput_tuples_per_s, plain.throughput_tuples_per_s);
      EXPECT_EQ(static_cast<int>(reused.bottleneck),
                static_cast<int>(plain.bottleneck));
      EXPECT_EQ(reused.stage_limited, plain.stage_limited);
      EXPECT_EQ(reused.cpu_limited, plain.cpu_limited);
      EXPECT_EQ(reused.commit_limited, plain.commit_limited);
      EXPECT_EQ(reused.pipeline_limited, plain.pipeline_limited);
      EXPECT_EQ(reused.critical_path_ms, plain.critical_path_ms);
    }
  }
}

/// Small-topology workload shared by the ladder behavior tests: 5 s
/// windows keep the suite fast while exercising every ladder path.
struct LadderWorkload {
  sim::Topology topology;
  sim::ClusterSpec cluster;
  sim::SimParams params;
  sim::TopologyConfig defaults;
  SpaceOptions space;
};

LadderWorkload ladder_workload() {
  LadderWorkload w;
  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kSmall;
  w.topology = topo::build_synthetic(spec);
  w.cluster = topo::paper_cluster();
  w.params = topo::synthetic_sim_params();
  w.params.duration_s = 5.0;
  w.defaults = sim::uniform_hint_config(w.topology, 4);
  w.defaults.batch_size = 200;
  w.defaults.batch_parallelism = 5;
  w.defaults.worker_threads = 8;
  w.defaults.receiver_threads = 1;
  w.defaults.num_ackers = 0;
  w.space = SpaceOptions{};
  return w;
}

TEST(LadderOptions, JsonRoundTripPreservesEveryKnob) {
  LadderOptions o;
  o.screen_batch = 12;
  o.promote_top_k = 3;
  o.challenge_fraction = 0.8;
  o.rung1_epsilon = 0.2;
  o.rung1_window_fraction = 0.5;
  o.rung1_noise_multiple = 6.0;
  o.cost_aware_acquisition = false;
  const LadderOptions back = LadderOptions::from_json(o.to_json());
  EXPECT_EQ(back.screen_batch, 12u);
  EXPECT_EQ(back.promote_top_k, 3u);
  EXPECT_EQ(back.challenge_fraction, 0.8);
  EXPECT_EQ(back.rung1_epsilon, 0.2);
  EXPECT_EQ(back.rung1_window_fraction, 0.5);
  EXPECT_EQ(back.rung1_noise_multiple, 6.0);
  EXPECT_FALSE(back.cost_aware_acquisition);
  // Partial documents override only the named fields — a campaign entry can
  // set one knob without restating the rest.
  JsonObject partial;
  partial["promote_top_k"] = static_cast<std::size_t>(4);
  const LadderOptions merged = LadderOptions::from_json(Json(partial));
  EXPECT_EQ(merged.promote_top_k, 4u);
  EXPECT_EQ(merged.screen_batch, LadderOptions{}.screen_batch);
  EXPECT_EQ(merged.challenge_fraction, LadderOptions{}.challenge_fraction);
}

TEST(FidelityLadder, EscalatesOnlyIncumbentChallenges) {
  const LadderWorkload w = ladder_workload();
  auto ladder = std::make_shared<FidelityLadder>(w.topology, w.cluster,
                                                 w.params, /*seed=*/5);
  bo::BayesOptOptions bopts;
  bopts.seed = 5;
  bopts.hyper_mode = bo::HyperMode::kFixed;
  LadderTuner tuner(ConfigSpace(w.topology, w.space, w.defaults), bopts,
                    ladder);

  constexpr std::size_t kSteps = 12;
  for (std::size_t step = 0; step < kSteps; ++step) {
    const auto config = tuner.next();
    ASSERT_TRUE(config.has_value());
    const double y = ladder->evaluate(*config);
    const int rung = ladder->last_rung();
    EXPECT_TRUE(rung == 1 || rung == 2);
    if (rung == 2) {
      // A full run updated (or set) the incumbent iff it won.
      ASSERT_TRUE(ladder->incumbent().has_value());
      EXPECT_GE(*ladder->incumbent(), y == 0.0 ? 0.0 : y);
    }
    tuner.report(*config, y);
  }

  const LadderStats& s = ladder->stats();
  // Every evaluation runs rung 1; the first always escalates (no incumbent
  // yet); most screened candidates must NOT reach a full run.
  EXPECT_EQ(s.rung1_evals, kSteps);
  EXPECT_GE(s.rung2_evals, 1u);
  EXPECT_LT(s.rung2_evals, kSteps);
  // Each refill screens screen_batch − 1 uniform candidates.
  const std::size_t batch = ladder->options().screen_batch;
  const std::size_t keep = ladder->options().promote_top_k;
  EXPECT_EQ(s.screened % (batch - 1), 0u);
  EXPECT_GE(s.screened / (batch - 1), (kSteps + keep - 1) / keep);
  // Simulated cost: rung-1 runs use the shortened adaptive window, so the
  // mean rung-1 cost must undercut the mean rung-2 (full-window) cost.
  ASSERT_GT(s.rung2_evals, 0u);
  EXPECT_LT(ladder->mean_rung1_cost_ms(), ladder->mean_rung2_cost_ms());
}

TEST(FidelityLadder, RepetitionStreamsMatchFullFidelity) {
  // clone_stream(r) of a ladder must be the SAME objective clone_stream(r)
  // of a plain full-fidelity SimObjective with the same seed produces —
  // best-config repetitions of ladder campaigns reuse full-mode streams.
  const LadderWorkload w = ladder_workload();
  const FidelityLadder ladder(w.topology, w.cluster, w.params, /*seed=*/5);
  const SimObjective full(w.topology, w.cluster, w.params, /*seed=*/5);
  for (std::uint64_t rep = 1; rep <= 3; ++rep) {
    SCOPED_TRACE(rep);
    const double a = ladder.clone_stream(rep)->evaluate(w.defaults);
    const double b = full.clone_stream(rep)->evaluate(w.defaults);
    EXPECT_EQ(a, b);
  }
}

std::string hexfloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// The result's fields, doubles as hexfloats.
std::string fingerprint(const ExperimentResult& r) {
  std::ostringstream out;
  out << r.strategy << '\n';
  for (const StepRecord& s : r.trace) {
    out << s.step << ' ' << hexfloat(s.throughput) << '\n';
  }
  out << config_to_json(r.best_config).dump() << '\n';
  out << hexfloat(r.best_throughput) << " @" << r.best_step << '\n';
  out << r.best_rep_stats.n << ' ' << hexfloat(r.best_rep_stats.mean) << '\n';
  for (const double v : r.best_rep_values) out << hexfloat(v) << ' ';
  out << '\n';
  return out.str();
}

LadderCampaignConfig ladder_campaign_config(const LadderWorkload& w,
                                            std::uint64_t seed) {
  LadderCampaignConfig lc;
  lc.topology = w.topology;
  lc.cluster = w.cluster;
  lc.params = w.params;
  lc.space = w.space;
  lc.defaults = w.defaults;
  lc.bo.seed = seed;
  lc.bo.num_threads = 1;
  lc.bo.hyper_mode = bo::HyperMode::kFixed;
  lc.objective_seed = seed;
  return lc;
}

CampaignSpec ladder_spec(const LadderWorkload& w, std::uint64_t seed,
                         std::size_t steps, std::size_t reps,
                         std::size_t passes) {
  auto factories =
      LadderCampaignFactories::create(ladder_campaign_config(w, seed));
  CampaignSpec spec;
  spec.name = "ladder";
  spec.make_tuner = factories->tuner_factory();
  spec.make_objective = factories->objective_factory();
  spec.options.max_steps = steps;
  spec.options.best_config_reps = reps;
  spec.passes = passes;
  return spec;
}

// Golden fingerprint of a 2-pass ladder campaign (best throughput and the
// step it was found at, per solo 1-thread run). Pins the promotion
// decisions end to end: fluid screen order, challenge threshold, rung
// tagging, per-rung GP noise, and cost-aware acquisition.
constexpr const char* kLadderGoldenBest = "0x1.d07212fc2fb41p+8";
constexpr std::size_t kLadderGoldenStep = 2;

TEST(FidelityLadder, CampaignGoldenAndThreadCountInvariance) {
  const LadderWorkload w = ladder_workload();
  const CampaignSpec spec = ladder_spec(w, /*seed=*/21, /*steps=*/10,
                                        /*reps=*/2, /*passes=*/2);

  const ExperimentResult solo = run_campaign(spec, 1);
  EXPECT_EQ(hexfloat(solo.best_throughput), kLadderGoldenBest);
  EXPECT_EQ(solo.best_step, kLadderGoldenStep);
  const std::string reference = fingerprint(solo);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // Fresh factories per run: the per-pass ladder registry accumulates
    // incumbent state, so reuse across runs would change the schedule.
    const CampaignSpec fresh = ladder_spec(w, /*seed=*/21, /*steps=*/10,
                                           /*reps=*/2, /*passes=*/2);
    const MultiCampaignResult multi =
        run_campaigns({fresh}, {.num_threads = threads});
    ASSERT_EQ(multi.results.size(), 1u);
    EXPECT_EQ(fingerprint(multi.results[0]), reference);
  }
}

TEST(FidelityLadder, TracksFullFidelityCampaignsOnPaperTopologies) {
  // Acceptance: on all four paper topologies, a ladder campaign's final
  // configuration performs within the PR 4 adaptive tolerance of the
  // full-fidelity campaign's, both re-measured under one full-window
  // objective (2 × rung1_epsilon bounds the extrapolation error of the
  // shortened adaptive window, exactly as in test_adaptive_window.cpp).
  for (const PaperCase& c : paper_cases()) {
    SCOPED_TRACE(c.name);
    sim::SimParams params = c.params;
    params.duration_s = 10.0;
    LadderWorkload w;
    w.topology = c.topology;
    w.cluster = c.cluster;
    w.params = params;
    w.defaults = c.config;
    w.space = SpaceOptions{};

    constexpr std::uint64_t kSeed = 33;
    constexpr std::size_t kSteps = 10;

    // Full-fidelity reference campaign (plain BayesTuner + SimObjective).
    ExperimentOptions protocol;
    protocol.max_steps = kSteps;
    protocol.best_config_reps = 2;
    bo::BayesOptOptions bopts;
    bopts.seed = kSeed;
    bopts.hyper_mode = bo::HyperMode::kFixed;
    BayesTuner full_tuner(ConfigSpace(w.topology, w.space, w.defaults),
                          bopts, "bo");
    SimObjective full_objective(w.topology, w.cluster, w.params, kSeed);
    const ExperimentResult full =
        run_experiment(full_tuner, full_objective, protocol);

    const CampaignSpec spec =
        ladder_spec(w, kSeed, kSteps, /*reps=*/2, /*passes=*/1);
    const ExperimentResult ladder = run_campaign(spec, 1);

    // Re-measure both winners under one fresh full-window objective so the
    // comparison is config quality, not measurement-window luck.
    SimObjective judge(w.topology, w.cluster, w.params, kSeed + 101);
    const double full_best = judge.evaluate(full.best_config);
    const double ladder_best = judge.evaluate(ladder.best_config);
    ASSERT_GT(full_best, 0.0);
    const LadderOptions ladder_opts;
    EXPECT_GE(ladder_best,
              (1.0 - 2.0 * ladder_opts.rung1_epsilon) * full_best);
  }
}

}  // namespace
}  // namespace stormtune::tuning
