// Golden tests for the campaign protocol and the multi-tenant scheduler.
//
// The acceptance contract: N campaigns interleaved over a work-stealing
// pool produce, per campaign, results bit-identical (compared via %a
// hexfloat fingerprints) to a solo run_campaign() of the same spec — for
// every thread count, and for a shuffled submission order — and every
// pass equals run_experiment() of that pass.
//
// The thread-count list defaults to {1, 2, 8}; CI's TSan job widens it via
// STORMTUNE_SCHED_TEST_THREADS (comma-separated, e.g. "1,4,16").
#include "tuning/campaign_scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "topology/synthetic.hpp"
#include "tuning/config_space.hpp"
#include "tuning/fidelity.hpp"
#include "tuning/report.hpp"
#include "tuning/tuner.hpp"

namespace stormtune::tuning {
namespace {

std::vector<std::size_t> scheduler_test_threads() {
  std::vector<std::size_t> threads = {1, 2, 8};
  if (const char* env = std::getenv("STORMTUNE_SCHED_TEST_THREADS")) {
    threads.clear();
    std::stringstream ss(env);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      threads.push_back(static_cast<std::size_t>(std::stoul(tok)));
    }
  }
  return threads;
}

std::string hexfloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Every result field, doubles rendered as hexfloat.
std::string fingerprint(const ExperimentResult& r) {
  std::ostringstream out;
  out << r.strategy << '\n';
  for (const StepRecord& s : r.trace) {
    out << s.step << ' ' << hexfloat(s.throughput) << '\n';
  }
  out << config_to_json(r.best_config).dump() << '\n';
  out << hexfloat(r.best_throughput) << " @" << r.best_step << '\n';
  out << r.best_rep_stats.n << ' ' << hexfloat(r.best_rep_stats.mean) << ' '
      << hexfloat(r.best_rep_stats.variance) << ' '
      << hexfloat(r.best_rep_stats.stddev) << ' '
      << hexfloat(r.best_rep_stats.min) << ' '
      << hexfloat(r.best_rep_stats.max) << '\n';
  for (const double v : r.best_rep_values) out << hexfloat(v) << ' ';
  out << '\n';
  return out.str();
}

sim::Topology demo_topology() {
  sim::Topology t;
  const auto s = t.add_spout("S", 10.0);
  const auto b = t.add_bolt("B", 20.0);
  t.connect(s, b);
  return t;
}

sim::ClusterSpec demo_cluster() {
  sim::ClusterSpec cluster;
  cluster.num_machines = 4;
  return cluster;
}

sim::SimParams demo_params() {
  sim::SimParams params;
  params.duration_s = 5.0;
  params.throughput_noise_sd = 0.05;
  return params;
}

/// A tiny random-search campaign whose every seed derives from `i`, so the
/// population is diverse but fully reproducible. Options vary with i to
/// cover both the 1-rep and multi-rep gather paths.
CampaignSpec make_random_spec(std::size_t i) {
  const sim::Topology t = demo_topology();
  const sim::ClusterSpec cluster = demo_cluster();
  const sim::SimParams params = demo_params();
  sim::TopologyConfig defaults = sim::uniform_hint_config(t, 2);
  defaults.batch_size = 50;
  SpaceOptions sopts;
  sopts.hint_max = 6;
  const auto base = static_cast<std::uint64_t>(1000 + 17 * i);

  CampaignSpec spec;
  spec.name = "c" + std::to_string(i);
  spec.make_tuner = [t, sopts, defaults,
                     base](std::size_t pass) -> std::unique_ptr<Tuner> {
    return std::make_unique<RandomTuner>(ConfigSpace(t, sopts, defaults),
                                         base * 7919 + pass);
  };
  spec.make_objective = [t, cluster, params,
                         base](std::size_t pass) -> std::unique_ptr<Objective> {
    return std::make_unique<SimObjective>(
        t, cluster, params, base + 0x632be59bd9b4e019ULL * pass);
  };
  spec.options.max_steps = 2 + i % 2;
  spec.options.best_config_reps = 1 + i % 2;
  spec.passes = 2;
  return spec;
}

/// Solo reference: run_campaign() of the one spec on a 1-thread pool.
std::string solo_fingerprint(const CampaignSpec& spec) {
  return fingerprint(run_campaign(spec, 1));
}

TEST(CampaignScheduler, ThousandInterleavedCampaignsMatchSoloRuns) {
  constexpr std::size_t kCampaigns = 1000;
  std::vector<CampaignSpec> specs;
  specs.reserve(kCampaigns);
  for (std::size_t i = 0; i < kCampaigns; ++i) {
    specs.push_back(make_random_spec(i));
  }

  std::vector<std::string> solo;
  solo.reserve(kCampaigns);
  for (const CampaignSpec& spec : specs) {
    solo.push_back(solo_fingerprint(spec));
  }

  std::size_t max_threads = 1;
  for (const std::size_t threads : scheduler_test_threads()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    max_threads = std::max(max_threads, threads);
    const MultiCampaignResult multi =
        run_campaigns(specs, {.num_threads = threads});
    ASSERT_EQ(multi.results.size(), kCampaigns);
    if (threads == 1) {
      EXPECT_EQ(multi.steal_count, 0u);
    }
    for (std::size_t i = 0; i < kCampaigns; ++i) {
      ASSERT_EQ(fingerprint(multi.results[i]), solo[i]) << "campaign " << i;
    }
  }

  // Shuffled submission: a fixed permutation (617 is coprime to 1000, so
  // j -> 617 j mod 1000 is a bijection). Each campaign's result must not
  // care who its neighbors are.
  std::vector<CampaignSpec> shuffled;
  std::vector<std::size_t> origin;
  for (std::size_t j = 0; j < kCampaigns; ++j) {
    origin.push_back((j * 617) % kCampaigns);
    shuffled.push_back(specs[origin.back()]);
  }
  const MultiCampaignResult multi =
      run_campaigns(shuffled, {.num_threads = max_threads});
  ASSERT_EQ(multi.results.size(), kCampaigns);
  for (std::size_t j = 0; j < kCampaigns; ++j) {
    ASSERT_EQ(fingerprint(multi.results[j]), solo[origin[j]])
        << "slot " << j << " (campaign " << origin[j] << ")";
  }
}

TEST(CampaignScheduler, BayesOptCampaignsMatchSoloRuns) {
  // The suggest phase goes through BayesOpt, whose worker pool is now
  // lazily constructed — three BO campaigns interleaving across scheduler
  // workers pin the reentrancy of that path (each optimizer instance is
  // owned by exactly one strand).
  const sim::Topology t = demo_topology();
  const sim::ClusterSpec cluster = demo_cluster();
  const sim::SimParams params = demo_params();
  sim::TopologyConfig defaults = sim::uniform_hint_config(t, 2);
  defaults.batch_size = 50;
  SpaceOptions sopts;
  sopts.hint_max = 5;

  std::vector<CampaignSpec> specs;
  for (std::size_t i = 0; i < 3; ++i) {
    CampaignSpec spec;
    spec.name = "bo" + std::to_string(i);
    const auto base = static_cast<std::uint64_t>(50 + 31 * i);
    spec.make_tuner = [t, sopts, defaults,
                       base](std::size_t pass) -> std::unique_ptr<Tuner> {
      bo::BayesOptOptions bopts;
      bopts.seed = base * 7919 + pass;
      return std::make_unique<BayesTuner>(ConfigSpace(t, sopts, defaults),
                                          bopts);
    };
    spec.make_objective =
        [t, cluster, params,
         base](std::size_t pass) -> std::unique_ptr<Objective> {
      return std::make_unique<SimObjective>(
          t, cluster, params, base + 0x632be59bd9b4e019ULL * pass);
    };
    spec.options.max_steps = 4;
    spec.options.best_config_reps = 2;
    spec.passes = 2;
    specs.push_back(std::move(spec));
  }

  std::vector<std::string> solo;
  for (const CampaignSpec& spec : specs) {
    solo.push_back(solo_fingerprint(spec));
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const MultiCampaignResult multi =
        run_campaigns(specs, {.num_threads = threads});
    ASSERT_EQ(multi.results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(fingerprint(multi.results[i]), solo[i]) << "campaign " << i;
    }
  }
}

/// Deterministic, stateless, and clone_stream-free: repetitions run on the
/// pass objective itself.
class HintScoreObjective final : public Objective {
 public:
  double evaluate(const sim::TopologyConfig& c) override {
    const double h = static_cast<double>(c.parallelism_hints.at(0));
    return 100.0 - (h - 4.0) * (h - 4.0);
  }
};

TEST(CampaignScheduler, ObjectivesWithoutCloneStreamFallBackToSerialReps) {
  // Being stateless, the objective reproduces the pass's best tuning
  // measurement on every repetition, at every thread count.
  const sim::Topology t = demo_topology();
  sim::TopologyConfig defaults = sim::uniform_hint_config(t, 2);
  defaults.batch_size = 50;
  SpaceOptions sopts;
  sopts.hint_max = 6;

  CampaignSpec spec;
  spec.name = "no-clone";
  spec.make_tuner = [t, sopts,
                     defaults](std::size_t pass) -> std::unique_ptr<Tuner> {
    return std::make_unique<RandomTuner>(ConfigSpace(t, sopts, defaults),
                                         900 + pass);
  };
  spec.make_objective = [](std::size_t) -> std::unique_ptr<Objective> {
    return std::make_unique<HintScoreObjective>();
  };
  spec.options.max_steps = 3;
  spec.options.best_config_reps = 4;
  spec.passes = 2;

  const std::string reference = solo_fingerprint(spec);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const MultiCampaignResult multi =
        run_campaigns({spec}, {.num_threads = threads});
    ASSERT_EQ(multi.results.size(), 1u);
    const ExperimentResult& r = multi.results[0];
    ASSERT_EQ(r.best_rep_values.size(), 4u);
    for (const double v : r.best_rep_values) {
      EXPECT_EQ(v, r.best_throughput);
    }
    EXPECT_EQ(fingerprint(r), reference);
  }
}

/// Deterministic and clone_stream-free, but stateful: a measurement depends
/// on how many came before it, so repetitions that continue the objective's
/// own sequence are told apart from any other repetition rule.
class ScriptedObjective final : public Objective {
 public:
  double evaluate(const sim::TopologyConfig& c) override {
    const double h = static_cast<double>(c.parallelism_hints.at(0));
    return 100.0 + 10.0 * h + static_cast<double>(calls_++ % 5);
  }

 private:
  std::size_t calls_ = 0;
};

enum class ObjectiveKind { kCloneable, kScripted };

using ProtocolParam = std::tuple<ObjectiveKind, std::size_t>;

/// One protocol, three entry points: run_experiment stepping each pass
/// inline, run_campaign, and run_campaigns must produce bit-identical
/// results at every pool width, whether the
/// objective clones repetition streams (SimObjective) or not.
class ProtocolEquivalence : public ::testing::TestWithParam<ProtocolParam> {
};

TEST_P(ProtocolEquivalence, EntryPointsAgreeBitForBit) {
  const auto [kind, threads] = GetParam();
  CampaignSpec spec = make_random_spec(1);
  spec.options.max_steps = 4;
  spec.options.best_config_reps = 3;
  if (kind == ObjectiveKind::kScripted) {
    spec.make_objective = [](std::size_t) -> std::unique_ptr<Objective> {
      return std::make_unique<ScriptedObjective>();
    };
  }

  // Reference: each pass through run_experiment on its own tuner and
  // objective, then the best-of-passes rule (ties keep the earlier pass).
  std::vector<ExperimentResult> inline_passes;
  std::size_t win = 0;
  for (std::size_t pass = 0; pass < spec.passes; ++pass) {
    const std::unique_ptr<Tuner> tuner = spec.make_tuner(pass);
    const std::unique_ptr<Objective> objective = spec.make_objective(pass);
    inline_passes.push_back(
        run_experiment(*tuner, *objective, spec.options));
    if (inline_passes[pass].best_rep_stats.mean >
        inline_passes[win].best_rep_stats.mean) {
      win = pass;
    }
  }
  if (kind == ObjectiveKind::kScripted) {
    // Without clone_stream, repetition r is the objective's
    // (steps + r + 1)-th measurement.
    const ExperimentResult& r = inline_passes[0];
    const double h =
        static_cast<double>(r.best_config.parallelism_hints.at(0));
    for (std::size_t rep = 0; rep < r.best_rep_values.size(); ++rep) {
      EXPECT_EQ(r.best_rep_values[rep],
                100.0 + 10.0 * h +
                    static_cast<double>((r.trace.size() + rep) % 5));
    }
  }

  std::vector<ExperimentResult> passes;
  const std::string best = fingerprint(run_campaign(spec, threads, &passes));
  EXPECT_EQ(best, fingerprint(inline_passes[win]));
  ASSERT_EQ(passes.size(), inline_passes.size());
  for (std::size_t pass = 0; pass < passes.size(); ++pass) {
    EXPECT_EQ(fingerprint(passes[pass]), fingerprint(inline_passes[pass]))
        << "pass " << pass;
  }

  const MultiCampaignResult multi =
      run_campaigns({spec, spec, spec}, {.num_threads = threads});
  for (const ExperimentResult& r : multi.results) {
    EXPECT_EQ(fingerprint(r), best);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ObjectivesAndWidths, ProtocolEquivalence,
    ::testing::Combine(::testing::Values(ObjectiveKind::kCloneable,
                                         ObjectiveKind::kScripted),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4}, std::size_t{8})),
    [](const ::testing::TestParamInfo<ProtocolParam>& info) {
      return std::string(std::get<0>(info.param) == ObjectiveKind::kCloneable
                             ? "cloneable"
                             : "scripted") +
             "_" + std::to_string(std::get<1>(info.param)) + "threads";
    });

/// Reference repetitions for the replay path: evaluations go to the pass
/// objective, but repetition r runs on clone_stream(r) of `twin`, a
/// never-evaluated SimObjective built like the pass's full-fidelity one. Its
/// clones hold no best run to replay, so every repetition simulates, on the
/// seeds of the pass objective's clones (a stream seed derives from the
/// construction seed alone). rebind_stream stays unsupported, so each
/// repetition gets a fresh clone.
class SimulatedRepsObjective final : public Objective {
 public:
  SimulatedRepsObjective(std::unique_ptr<Objective> pass,
                         std::unique_ptr<SimObjective> twin)
      : pass_(std::move(pass)), twin_(std::move(twin)) {}

  double evaluate(const sim::TopologyConfig& c) override {
    return pass_->evaluate(c);
  }
  std::unique_ptr<Objective> clone_stream(std::uint64_t stream) const override {
    return twin_->clone_stream(stream);
  }

 private:
  std::unique_ptr<Objective> pass_;
  std::unique_ptr<SimObjective> twin_;
};

/// The wrapped objective, stream for stream, counting the evaluations it
/// and its clones answered by replaying a recorded run.
class ReplayCountingObjective final : public Objective {
 public:
  using Counter = std::shared_ptr<std::atomic<std::size_t>>;

  ReplayCountingObjective(std::unique_ptr<Objective> inner, Counter replays)
      : inner_(std::move(inner)), replays_(std::move(replays)) {}

  double evaluate(const sim::TopologyConfig& c) override {
    const double v = inner_->evaluate(c);
    if (const auto* sim = dynamic_cast<const SimObjective*>(inner_.get())) {
      replays_->fetch_add(sim->num_replays() - seen_);
      seen_ = sim->num_replays();
    }
    return v;
  }
  std::unique_ptr<Objective> clone_stream(std::uint64_t stream) const override {
    std::unique_ptr<Objective> inner = inner_->clone_stream(stream);
    if (!inner) return nullptr;
    return std::make_unique<ReplayCountingObjective>(std::move(inner),
                                                     replays_);
  }
  bool rebind_stream(std::uint64_t stream) override {
    return inner_->rebind_stream(stream);
  }

 private:
  std::unique_ptr<Objective> inner_;
  Counter replays_;
  std::size_t seen_ = 0;
};

TEST(CampaignScheduler, ReplayedRepetitionsMatchSimulatedOnes) {
  // Under default SimParams a run's seed reaches only its measurement
  // noise, so a repetition of the recorded best run replays it instead of
  // simulating. 30-rep full-fidelity and ladder passes must match, bit for
  // bit at widths 1, 2 and 4, a reference whose repetitions all simulate.
  const sim::ClusterSpec cluster = topo::paper_cluster();
  sim::SimParams params = topo::synthetic_sim_params();
  params.duration_s = 20.0;
  SpaceOptions sopts;
  sopts.hint_max = 8;
  constexpr std::size_t kReps = 30;

  // The tuning loop never repeats a configuration here, and the pass's one
  // repetition clone inherits its best run through clone_stream. A
  // ladder's best value may come from a rung-1 run that was never
  // simulated at full fidelity; then the first repetition simulates and
  // records it, and every later one replays that record.
  struct Case {
    const char* name;
    bool ladder;
    topo::TopologySize size;
    std::uint64_t seed;
    std::size_t min_replays;
    std::size_t max_replays;
  };
  const Case cases[] = {
      {"full fidelity", false, topo::TopologySize::kSmall, 41, kReps, kReps},
      {"ladder", true, topo::TopologySize::kSmall, 41, kReps - 1, kReps},
      // Seed 22 on the medium graph: the best value is step 2's rung-1 run.
      {"ladder, rung-1 best", true, topo::TopologySize::kMedium, 22,
       kReps - 1, kReps - 1},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    topo::SyntheticSpec graph;
    graph.size = c.size;
    const sim::Topology t = topo::build_synthetic(graph);
    const sim::TopologyConfig defaults = sim::uniform_hint_config(t, 4);

    // Fresh factories per run: a ladder pass's tuner and objective share
    // one stateful ladder.
    auto make_spec = [&](bool reference,
                         ReplayCountingObjective::Counter replays) {
      CampaignSpec spec;
      ObjectiveFactory pass_objective;
      if (c.ladder) {
        LadderCampaignConfig lc;
        lc.topology = t;
        lc.cluster = cluster;
        lc.params = params;
        lc.space = sopts;
        lc.defaults = defaults;
        lc.bo.seed = c.seed;
        lc.bo.hyper_mode = bo::HyperMode::kFixed;
        lc.objective_seed = c.seed;  // pass 0's rung-2 seed
        auto factories = LadderCampaignFactories::create(std::move(lc));
        spec.make_tuner = factories->tuner_factory();
        pass_objective = factories->objective_factory();
      } else {
        spec.make_tuner = [&](std::size_t) -> std::unique_ptr<Tuner> {
          return std::make_unique<RandomTuner>(
              ConfigSpace(t, sopts, defaults), 23);
        };
        pass_objective = [&](std::size_t) -> std::unique_ptr<Objective> {
          return std::make_unique<SimObjective>(t, cluster, params, c.seed);
        };
      }
      spec.make_objective = [&, pass_objective, reference,
                             replays](std::size_t pass)
          -> std::unique_ptr<Objective> {
        if (reference) {
          return std::make_unique<SimulatedRepsObjective>(
              pass_objective(pass),
              std::make_unique<SimObjective>(t, cluster, params, c.seed));
        }
        return std::make_unique<ReplayCountingObjective>(pass_objective(pass),
                                                         replays);
      };
      spec.options.max_steps = 6;
      spec.options.best_config_reps = kReps;
      spec.passes = 1;
      return spec;
    };

    const CampaignSpec reference_spec = make_spec(true, nullptr);
    const std::unique_ptr<Tuner> tuner = reference_spec.make_tuner(0);
    const std::unique_ptr<Objective> objective =
        reference_spec.make_objective(0);
    const ExperimentResult reference =
        run_experiment(*tuner, *objective, reference_spec.options);
    ASSERT_EQ(reference.best_rep_values.size(), kReps);

    for (const std::size_t width : {1u, 2u, 4u}) {
      SCOPED_TRACE("width=" + std::to_string(width));
      auto replays = std::make_shared<std::atomic<std::size_t>>(0);
      const ExperimentResult r = run_campaign(make_spec(false, replays), width);
      EXPECT_EQ(fingerprint(r), fingerprint(reference));
      EXPECT_GE(replays->load(), c.min_replays);
      EXPECT_LE(replays->load(), c.max_replays);
    }
  }
}

TEST(CampaignScheduler, SinkReceivesEveryCampaignInTicketOrder) {
  constexpr std::size_t kCampaigns = 12;
  std::vector<CampaignSpec> specs;
  for (std::size_t i = 0; i < kCampaigns; ++i) {
    specs.push_back(make_random_spec(i));
  }

  std::ostringstream out;
  ResultSink sink(std::make_unique<JsonlResultBackend>(out),
                  {.expected_records = kCampaigns});
  const MultiCampaignResult multi =
      run_campaigns(specs, {.num_threads = 4}, &sink);
  sink.close();
  EXPECT_EQ(sink.written(), kCampaigns);

  // One line per campaign, in ticket (= submission) order regardless of
  // completion order, each carrying exactly the scheduler's result.
  std::istringstream lines(out.str());
  std::string line;
  std::size_t ticket = 0;
  while (std::getline(lines, line)) {
    const Json record = Json::parse(line);
    ASSERT_EQ(static_cast<std::size_t>(record.at("ticket").as_int()), ticket);
    EXPECT_EQ(record.at("name").as_string(), specs[ticket].name);
    const ExperimentResult round_trip =
        experiment_from_json(record.at("result"));
    EXPECT_EQ(fingerprint(round_trip), fingerprint(multi.results[ticket]));
    ++ticket;
  }
  EXPECT_EQ(ticket, kCampaigns);
}

TEST(CampaignScheduler, ValidatesSpecs) {
  CampaignSpec spec = make_random_spec(0);
  spec.passes = 0;
  EXPECT_THROW(run_campaigns({spec}, {.num_threads = 1}), Error);
  CampaignSpec no_tuner = make_random_spec(1);
  no_tuner.make_tuner = nullptr;
  EXPECT_THROW(run_campaigns({no_tuner}, {.num_threads = 1}), Error);
  EXPECT_TRUE(run_campaigns({}, {.num_threads = 2}).results.empty());
}

}  // namespace
}  // namespace stormtune::tuning
