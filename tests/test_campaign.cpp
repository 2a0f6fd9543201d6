#include "tuning/campaign.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "tuning/fidelity.hpp"

namespace stormtune::tuning {
namespace {

CampaignDesc small_desc() {
  CampaignDesc d;
  d.topology = "small";
  return d;
}

/// The number of parameters `desc`'s search space tunes.
std::size_t dimension(const CampaignDesc& desc) {
  const Workload w = load_workload(desc);
  return ConfigSpace(w.topology, space_options(desc), w.defaults)
      .space()
      .dim();
}

/// Expects check() to refuse `desc`, naming `field`.
void expect_refused(const CampaignDesc& desc, const std::string& field) {
  const std::string why = desc.check();
  EXPECT_NE(why.find("'" + field + "'"), std::string::npos)
      << "expected a refusal naming '" << field << "', got: " << why;
}

TEST(CampaignDesc, WhatIsParsedAsBlocksNotSubstrings) {
  // "batch" contains an 'h', which once turned the hint block on too.
  CampaignDesc d = small_desc();
  d.what = "batch,cc";
  ASSERT_EQ(d.check(), "");
  const SpaceOptions s = space_options(d);
  EXPECT_FALSE(s.tune_hints);
  EXPECT_TRUE(s.tune_batch);
  EXPECT_TRUE(s.tune_concurrency);
  EXPECT_EQ(dimension(d), 5u);  // batch size and parallelism, three cc knobs
}

TEST(CampaignDesc, DocumentedWhatValuesKeepTheirBlocks) {
  // small has 10 nodes: 10 hints and the max-tasks cap.
  CampaignDesc d = small_desc();
  d.what = "h";
  EXPECT_EQ(dimension(d), 11u);
  d.what = "h,batch";
  EXPECT_EQ(dimension(d), 13u);
  d.what = "h,batch,cc";
  EXPECT_EQ(dimension(d), 16u);
  d.what = "cc";
  EXPECT_EQ(dimension(d), 3u);
}

TEST(CampaignDesc, CheckRefusesUnknownEmptyAndRepeatedWhatBlocks) {
  for (const char* what : {"", "zzz", "h,h", "h,", ",h", "batch,,cc",
                           "hints", "h batch"}) {
    CampaignDesc d = small_desc();
    d.what = what;
    SCOPED_TRACE(what);
    expect_refused(d, "what");
    EXPECT_THROW(space_options(d), Error);
  }
}

TEST(CampaignDesc, CheckNamesEveryFieldItRefuses) {
  CampaignDesc d = small_desc();
  EXPECT_EQ(d.check(), "");

  d.topology = "bogus";
  expect_refused(d, "topology");
  d = small_desc();
  d.strategy = "bogus";
  expect_refused(d, "strategy");
  d = small_desc();
  d.strategy = "pla";
  d.fidelity = "ladder";
  expect_refused(d, "strategy");
  d = small_desc();
  d.fidelity = "half";
  expect_refused(d, "fidelity");
  d = small_desc();
  d.duration_s = 0.0;
  expect_refused(d, "duration");
  d = small_desc();
  d.steps = 0;
  expect_refused(d, "steps");
  d = small_desc();
  d.passes = 0;
  expect_refused(d, "passes");
  d = small_desc();
  d.gp_window = 1;
  expect_refused(d, "gp_window");
  d = small_desc();
  d.worker_threads = 0;
  expect_refused(d, "worker_threads");
  d = small_desc();
  d.contention = 1.5;
  expect_refused(d, "contention");

  // The ladder knobs hold their values as given: there is no "0 = default".
  for (const double f : {0.0, 2.0, -0.5}) {
    d = small_desc();
    d.fidelity = "ladder";
    d.ladder.challenge_fraction = f;
    expect_refused(d, "ladder_challenge_fraction");
  }
  d = small_desc();
  d.ladder.rung1_epsilon = 0.0;
  expect_refused(d, "ladder_rung1_epsilon");
  d = small_desc();
  d.ladder.promote_top_k = 0;
  expect_refused(d, "ladder_promote_top_k");
}

TEST(CampaignDesc, FromJsonOverridesOnlyTheFieldsAnEntrySets) {
  CampaignDesc defaults;
  defaults.seed = 7;
  defaults.reps = 4;
  defaults.worker_threads = 12;
  const CampaignDesc d = CampaignDesc::from_json(
      Json::parse(R"({"topology": "medium", "strategy": "ibo", "steps": 9,
                      "what": "h,batch", "ladder_challenge_fraction": 0.8,
                      "ladder_promote_top_k": 3, "adaptive_epsilon": 0.1})"),
      defaults);
  EXPECT_EQ(d.topology, "medium");
  EXPECT_EQ(d.strategy, "ibo");
  EXPECT_EQ(d.steps, 9u);
  EXPECT_EQ(d.what, "h,batch");
  EXPECT_EQ(d.ladder.challenge_fraction, 0.8);
  EXPECT_EQ(d.ladder.promote_top_k, 3u);
  EXPECT_EQ(d.ladder.rung1_epsilon, LadderOptions{}.rung1_epsilon);
  EXPECT_TRUE(d.adaptive_window);
  EXPECT_EQ(d.adaptive_epsilon, 0.1);
  EXPECT_EQ(d.seed, 7u);
  EXPECT_EQ(d.reps, 4u);
  EXPECT_EQ(d.worker_threads, 12);

  try {
    (void)CampaignDesc::from_json(
        Json::parse(R"({"topology": "small", "passes": 1.5})"), defaults);
    FAIL() << "a fractional count was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'passes'"), std::string::npos);
  }
}

TEST(PassSeeds, OneRuleForEveryPass) {
  static_assert(pass_seeds(1, 0).tuner == 7919);
  static_assert(pass_seeds(1, 0).objective == 1);
  static_assert(pass_seeds(2, 3).tuner == 2 * 7919 + 3);
  static_assert(pass_seeds(2, 3).objective == 2 + 3 * 0x632be59bd9b4e019ULL);
  static_assert(solo_seeds(5, 0).tuner == 5 && solo_seeds(5, 0).objective == 5);
}

TEST(MakeCampaign, RefusesWhatCheckRefusesNamingTheCampaign) {
  CampaignDesc d = small_desc();
  d.what = "batch,batch";
  try {
    (void)make_campaign(d, "mine");
    FAIL() << "a repeated what block was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("campaign 'mine'"), std::string::npos) << what;
    EXPECT_NE(what.find("'what'"), std::string::npos) << what;
  }
}

TEST(MakeCampaign, CarriesTheProtocolAndBuildsEachFidelity) {
  CampaignDesc d = small_desc();
  d.steps = 3;
  d.reps = 2;
  d.passes = 3;
  d.duration_s = 5.0;
  const CampaignSpec full = make_campaign(d, "full");
  EXPECT_EQ(full.name, "full");
  EXPECT_EQ(full.passes, 3u);
  EXPECT_EQ(full.options.max_steps, 3u);
  EXPECT_EQ(full.options.best_config_reps, 2u);
  EXPECT_EQ(full.make_tuner(0)->name(), "bo");

  d.strategy = "ibo";
  d.fidelity = "ladder";
  const CampaignSpec ladder = make_campaign(d, "ladder");
  const auto tuner = ladder.make_tuner(1);
  EXPECT_EQ(tuner->name(), "ibo+ladder");
  EXPECT_NE(dynamic_cast<const LadderTuner*>(tuner.get()), nullptr);
}

TEST(MakeCampaign, SoloSeedsDifferFromAOnePassCampaign) {
  // `stormtune tune` seeds its pass with the campaign seed itself; a
  // one-pass campaign file seeds its tuner by pass_seeds. Same objective
  // stream at pass 0, different tuner stream.
  CampaignDesc d = small_desc();
  d.strategy = "random";
  d.steps = 4;
  d.reps = 1;
  d.passes = 1;
  d.duration_s = 5.0;
  const CampaignSpec solo = make_campaign(d, "solo", solo_seeds);
  const CampaignSpec file = make_campaign(d, "file");
  const auto run = [](const CampaignSpec& spec) {
    auto tuner = spec.make_tuner(0);
    auto objective = spec.make_objective(0);
    return run_experiment(*tuner, *objective, spec.options);
  };
  const ExperimentResult a = run(solo);
  const ExperimentResult b = run(file);
  EXPECT_NE(a.best_config.describe(), b.best_config.describe());
  EXPECT_EQ(run_campaign(file, 1).best_rep_values, b.best_rep_values);
}

}  // namespace
}  // namespace stormtune::tuning
