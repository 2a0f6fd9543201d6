#include "tuning/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"

namespace stormtune::tuning {
namespace {

sim::TopologyConfig demo_config() {
  sim::TopologyConfig c;
  c.parallelism_hints = {3, 7, 1};
  c.max_tasks = 120;
  c.batch_size = 4321;
  c.batch_parallelism = 9;
  c.worker_threads = 12;
  c.receiver_threads = 2;
  c.num_ackers = 17;
  return c;
}

ExperimentResult demo_result() {
  ExperimentResult r;
  r.strategy = "bo";
  for (std::size_t i = 1; i <= 5; ++i) {
    StepRecord s;
    s.step = i;
    s.throughput = 100.0 * static_cast<double>(i);
    r.trace.push_back(s);
  }
  r.best_config = demo_config();
  r.best_throughput = 500.0;
  r.best_step = 5;
  r.best_rep_values = {480.0, 510.0, 495.0};
  r.best_rep_stats = summarize(r.best_rep_values);
  return r;
}

TEST(Report, ConfigJsonRoundTrip) {
  const sim::TopologyConfig c = demo_config();
  const sim::TopologyConfig back = config_from_json(config_to_json(c));
  EXPECT_EQ(back.parallelism_hints, c.parallelism_hints);
  EXPECT_EQ(back.max_tasks, c.max_tasks);
  EXPECT_EQ(back.batch_size, c.batch_size);
  EXPECT_EQ(back.batch_parallelism, c.batch_parallelism);
  EXPECT_EQ(back.worker_threads, c.worker_threads);
  EXPECT_EQ(back.receiver_threads, c.receiver_threads);
  EXPECT_EQ(back.num_ackers, c.num_ackers);
}

TEST(Report, ConfigJsonRoundTripThroughText) {
  const Json j = config_to_json(demo_config());
  const sim::TopologyConfig back =
      config_from_json(Json::parse(j.dump(2)));
  EXPECT_EQ(back.parallelism_hints, demo_config().parallelism_hints);
}

TEST(Report, ExperimentJsonRoundTrip) {
  const ExperimentResult r = demo_result();
  const ExperimentResult back =
      experiment_from_json(Json::parse(experiment_to_json(r).dump()));
  EXPECT_EQ(back.strategy, "bo");
  ASSERT_EQ(back.trace.size(), 5u);
  EXPECT_EQ(back.trace[2].step, 3u);
  EXPECT_DOUBLE_EQ(back.trace[2].throughput, 300.0);
  EXPECT_DOUBLE_EQ(back.best_throughput, 500.0);
  EXPECT_EQ(back.best_step, 5u);
  ASSERT_EQ(back.best_rep_values.size(), 3u);
  EXPECT_DOUBLE_EQ(back.best_rep_stats.mean, r.best_rep_stats.mean);
  EXPECT_EQ(back.best_config.batch_size, 4321);
}

TEST(Report, ExperimentFromJsonIgnoresLegacySuggestTimings) {
  // A record from when results still carried wall-clock suggest timings:
  // it loads, and the three timing keys are dropped.
  const ExperimentResult back = experiment_from_json(Json::parse(R"({
    "strategy": "bo",
    "trace": [{"step": 1, "throughput": 100, "suggest_seconds": 0.01},
              {"step": 2, "throughput": 250, "suggest_seconds": 0.02}],
    "best_config": {"parallelism_hints": [3, 7, 1], "max_tasks": 120,
                    "batch_size": 4321, "batch_parallelism": 9,
                    "worker_threads": 12, "receiver_threads": 2,
                    "num_ackers": 17},
    "best_throughput": 250,
    "best_step": 2,
    "best_rep_values": [240, 260],
    "mean_suggest_seconds": 0.015,
    "max_suggest_seconds": 0.02
  })"));
  ASSERT_EQ(back.trace.size(), 2u);
  EXPECT_EQ(back.trace[1].step, 2u);
  EXPECT_DOUBLE_EQ(back.trace[1].throughput, 250.0);
  EXPECT_EQ(back.best_step, 2u);
  EXPECT_DOUBLE_EQ(back.best_rep_stats.mean, 250.0);
  EXPECT_EQ(back.best_config.parallelism_hints, demo_config().parallelism_hints);
  EXPECT_EQ(experiment_to_json(back).dump().find("suggest"),
            std::string::npos);
}

TEST(Report, TraceCsvHasOneRowPerStep) {
  const std::string csv = trace_to_csv(demo_result());
  // Header + 5 rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 6);
  EXPECT_NE(csv.find("strategy,step,throughput"), std::string::npos);
  EXPECT_NE(csv.find("bo,5,"), std::string::npos);
}

TEST(Report, TraceCsvBestSoFarIsMonotone) {
  ExperimentResult r = demo_result();
  r.trace[3].throughput = 50.0;  // dip
  const std::string csv = trace_to_csv(r);
  // Row for step 4 keeps best_so_far at 300 (the max of steps 1-3... step 3
  // gave 300); the final column of the step-4 row must be 300, not 50.
  EXPECT_NE(csv.find("bo,4,50.0000,"), std::string::npos);
  EXPECT_NE(csv.find(",300.0000\n"), std::string::npos);
}

TEST(Report, SummaryCsvOneRowPerExperiment) {
  const std::vector<ExperimentResult> rs{demo_result(), demo_result()};
  const std::string csv = summary_to_csv(rs);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
  EXPECT_NE(csv.find("strategy,mean,min,max"), std::string::npos);
}

TEST(Report, FromJsonRejectsMissingFields) {
  Json j;
  j["strategy"] = "bo";
  EXPECT_THROW(experiment_from_json(j), Error);
}

}  // namespace
}  // namespace stormtune::tuning
