// Tests for the async buffered result pipeline (tuning/result_sink.hpp).
//
// The contract under test: output bytes are a pure function of the
// submitted records — the writer emits strict ticket order no matter the
// submission order, producer count, queue capacity, or batch size. Plus
// the corruption-detection side: checked builds reject duplicate and
// out-of-range tickets at submit(), and close() turns a ticket gap into a
// hard error in every build.
#include "tuning/result_sink.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/error.hpp"

namespace stormtune::tuning {
namespace {

/// A small but fully-populated result whose every field is a deterministic
/// function of `i`, so byte-level output comparisons are meaningful.
ExperimentResult make_result(std::size_t i) {
  ExperimentResult r;
  r.strategy = "random";
  r.trace.push_back({1, 100.0 + static_cast<double>(i)});
  r.trace.push_back({2, 150.0 + static_cast<double>(i)});
  r.best_throughput = 150.0 + static_cast<double>(i);
  r.best_step = 2;
  r.best_rep_values = {140.0 + i, 160.0 + i};
  r.best_rep_stats.n = 2;
  r.best_rep_stats.mean = 150.0 + static_cast<double>(i);
  r.best_rep_stats.min = 140.0 + static_cast<double>(i);
  r.best_rep_stats.max = 160.0 + static_cast<double>(i);
  return r;
}

CampaignOutcome make_outcome(std::size_t ticket) {
  return {ticket, "campaign-" + std::to_string(ticket), make_result(ticket)};
}

std::string jsonl_of_serial_submission(std::size_t n) {
  std::ostringstream out;
  ResultSink sink(std::make_unique<JsonlResultBackend>(out));
  for (std::size_t i = 0; i < n; ++i) sink.submit(make_outcome(i));
  sink.close();
  return out.str();
}

TEST(ResultSink, ReordersOutOfOrderTicketsIntoSubmissionOrder) {
  std::ostringstream out;
  {
    ResultSink sink(std::make_unique<JsonlResultBackend>(out));
    sink.submit(make_outcome(2));
    sink.submit(make_outcome(0));
    sink.submit(make_outcome(1));
    sink.close();
    EXPECT_EQ(sink.written(), 3u);
  }
  EXPECT_EQ(out.str(), jsonl_of_serial_submission(3));
  // And the lines really are in ticket order.
  std::istringstream lines(out.str());
  std::string line;
  std::size_t expect = 0;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.find("\"ticket\":" + std::to_string(expect)),
              std::string::npos)
        << line;
    ++expect;
  }
  EXPECT_EQ(expect, 3u);
}

TEST(ResultSink, BytesIndependentOfQueueShapeAndProducerCount) {
  const std::string reference = jsonl_of_serial_submission(32);
  // Tiny queue + tiny batches + concurrent producers submitting shuffled
  // disjoint ranges: backpressure and reordering both engage, and the
  // bytes must not change.
  std::ostringstream out;
  ResultSinkOptions opts;
  opts.queue_capacity = 1;
  opts.batch_max = 2;
  opts.expected_records = 32;
  {
    ResultSink sink(std::make_unique<JsonlResultBackend>(out), opts);
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < 4; ++p) {
      producers.emplace_back([&sink, p] {
        // Producer p owns tickets {p, p+4, p+8, ...}, submitted high-first
        // so early arrivals always land in the reorder buffer.
        for (std::size_t k = 8; k-- > 0;) sink.submit(make_outcome(p + 4 * k));
      });
    }
    for (auto& t : producers) t.join();
    sink.close();
    EXPECT_EQ(sink.written(), 32u);
  }
  EXPECT_EQ(out.str(), reference);
}

TEST(ResultSink, CsvBackendWritesHeaderAndOneRowPerCampaign) {
  std::ostringstream out;
  {
    ResultSink sink(std::make_unique<CsvResultBackend>(out));
    sink.submit(make_outcome(1));
    sink.submit(make_outcome(0));
    sink.close();
  }
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line,
            "ticket,name,strategy,steps,best_step,best_throughput,"
            "rep_mean,rep_min,rep_max");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("0,campaign-0,random,2,2,", 0), 0u) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("1,campaign-1,random,2,2,", 0), 0u) << line;
  EXPECT_FALSE(std::getline(lines, line));
}

TEST(ResultSink, CsvBackendEscapesRfc4180SpecialsByteExactly) {
  // Names and strategy labels are caller-supplied free text; fields
  // containing a comma, quote, CR, or LF must be quoted with inner quotes
  // doubled, and everything else must pass through untouched. Golden
  // byte-identity, not substring checks: quoting is load-bearing for any
  // downstream CSV reader.
  std::ostringstream out;
  {
    ResultSink sink(std::make_unique<CsvResultBackend>(out));
    CampaignOutcome comma{0, "shuffle, 8x grouping", make_result(0)};
    comma.result.strategy = "bo,ei";
    CampaignOutcome quote{1, "the \"fast\" config", make_result(1)};
    quote.result.strategy = "a\"b";
    CampaignOutcome newline{2, "line one\nline two", make_result(2)};
    newline.result.strategy = "cr\rhere";
    CampaignOutcome plain{3, "plain-name", make_result(3)};
    sink.submit(comma);
    sink.submit(quote);
    sink.submit(newline);
    sink.submit(plain);
    sink.close();
  }
  EXPECT_EQ(out.str(),
            "ticket,name,strategy,steps,best_step,best_throughput,"
            "rep_mean,rep_min,rep_max\n"
            "0,\"shuffle, 8x grouping\",\"bo,ei\",2,2,150,150,140,160\n"
            "1,\"the \"\"fast\"\" config\",\"a\"\"b\",2,2,151,151,141,161\n"
            "2,\"line one\nline two\",\"cr\rhere\",2,2,152,152,142,162\n"
            "3,plain-name,random,2,2,153,153,143,163\n");
}

TEST(ResultSink, CsvEscapingIsByteStableAcrossQueueShapes) {
  // The escaped bytes must be a pure function of the submitted records —
  // same golden output whatever the queue capacity and batch size.
  auto render = [](std::size_t queue_capacity, std::size_t batch_max) {
    std::ostringstream out;
    ResultSinkOptions options;
    options.queue_capacity = queue_capacity;
    options.batch_max = batch_max;
    ResultSink sink(std::make_unique<CsvResultBackend>(out), options);
    for (std::size_t i = 0; i < 6; ++i) {
      CampaignOutcome o{i, "c-" + std::to_string(i) + ",\"x\"",
                        make_result(i)};
      sink.submit(std::move(o));
    }
    sink.close();
    return out.str();
  };
  const std::string golden = render(256, 64);
  EXPECT_NE(golden.find(",\"c-0,\"\"x\"\"\",random,"), std::string::npos)
      << golden;
  EXPECT_EQ(render(1, 1), golden);
  EXPECT_EQ(render(2, 3), golden);
}

TEST(ResultSink, CloseIsIdempotentAndRejectsLateSubmissions) {
  std::ostringstream out;
  ResultSink sink(std::make_unique<JsonlResultBackend>(out));
  sink.submit(make_outcome(0));
  sink.close();
  EXPECT_NO_THROW(sink.close());
  EXPECT_EQ(sink.written(), 1u);
  EXPECT_THROW(sink.submit(make_outcome(1)), Error);
}

TEST(ResultSink, CloseWithTicketGapThrowsButDestructsSafely) {
  // Ticket 1 never arrives: ticket 2 is stuck in the reorder buffer, which
  // close() must surface as an error (a campaign never reported) — in
  // release builds too. The destructor must then not rethrow.
  std::ostringstream out;
  {
    ResultSink sink(std::make_unique<JsonlResultBackend>(out),
                    {.queue_capacity = 8, .batch_max = 8,
                     .expected_records = 3});
    sink.submit(make_outcome(0));
    sink.submit(make_outcome(2));
    EXPECT_THROW(sink.close(), Error);
  }  // implicit destruction after a failed close(): must be a no-op
}

TEST(ResultSink, CheckedBuildRejectsDuplicateTicket) {
#ifdef STORMTUNE_CHECKED
  std::ostringstream out;
  ResultSink sink(std::make_unique<JsonlResultBackend>(out),
                  {.queue_capacity = 8, .batch_max = 8,
                   .expected_records = 4});
  sink.submit(make_outcome(1));
  EXPECT_THROW(sink.submit(make_outcome(1)), InvariantError);
#else
  GTEST_SKIP() << "requires STORMTUNE_CHECKED=ON";
#endif
}

TEST(ResultSink, CheckedBuildRejectsTicketBeyondDeclaredCount) {
#ifdef STORMTUNE_CHECKED
  std::ostringstream out;
  ResultSink sink(std::make_unique<JsonlResultBackend>(out),
                  {.queue_capacity = 8, .batch_max = 8,
                   .expected_records = 2});
  sink.submit(make_outcome(0));
  EXPECT_THROW(sink.submit(make_outcome(2)), InvariantError);
#else
  GTEST_SKIP() << "requires STORMTUNE_CHECKED=ON";
#endif
}

TEST(ResultSink, ReleaseAndCheckedAgreeOnHappyPath) {
  // Whatever the build flavor, a complete in-range submission set must
  // produce identical output — the checks are pure detectors, never
  // behavior.
  std::ostringstream out;
  {
    ResultSink sink(std::make_unique<JsonlResultBackend>(out),
                    {.queue_capacity = 4, .batch_max = 4,
                     .expected_records = 5});
    for (std::size_t i = 5; i-- > 0;) sink.submit(make_outcome(i));
    sink.close();
    EXPECT_EQ(sink.written(), 5u);
  }
  EXPECT_EQ(out.str(), jsonl_of_serial_submission(5));
}

}  // namespace
}  // namespace stormtune::tuning
