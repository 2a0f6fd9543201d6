// Tests for the ticket-ordered result sink (tuning/result_sink.hpp).
//
// The contract under test: output bytes are a pure function of the
// submitted records — the sink emits strict ticket order no matter the
// submission order or producer count, and a record is in the stream as
// soon as the ticket prefix before it is complete. Plus the
// corruption-detection side: checked builds reject duplicate and
// out-of-range tickets at submit(), and close() turns a ticket gap into a
// hard error in every build.
#include "tuning/result_sink.hpp"

#include <gtest/gtest.h>

#include <limits>
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

TEST(ResultSink, WritesEachTicketPrefixBeforeClose) {
  std::ostringstream out;
  ResultSink sink(std::make_unique<JsonlResultBackend>(out),
                  {.expected_records = 2});
  sink.submit(make_outcome(1));
  EXPECT_EQ(out.str(), "");  // ticket 1 waits for ticket 0
  EXPECT_EQ(sink.written(), 0u);
  sink.submit(make_outcome(0));
  EXPECT_EQ(out.str(), jsonl_of_serial_submission(2));
  EXPECT_EQ(sink.written(), 2u);
  sink.close();
}

TEST(ResultSink, BytesIndependentOfProducerCount) {
  const std::string reference = jsonl_of_serial_submission(32);
  // Concurrent producers submitting shuffled disjoint ranges: reordering
  // engages, and the bytes must not change.
  std::ostringstream out;
  {
    ResultSink sink(std::make_unique<JsonlResultBackend>(out),
                    {.expected_records = 32});
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

TEST(ResultSink, FormattingErrorReachesTheSubmitter) {
  // A record that cannot be serialized throws on the submitting thread and
  // stays unwritten, so close() reports the gap it leaves.
  std::ostringstream out;
  {
    ResultSink sink(std::make_unique<JsonlResultBackend>(out));
    sink.submit(make_outcome(0));
    CampaignOutcome bad = make_outcome(1);
    bad.result.best_throughput = std::numeric_limits<double>::infinity();
    EXPECT_THROW(sink.submit(std::move(bad)), Error);
    EXPECT_EQ(sink.written(), 1u);
    EXPECT_THROW(sink.close(), Error);
  }
  EXPECT_EQ(out.str(), jsonl_of_serial_submission(1));
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
                    {.expected_records = 3});
    sink.submit(make_outcome(0));
    sink.submit(make_outcome(2));
    EXPECT_THROW(sink.close(), Error);
  }  // implicit destruction after a failed close(): must be a no-op
}

TEST(ResultSink, CheckedBuildRejectsDuplicateTicket) {
#ifdef STORMTUNE_CHECKED
  std::ostringstream out;
  ResultSink sink(std::make_unique<JsonlResultBackend>(out),
                  {.expected_records = 4});
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
                  {.expected_records = 2});
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
                    {.expected_records = 5});
    for (std::size_t i = 5; i-- > 0;) sink.submit(make_outcome(i));
    sink.close();
    EXPECT_EQ(sink.written(), 5u);
  }
  EXPECT_EQ(out.str(), jsonl_of_serial_submission(5));
}

}  // namespace
}  // namespace stormtune::tuning
