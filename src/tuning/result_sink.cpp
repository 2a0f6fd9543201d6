#include "tuning/result_sink.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/error.hpp"
#include "tuning/report.hpp"

namespace stormtune::tuning {

void JsonlResultBackend::write(const CampaignOutcome& outcome) {
  JsonObject o;
  o["ticket"] = outcome.ticket;
  o["name"] = outcome.name;
  o["result"] = experiment_to_json(outcome.result);
  out_ << Json(std::move(o)).dump() << '\n';
}

void JsonlResultBackend::flush() { out_.flush(); }

ResultSink::ResultSink(std::unique_ptr<JsonlResultBackend> backend,
                       ResultSinkOptions options)
    : backend_(std::move(backend)), options_(options) {
  STORMTUNE_REQUIRE(backend_ != nullptr, "ResultSink: null backend");
}

ResultSink::~ResultSink() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; callers who care about missing-ticket
    // errors call close() explicitly.
  }
}

void ResultSink::submit(CampaignOutcome outcome) {
  std::lock_guard<std::mutex> lk(mutex_);
  STORMTUNE_REQUIRE(!closed_, "ResultSink: submit after close");
  if constexpr (kCheckedBuild) {
    STORMTUNE_INVARIANT(
        options_.expected_records == 0 ||
            outcome.ticket < options_.expected_records,
        "ResultSink: ticket beyond declared record count (overflow)");
    if (outcome.ticket >= seen_tickets_.size()) {
      seen_tickets_.resize(outcome.ticket + 1, false);
    }
    STORMTUNE_INVARIANT(!seen_tickets_[outcome.ticket],
                        "ResultSink: duplicate campaign ticket");
    seen_tickets_[outcome.ticket] = true;
  }
  pending_.emplace(outcome.ticket, std::move(outcome));
  write_ready_records();
}

void ResultSink::write_ready_records() {
  // Emit the contiguous ticket prefix. pending_ is a std::map, so the
  // first entry is always the lowest outstanding ticket; anything beyond a
  // gap stays parked until the gap's campaign reports. A record leaves the
  // buffer only once written, so a write that throws leaves a gap that
  // close() reports.
  const std::size_t first = next_ticket_;
  while (!pending_.empty() && pending_.begin()->first == next_ticket_) {
    backend_->write(pending_.begin()->second);
    pending_.erase(pending_.begin());
    ++next_ticket_;
  }
  if (next_ticket_ != first) backend_->flush();
}

void ResultSink::close() {
  std::lock_guard<std::mutex> lk(mutex_);
  if (closed_) return;
  closed_ = true;
  STORMTUNE_REQUIRE(pending_.empty(),
                    "ResultSink: closed with unwritable records — a ticket "
                    "in the submitted range never arrived");
  STORMTUNE_REQUIRE(
      options_.expected_records == 0 ||
          next_ticket_ == options_.expected_records,
      "ResultSink: closed before all declared records were submitted");
}

std::size_t ResultSink::written() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return next_ticket_;
}

}  // namespace stormtune::tuning
