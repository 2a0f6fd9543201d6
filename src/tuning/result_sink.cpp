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

void JsonlResultBackend::end_batch() { out_.flush(); }

namespace {

/// RFC 4180 field escaping: a field containing a comma, double quote, CR,
/// or LF is wrapped in double quotes with inner quotes doubled; every
/// other field passes through byte-for-byte. Campaign names and strategy
/// labels are caller-supplied free text, so rows stay parseable (one
/// record per line for LF-free fields, unambiguous quoting otherwise) no
/// matter what the caller names things.
std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\r\n") == std::string::npos) return field;
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

CsvResultBackend::CsvResultBackend(std::ostream& out) : out_(out) {
  out_ << "ticket,name,strategy,steps,best_step,best_throughput,"
          "rep_mean,rep_min,rep_max\n";
}

void CsvResultBackend::write(const CampaignOutcome& outcome) {
  const ExperimentResult& r = outcome.result;
  out_ << outcome.ticket << ',' << csv_escape(outcome.name) << ','
       << csv_escape(r.strategy) << ',' << r.trace.size() << ','
       << r.best_step << ',' << r.best_throughput << ','
       << r.best_rep_stats.mean << ',' << r.best_rep_stats.min << ','
       << r.best_rep_stats.max << '\n';
}

void CsvResultBackend::end_batch() { out_.flush(); }

ResultSink::ResultSink(std::unique_ptr<ResultSinkBackend> backend,
                       ResultSinkOptions options)
    : backend_(std::move(backend)), options_(options) {
  STORMTUNE_REQUIRE(backend_ != nullptr, "ResultSink: null backend");
  STORMTUNE_REQUIRE(options_.queue_capacity > 0,
                    "ResultSink: queue_capacity must be > 0");
  STORMTUNE_REQUIRE(options_.batch_max > 0,
                    "ResultSink: batch_max must be > 0");
  writer_ = std::thread([this] { writer_loop(); });
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
  std::unique_lock<std::mutex> lk(mutex_);
  STORMTUNE_REQUIRE(!closing_, "ResultSink: submit after close");
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
  space_cv_.wait(lk, [&] { return queue_.size() < options_.queue_capacity; });
  queue_.push_back(std::move(outcome));
  lk.unlock();
  data_cv_.notify_one();
}

void ResultSink::writer_loop() {
  std::vector<CampaignOutcome> batch;
  batch.reserve(options_.batch_max);
  while (true) {
    {
      std::unique_lock<std::mutex> lk(mutex_);
      data_cv_.wait(lk, [&] { return !queue_.empty() || closing_; });
      if (queue_.empty() && closing_) return;
      while (!queue_.empty() && batch.size() < options_.batch_max) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    space_cv_.notify_all();
    for (CampaignOutcome& outcome : batch) {
      pending_.emplace(outcome.ticket, std::move(outcome));
    }
    batch.clear();
    write_ready_records();
    backend_->end_batch();
  }
}

void ResultSink::write_ready_records() {
  // Emit the contiguous ticket prefix. pending_ is a std::map, so the
  // first entry is always the lowest outstanding ticket; anything beyond a
  // gap stays parked until the gap's campaign reports.
  std::size_t emitted = 0;
  while (!pending_.empty() && pending_.begin()->first == next_ticket_) {
    backend_->write(pending_.begin()->second);
    pending_.erase(pending_.begin());
    ++next_ticket_;
    ++emitted;
  }
  if (emitted > 0) {
    std::lock_guard<std::mutex> lk(mutex_);
    written_count_ += emitted;
  }
}

void ResultSink::close() {
  if (closed_) return;
  closed_ = true;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    closing_ = true;
  }
  data_cv_.notify_one();
  writer_.join();
  backend_->end_batch();
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
  return written_count_;
}

}  // namespace stormtune::tuning
