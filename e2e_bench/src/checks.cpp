#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "common/error.hpp"
#include "tuning/report.hpp"

namespace e2e {

namespace {

class Fnv1a {
 public:
  void add(const std::string& s) {
    for (const unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
    h_ ^= 0xff;  // field separator
    h_ *= 0x100000001b3ULL;
  }
  void add(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%a", v);
    add(std::string(buf));
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

std::vector<std::string> check_campaign(const CampaignContext& c,
                                        const tuning::ExperimentResult& r) {
  std::vector<std::string> failures;
  const auto fail = [&](const std::string& what) {
    failures.push_back(c.key + ": " + what);
  };
  if (r.trace.empty() || r.trace.size() > c.tmpl.steps) {
    fail("trace has " + std::to_string(r.trace.size()) + " steps, budget " +
         std::to_string(c.tmpl.steps));
  }
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    const double v = r.trace[i].throughput;
    if (r.trace[i].step != i + 1 || !std::isfinite(v) || v < 0.0) {
      fail("bad trace record at step " + std::to_string(i + 1));
      break;
    }
  }
  // The protocol repeats the best configuration only when some step
  // measured a positive throughput.
  const std::size_t reps = r.best_step > 0 ? c.tmpl.reps : 0;
  if (r.best_rep_values.size() != reps) {
    fail(std::to_string(r.best_rep_values.size()) + " rep values, expected " +
         std::to_string(reps));
  }
  for (const double v : r.best_rep_values) {
    if (!std::isfinite(v) || v < 0.0) {
      fail("rep value " + std::to_string(v) + " is not a finite throughput");
      break;
    }
  }
  try {
    r.best_config.validate(c.topology);
  } catch (const Error& e) {
    fail(std::string("best_config does not validate: ") + e.what());
  }
  return failures;
}

std::string result_digest(const tuning::ExperimentResult& r) {
  Fnv1a h;
  for (const tuning::StepRecord& s : r.trace) h.add(s.throughput);
  h.add(std::to_string(r.best_step));
  h.add(tuning::config_to_json(r.best_config).dump());
  for (const double v : r.best_rep_values) h.add(v);
  return h.hex();
}

Golden Golden::load(const std::string& path) {
  Golden g;
  std::ifstream in(path);
  if (!in.good()) return g;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  g.doc_ = Json::parse(text);
  STORMTUNE_REQUIRE(g.doc_.is_object(), "golden file is not a JSON object");
  return g;
}

const std::string* Golden::find(const std::string& isa, std::uint64_t seed,
                                const std::string& key) const {
  const std::string s = std::to_string(seed);
  if (!doc_.contains(isa)) return nullptr;
  const Json& by_seed = doc_.at(isa);
  if (!by_seed.contains(s)) return nullptr;
  const Json& by_key = by_seed.at(s);
  if (!by_key.contains(key)) return nullptr;
  return &by_key.at(key).as_string();
}

void Golden::pin(const std::string& isa, std::uint64_t seed,
                 const std::string& key, const std::string& digest) {
  doc_[isa][std::to_string(seed)][key] = digest;
}

void Golden::save(const std::string& path) const {
  std::ofstream out(path);
  out << doc_.dump(2) << '\n';
  STORMTUNE_REQUIRE(out.good(), "cannot write golden file '" + path + "'");
}

}  // namespace e2e
