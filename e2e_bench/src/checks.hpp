// Correctness checks on every campaign result, and the golden digests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaigns.hpp"
#include "common/json.hpp"
#include "tuning/experiment.hpp"

namespace e2e {

/// Invariants of one campaign's winning pass: finite, non-negative rep
/// values, the requested rep count (none when no step measured a positive
/// throughput), a best_config that validates against the topology, and a
/// trace within the step budget. Returns the failures (empty when the
/// result is sound).
std::vector<std::string> check_campaign(const CampaignContext& c,
                                        const tuning::ExperimentResult& r);

/// FNV-1a over the result's hexfloat trace throughputs, best_step,
/// best_config and rep values (never the wall-clock suggest_seconds), as 16
/// hex digits.
std::string result_digest(const tuning::ExperimentResult& r);

/// Golden digests: ISA path → seed → campaign key → digest.
class Golden {
 public:
  /// Empty when `path` does not exist.
  static Golden load(const std::string& path);
  /// nullptr when no digest is pinned for this (isa, seed, key).
  const std::string* find(const std::string& isa, std::uint64_t seed,
                          const std::string& key) const;
  void pin(const std::string& isa, std::uint64_t seed, const std::string& key,
           const std::string& digest);
  void save(const std::string& path) const;

 private:
  Json doc_ = Json(JsonObject{});
};

}  // namespace e2e
