// The strategy table: one name -> tuner factory for every tuning strategy
// (pla, ipla, random, bo, ibo). `stormtune tune`/`tune-many` and the
// paper reproduction (bench_repro) build their tuners through it, so a new
// strategy is one row here. Each caller keeps its own search space and
// optimizer settings; a row decides only the tuner kind and whether it is
// the informed variant.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "bayesopt/bayesopt.hpp"
#include "stormsim/config.hpp"
#include "stormsim/topology.hpp"
#include "tuning/config_space.hpp"
#include "tuning/tuner.hpp"

namespace stormtune::tuning {

/// What a strategy builds one tuner from.
struct TunerSpec {
  sim::TopologyConfig defaults;  ///< every un-tuned field
  /// The space random, bo and ibo search; its `informed` is the row's.
  SpaceOptions space;
  bo::BayesOptOptions bo;  ///< bo and ibo; `bo.seed` becomes `seed`
  std::uint64_t seed = 0;  ///< the tuner's random stream
  std::string name;        ///< a bo/ibo tuner's label; empty = the row's name
};

/// One row of the table.
struct Strategy {
  std::string_view name;
  bool informed;  ///< tunes one multiplier over the base weights (ipla, ibo)
  bool bayesian;  ///< a BO tuner, so the fidelity ladder can drive it
  /// Builds the tuner once make_tuner has applied the row to `spec`.
  std::unique_ptr<Tuner> (*build)(const sim::Topology& topology,
                                  TunerSpec spec);
};

/// The row named `name`, or nullptr.
const Strategy* find_strategy(std::string_view name);

/// The table's names joined by '|', for messages.
std::string strategy_names();

/// A fresh tuner of `strategy`; an unknown name throws Error naming it.
std::unique_ptr<Tuner> make_tuner(std::string_view strategy,
                                  const sim::Topology& topology,
                                  TunerSpec spec);

}  // namespace stormtune::tuning
