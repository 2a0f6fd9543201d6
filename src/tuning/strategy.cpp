#include "tuning/strategy.hpp"

#include <utility>

#include "common/error.hpp"

namespace stormtune::tuning {

namespace {

std::unique_ptr<Tuner> build_pla(const sim::Topology& topology,
                                 TunerSpec spec) {
  return std::make_unique<PlaTuner>(topology, std::move(spec.defaults),
                                    spec.space.informed);
}

std::unique_ptr<Tuner> build_random(const sim::Topology& topology,
                                    TunerSpec spec) {
  return std::make_unique<RandomTuner>(
      ConfigSpace(topology, spec.space, std::move(spec.defaults)), spec.seed);
}

std::unique_ptr<Tuner> build_bayes(const sim::Topology& topology,
                                   TunerSpec spec) {
  spec.bo.seed = spec.seed;
  return std::make_unique<BayesTuner>(
      ConfigSpace(topology, spec.space, std::move(spec.defaults)),
      std::move(spec.bo), std::move(spec.name));
}

constexpr Strategy kStrategies[] = {
    {"pla", false, false, build_pla},
    {"ipla", true, false, build_pla},
    {"random", false, false, build_random},
    {"bo", false, true, build_bayes},
    {"ibo", true, true, build_bayes},
};

}  // namespace

const Strategy* find_strategy(std::string_view name) {
  for (const Strategy& s : kStrategies) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string strategy_names() {
  std::string out;
  for (const Strategy& s : kStrategies) {
    if (!out.empty()) out += '|';
    out += s.name;
  }
  return out;
}

std::unique_ptr<Tuner> make_tuner(std::string_view strategy,
                                  const sim::Topology& topology,
                                  TunerSpec spec) {
  const Strategy* s = find_strategy(strategy);
  STORMTUNE_REQUIRE(s != nullptr, "unknown strategy '" + std::string(strategy) +
                                      "' (expected " + strategy_names() + ")");
  spec.space.informed = s->informed;
  if (spec.name.empty()) spec.name = s->name;
  return s->build(topology, std::move(spec));
}

}  // namespace stormtune::tuning
