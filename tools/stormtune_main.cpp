// stormtune — command-line driver for the library.
//
//   stormtune list
//   stormtune info <topology>
//   stormtune dot <topology>
//   stormtune simulate <topology> [options]
//   stormtune tune <topology> [options]
//   stormtune tune-many --campaigns=FILE [options]
//
// Topologies: small | medium | large (the paper's synthetic benchmarks,
// with --tiim / --contention modifiers), sundog, linear_road,
// dissemination, linear_road_compact, debs13.
//
// simulate options: --hint=N --bs=N --bp=N --wt=N --rt=N --ackers=N
//                   --max-tasks=N --duration=S --seed=N
//                   --adaptive-window[=EPS]
// tune options:     the simulate options, and
//                   --strategy=pla|ipla|bo|ibo|random --steps=N --reps=N
//                   --what=h|h,batch|h,batch,cc|batch,cc (blocks, each
//                   at most once) --json=FILE --csv=FILE
//                   --fidelity=full|ladder (ladder: bo/ibo only)
//                   --gp-window=N (0 = unbounded)
//                   --ladder-rung1-epsilon=E --ladder-challenge-fraction=F
//                   --ladder-promote-top-k=K (LadderOptions: 0.1, 0.9, 2)
// tune-many options: the tune options but --json/--csv, and
//                   --campaigns=FILE  a JSON array (or {"campaigns":[...]})
//                   of campaign entries, each a tuning::CampaignDesc whose
//                   defaults are the flags; --passes=N  default passes;
//                   --threads=N  scheduler width (0 = auto);
//                   --jsonl=FILE  one result line per campaign, in
//                   submission order.
//
// README.md explains each option. A tune campaign runs on one thread, one
// pass seeded with --seed itself (tuning::solo_seeds); tune-many seeds pass
// p by tuning::pass_seeds, and its results do not depend on --threads.
// Each subcommand accepts only the options listed for it above (info and
// dot: --tiim and --contention); any other option, a malformed numeric
// value (--steps=abc, --hint=x), or a tune value CampaignDesc::check
// refuses is a usage error (exit 2) that names it. In tune-many a refused
// campaign entry is an error (exit 1) naming the campaign and the field,
// before any campaign is scheduled.
// The kernel dispatch path comes from the STORMTUNE_ISA environment
// variable (portable|avx2|avx512|auto; default auto-detect).
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "common/error.hpp"
#include "common/isa.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "stormsim/dot.hpp"
#include "stormsim/engine.hpp"
#include "stormsim/fluid.hpp"
#include "tuning/campaign.hpp"
#include "tuning/campaign_scheduler.hpp"
#include "tuning/report.hpp"
#include "tuning/result_sink.hpp"

namespace {

using namespace stormtune;

/// The command line: a campaign description (the defaults of every
/// tune-many entry) plus the options only the CLI reads.
struct Options {
  tuning::CampaignDesc desc;
  std::string json_path;
  std::string csv_path;
  std::optional<std::size_t> threads;  // tune-many: scheduler workers
                                       // (0 or unset = auto)
  std::string campaigns_path;          // tune-many: campaign list (JSON)
  std::string jsonl_path;              // tune-many: result-sink output
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: stormtune <list|info|dot|simulate|tune|tune-many> [topology] "
      "[options]\n"
      "topologies: small medium large sundog linear_road dissemination\n"
      "            linear_road_compact debs13\n"
      "tune: --strategy=pla|ipla|bo|ibo|random --steps=N --reps=N --what=...\n"
      "      --seed=N --json=FILE --csv=FILE\n"
      "      --adaptive-window[=EPS]  stop each simulation once throughput\n"
      "      converges (relative CI half-width < EPS, default 0.05)\n"
      "      --fidelity=full|ladder  ladder = fluid screening, adaptive\n"
      "      promotion, full runs only for incumbent challenges (bo/ibo)\n"
      "      --gp-window=N  sliding GP window (0 = unbounded)\n"
      "      --ladder-rung1-epsilon=E --ladder-challenge-fraction=F\n"
      "      --ladder-promote-top-k=K  fidelity-ladder knobs\n"
      "tune-many: --campaigns=FILE --threads=N --passes=N --jsonl=FILE\n"
      "      run every campaign in FILE over one work-stealing scheduler;\n"
      "      per-campaign results are bit-identical to solo runs for any\n"
      "      thread count (tune options above supply the defaults)\n"
      "see the header of tools/stormtune_main.cpp for all options\n");
  std::exit(2);
}

/// Prints `why` and the usage text, and exits 2.
[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr, "%s\n", why.c_str());
  usage();
}

const char* value_of(const char* arg, const char* key) {
  const std::size_t n = std::strlen(key);
  if (std::strncmp(arg, key, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

/// The value of a numeric `--flag=value` argument `arg`; a malformed,
/// partial, negative (for unsigned T) or out-of-range value is a usage
/// error that names the argument.
template <typename T>
T number(const char* arg, const char* v) {
  T out{};
  const char* end = v + std::strlen(v);
  const auto [ptr, ec] = std::from_chars(v, end, out);
  if (ec != std::errc() || ptr != end) {
    usage_error(std::string(arg) + ": expected a number");
  }
  return out;
}

/// The subcommands, as bits of a flag's accepted set.
enum Command : unsigned {
  kList = 1u << 0,
  kInfo = 1u << 1,
  kDot = 1u << 2,
  kSimulate = 1u << 3,
  kTune = 1u << 4,
  kTuneMany = 1u << 5,
};

struct CommandName {
  const char* name;
  Command command;
};

constexpr CommandName kCommands[] = {
    {"list", kList},         {"info", kInfo}, {"dot", kDot},
    {"simulate", kSimulate}, {"tune", kTune}, {"tune-many", kTuneMany},
};

/// Which subcommands read each flag: a flag another subcommand would
/// silently ignore is a usage error there instead. The topology modifiers
/// shape every workload; the deployment and simulation flags feed every
/// run (as campaign defaults in tune-many); the search flags feed both
/// tuning commands.
struct FlagUse {
  const char* name;  ///< the flag up to its '='
  unsigned commands;
  const char* note;  ///< appended to the usage error, or nullptr
};

constexpr unsigned kWorkloads = kInfo | kDot | kSimulate | kTune | kTuneMany;
constexpr unsigned kRuns = kSimulate | kTune | kTuneMany;
constexpr unsigned kTuning = kTune | kTuneMany;

constexpr FlagUse kFlagUses[] = {
    {"--tiim", kWorkloads, nullptr},
    {"--contention", kWorkloads, nullptr},
    {"--hint", kRuns, nullptr},
    {"--bs", kRuns, nullptr},
    {"--bp", kRuns, nullptr},
    {"--wt", kRuns, nullptr},
    {"--rt", kRuns, nullptr},
    {"--ackers", kRuns, nullptr},
    {"--max-tasks", kRuns, nullptr},
    {"--duration", kRuns, nullptr},
    {"--seed", kRuns, nullptr},
    {"--adaptive-window", kRuns, nullptr},
    {"--strategy", kTuning, nullptr},
    {"--steps", kTuning, nullptr},
    {"--reps", kTuning, nullptr},
    {"--what", kTuning, nullptr},
    {"--fidelity", kTuning, nullptr},
    {"--gp-window", kTuning, nullptr},
    {"--ladder-rung1-epsilon", kTuning, nullptr},
    {"--ladder-challenge-fraction", kTuning, nullptr},
    {"--ladder-promote-top-k", kTuning, nullptr},
    {"--json", kTune, nullptr},
    {"--csv", kTune, nullptr},
    {"--threads", kTuneMany,
     "it sizes tune-many's scheduler, and a tune campaign runs on one "
     "thread"},
    {"--passes", kTuneMany, nullptr},
    {"--campaigns", kTuneMany, nullptr},
    {"--jsonl", kTuneMany, nullptr},
};

/// A usage error unless `arg`'s flag is one `command` reads. Flags outside
/// the table fall through to parse's unknown-option error.
void require_accepted(const char* arg, const char* command_name,
                      Command command) {
  const std::size_t len = std::strcspn(arg, "=");
  for (const FlagUse& f : kFlagUses) {
    if (std::strlen(f.name) != len || std::strncmp(arg, f.name, len) != 0) {
      continue;
    }
    if ((f.commands & command) != 0) return;
    std::fprintf(stderr, "%s: not an option of '%s'%s%s\n", f.name,
                 command_name, f.note ? "; " : "", f.note ? f.note : "");
    usage();
  }
}

Options parse(int argc, char** argv, int first, const char* command_name,
              Command command) {
  Options o;
  tuning::CampaignDesc& d = o.desc;
  if (first < argc && argv[first][0] != '-') d.topology = argv[first++];
  for (int i = first; i < argc; ++i) {
    const char* a = argv[i];
    require_accepted(a, command_name, command);
    if (std::strcmp(a, "--tiim") == 0) d.tiim = true;
    else if (const char* v = value_of(a, "--contention")) d.contention = number<double>(a, v);
    else if (const char* v = value_of(a, "--hint")) d.hint = number<int>(a, v);
    else if (const char* v = value_of(a, "--bs")) d.batch_size = number<int>(a, v);
    else if (const char* v = value_of(a, "--bp")) d.batch_parallelism = number<int>(a, v);
    else if (const char* v = value_of(a, "--wt")) d.worker_threads = number<int>(a, v);
    else if (const char* v = value_of(a, "--rt")) d.receiver_threads = number<int>(a, v);
    else if (const char* v = value_of(a, "--ackers")) d.ackers = number<int>(a, v);
    else if (const char* v = value_of(a, "--max-tasks")) d.max_tasks = number<int>(a, v);
    else if (const char* v = value_of(a, "--duration")) d.duration_s = number<double>(a, v);
    else if (const char* v = value_of(a, "--seed")) d.seed = number<std::uint64_t>(a, v);
    else if (const char* v = value_of(a, "--strategy")) d.strategy = v;
    else if (const char* v = value_of(a, "--steps")) d.steps = number<std::size_t>(a, v);
    else if (const char* v = value_of(a, "--reps")) d.reps = number<std::size_t>(a, v);
    else if (const char* v = value_of(a, "--what")) d.what = v;
    else if (const char* v = value_of(a, "--json")) o.json_path = v;
    else if (const char* v = value_of(a, "--csv")) o.csv_path = v;
    else if (const char* v = value_of(a, "--threads")) o.threads = number<std::size_t>(a, v);
    else if (const char* v = value_of(a, "--fidelity")) d.fidelity = v;
    else if (const char* v = value_of(a, "--gp-window")) d.gp_window = number<std::size_t>(a, v);
    else if (const char* v = value_of(a, "--ladder-rung1-epsilon")) d.ladder.rung1_epsilon = number<double>(a, v);
    else if (const char* v = value_of(a, "--ladder-challenge-fraction")) d.ladder.challenge_fraction = number<double>(a, v);
    else if (const char* v = value_of(a, "--ladder-promote-top-k")) d.ladder.promote_top_k = number<std::size_t>(a, v);
    else if (const char* v = value_of(a, "--passes")) d.passes = number<std::size_t>(a, v);
    else if (const char* v = value_of(a, "--campaigns")) o.campaigns_path = v;
    else if (const char* v = value_of(a, "--jsonl")) o.jsonl_path = v;
    else if (std::strcmp(a, "--adaptive-window") == 0) d.adaptive_window = true;
    else if (const char* v = value_of(a, "--adaptive-window")) {
      d.adaptive_window = true;
      d.adaptive_epsilon = number<double>(a, v);
    }
    else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) usage();
    else usage_error(std::string("unknown option '") + a + "'");
  }
  return o;
}

/// The workload `o` names; an unknown topology is a usage error.
tuning::Workload workload(const Options& o) {
  try {
    return tuning::load_workload(o.desc);
  } catch (const Error& e) {
    usage_error(e.what());
  }
}

int cmd_list() {
  for (const tuning::TopologyInfo& t : tuning::topologies()) {
    std::printf("%-20s %s\n", t.name, t.description);
  }
  return 0;
}

int cmd_info(const Options& o) {
  const tuning::Workload w = workload(o);
  const auto weights = w.topology.base_parallelism_weights();
  std::printf("%s: %zu nodes (%zu spouts), %zu streams\n",
              o.desc.topology.c_str(), w.topology.num_nodes(),
              w.topology.spouts().size(), w.topology.num_edges());
  std::printf("%-28s %6s %12s %6s %8s\n", "node", "kind", "units/tuple",
              "sel", "weight");
  for (std::size_t v = 0; v < w.topology.num_nodes(); ++v) {
    const sim::Node& n = w.topology.node(v);
    std::printf("%-28s %6s %12.4f %6.2f %8.1f%s\n", n.name.c_str(),
                n.kind == sim::NodeKind::kSpout ? "spout" : "bolt",
                n.time_complexity, n.selectivity, weights[v],
                n.contentious ? "  [contentious]" : "");
  }
  return 0;
}

int cmd_dot(const Options& o) {
  const tuning::Workload w = workload(o);
  std::printf("%s", sim::to_dot(w.topology).c_str());
  return 0;
}

int cmd_simulate(const Options& o) {
  std::printf("isa path:     %s\n", isa::to_string(isa::selected()));
  const tuning::Workload w = workload(o);
  const sim::TopologyConfig& config = w.defaults;
  const auto r = sim::simulate(w.topology, config, w.cluster, w.params,
                               o.desc.seed);
  const auto fluid = sim::fluid_estimate(w.topology, config, w.cluster,
                                         w.params);
  std::printf("config:       %s\n", config.describe().c_str());
  if (r.crashed) {
    std::printf("CRASHED: deployment exceeded the hard memory limit "
                "(zero performance)\n");
    return 1;
  }
  std::printf("throughput:   %.1f tuples/s (fluid bound %.1f)\n",
              r.throughput_tuples_per_s, fluid.throughput_tuples_per_s);
  std::printf("batches:      %zu committed / %zu emitted, latency %.0f ms\n",
              r.batches_committed, r.batches_emitted,
              r.mean_batch_latency_ms);
  std::printf("cluster:      cpu %.1f%%, network %.3f MB/s per worker "
              "(peak NIC %.1f%%), %zu tasks\n",
              r.cpu_utilization * 100.0,
              r.network_bytes_per_s_per_worker / (1024.0 * 1024.0),
              r.peak_nic_utilization * 100.0, r.total_tasks);
  const std::size_t b = r.bottleneck_node();
  if (b != static_cast<std::size_t>(-1)) {
    std::printf("bottleneck:   %s (mean stage %.1f ms over %zu tasks)\n",
                r.node_stats[b].name.c_str(), r.node_stats[b].mean_stage_ms,
                r.node_stats[b].tasks);
  }
  return 0;
}

int cmd_tune(const Options& o) {
  if (const std::string why = o.desc.check(); !why.empty()) usage_error(why);
  std::printf("isa path:     %s\n", isa::to_string(isa::selected()));
  // One pass, seeded with --seed itself (solo_seeds), run inline.
  const tuning::CampaignSpec spec =
      tuning::make_campaign(o.desc, o.desc.topology, tuning::solo_seeds);
  const std::unique_ptr<tuning::Tuner> tuner = spec.make_tuner(0);
  const std::unique_ptr<tuning::Objective> objective = spec.make_objective(0);

  std::printf("tuning %s with %s over {%s}, %zu steps...\n",
              o.desc.topology.c_str(), tuner->name().c_str(),
              o.desc.what.c_str(), o.desc.steps);
  const tuning::ExperimentResult r =
      tuning::run_experiment(*tuner, *objective, spec.options);
  if (const auto* lt = dynamic_cast<const tuning::LadderTuner*>(tuner.get())) {
    const tuning::LadderStats& ls = lt->ladder().stats();
    std::printf("ladder:       %zu screened, %zu rung-1 runs, %zu full runs "
                "(%.0f + %.0f simulated ms)\n",
                ls.screened, ls.rung1_evals, ls.rung2_evals,
                ls.rung1_simulated_ms, ls.rung2_simulated_ms);
  }

  std::printf("best:         %.1f tuples/s (mean of %zu reps; min %.1f, "
              "max %.1f)\n",
              r.best_rep_stats.mean, r.best_rep_stats.n, r.best_rep_stats.min,
              r.best_rep_stats.max);
  std::printf("found at:     step %zu of %zu\n", r.best_step,
              r.trace.size());
  std::printf("config:       %s\n", r.best_config.describe().c_str());

  if (!o.json_path.empty()) {
    std::ofstream out(o.json_path);
    out << tuning::experiment_to_json(r).dump(2);
    std::printf("wrote %s\n", o.json_path.c_str());
  }
  if (!o.csv_path.empty()) {
    std::ofstream out(o.csv_path);
    out << tuning::trace_to_csv(r);
    std::printf("wrote %s\n", o.csv_path.c_str());
  }
  return 0;
}

int cmd_tune_many(const Options& cli) {
  std::printf("isa path:     %s\n", isa::to_string(isa::selected()));
  if (cli.campaigns_path.empty()) {
    usage_error("tune-many needs --campaigns=FILE");
  }
  std::ifstream in(cli.campaigns_path);
  STORMTUNE_REQUIRE(in.good(), "tune-many: cannot open '" +
                                   cli.campaigns_path + "'");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  Json doc = Json::parse(text);
  const JsonArray& entries =
      doc.is_object() ? doc.at("campaigns").as_array() : doc.as_array();
  STORMTUNE_REQUIRE(!entries.empty(), "tune-many: no campaigns in file");

  // Every campaign is built, and so checked, before any is scheduled.
  std::vector<tuning::CampaignSpec> specs;
  specs.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Json& entry = entries[i];
    const tuning::CampaignDesc desc =
        tuning::CampaignDesc::from_json(entry, cli.desc);
    const std::string name = entry.contains("name")
                                 ? entry.at("name").as_string()
                                 : desc.topology + "#" + std::to_string(i);
    specs.push_back(tuning::make_campaign(desc, name));
  }

  tuning::CampaignSchedulerOptions sched;
  sched.num_threads = cli.threads.value_or(0);
  const std::size_t threads = sched.num_threads > 0
                                  ? sched.num_threads
                                  : default_thread_count();
  std::printf("scheduling %zu campaigns over %zu thread%s...\n", specs.size(),
              threads, threads == 1 ? "" : "s");

  std::ofstream jsonl_out;
  std::unique_ptr<tuning::ResultSink> sink;
  if (!cli.jsonl_path.empty()) {
    jsonl_out.open(cli.jsonl_path);
    STORMTUNE_REQUIRE(jsonl_out.good(), "tune-many: cannot write '" +
                                            cli.jsonl_path + "'");
    tuning::ResultSinkOptions sopts;
    sopts.expected_records = specs.size();
    sink = std::make_unique<tuning::ResultSink>(
        std::make_unique<tuning::JsonlResultBackend>(jsonl_out), sopts);
  }

  const tuning::MultiCampaignResult out =
      tuning::run_campaigns(specs, sched, sink.get());
  if (sink) sink->close();

  std::printf("%-24s %10s %9s %s\n", "campaign", "best", "found", "config");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const tuning::ExperimentResult& r = out.results[i];
    std::printf("%-24s %10.1f %4zu/%-4zu %s\n", specs[i].name.c_str(),
                r.best_rep_stats.n > 0 ? r.best_rep_stats.mean
                                       : r.best_throughput,
                r.best_step, r.trace.size(), r.best_config.describe().c_str());
  }
  std::printf("steals:       %llu\n",
              static_cast<unsigned long long>(out.steal_count));
  if (!cli.jsonl_path.empty()) {
    std::printf("wrote %s\n", cli.jsonl_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const CommandName* cmd = nullptr;
  for (const CommandName& c : kCommands) {
    if (std::strcmp(argv[1], c.name) == 0) cmd = &c;
  }
  if (cmd == nullptr) usage();
  try {
    const Options o = parse(argc, argv, 2, cmd->name, cmd->command);
    switch (cmd->command) {
      case kList:
      case kTuneMany:
        if (!o.desc.topology.empty()) {
          usage_error(std::string(cmd->name) + " takes no topology (got '" +
                      o.desc.topology + "')");
        }
        return cmd->command == kList ? cmd_list() : cmd_tune_many(o);
      default:
        break;
    }
    if (o.desc.topology.empty()) usage();
    switch (cmd->command) {
      case kInfo:
        return cmd_info(o);
      case kDot:
        return cmd_dot(o);
      case kSimulate:
        return cmd_simulate(o);
      default:
        return cmd_tune(o);
    }
  } catch (const stormtune::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
