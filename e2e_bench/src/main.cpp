// bench_e2e — end-to-end campaign benchmark.
//
//   bench_e2e --workload=NAME [--seed=S] [--seconds=T] [--trace=FILE]
//             [--smoke] [--update-golden]
//
// Runs the workload's tuning campaigns through tuning::run_campaigns, round
// after round (see campaigns.hpp for the seeds of each round), checks every
// result, and prints `name value unit` lines, one JSON report,
// and as its last line a JSON summary {correct, attempted, failed, metrics}.
// Times are calibrated to the reference host's speed (see calibrate.hpp).
// Untraced, the summary carries the end-to-end metrics; with --trace=FILE it
// carries the per-layer metrics, and FILE receives the spans as Chrome
// trace-event JSON. Exit code 0 when every check passed, 1 when one failed,
// 2 on a usage error. The kernel path is the library's choice, which the
// STORMTUNE_ISA environment variable pins (portable|avx2|avx512|neon).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "calibrate.hpp"
#include "campaigns.hpp"
#include "checks.hpp"
#include "common/error.hpp"
#include "common/isa.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "layers.hpp"
#include "probe.hpp"
#include "tuning/result_sink.hpp"

namespace {

using namespace stormtune;
using e2e::Span;
using e2e::SpanKind;

struct Options {
  std::string workload;
  std::uint64_t seed = 2015;
  double seconds = 25.0;
  std::string trace_path;
  bool smoke = false;
  bool update_golden = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload=NAME [--seed=S] [--seconds=T] "
               "[--trace=FILE]\n"
               "                 [--smoke] [--update-golden]\n"
               "workloads:",
               why);
  for (const e2e::Workload& w : e2e::workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

const char* value_of(const char* arg, const char* key) {
  const std::size_t n = std::strlen(key);
  if (std::strncmp(arg, key, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    try {
      if (const char* v = value_of(a, "--workload")) o.workload = v;
      else if (const char* v = value_of(a, "--seed")) o.seed = std::stoull(v);
      else if (const char* v = value_of(a, "--seconds")) o.seconds = std::stod(v);
      else if (const char* v = value_of(a, "--trace")) o.trace_path = v;
      else if (std::strcmp(a, "--smoke") == 0) o.smoke = true;
      else if (std::strcmp(a, "--update-golden") == 0) o.update_golden = true;
      else usage((std::string("unknown argument '") + a + "'").c_str());
    } catch (const std::logic_error&) {
      usage((std::string("bad value in '") + a + "'").c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::string first_line_with(const char* path, const char* prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return "";
}

Json provenance(const Options& o) {
  JsonObject p;
  p["git_sha"] = BENCH_GIT_SHA;
  p["src_sha1"] = BENCH_SRC_SHA1;
  p["compiler"] = BENCH_COMPILER;
  p["build_type"] = BENCH_BUILD_TYPE;
  p["cxx_flags"] = BENCH_CXX_FLAGS;
  p["isa"] = isa::to_string(isa::selected());
  p["nproc"] = static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN));
  std::string cpu = first_line_with("/proc/cpuinfo", "model name");
  const std::size_t colon = cpu.find(':');
  p["cpu_model"] = colon == std::string::npos ? "unknown" : cpu.substr(colon + 2);
  double load1 = -1.0;
  if (std::FILE* f = std::fopen("/proc/loadavg", "r")) {
    if (std::fscanf(f, "%lf", &load1) != 1) load1 = -1.0;
    std::fclose(f);
  }
  p["loadavg_1m"] = load1;
  p["seed"] = static_cast<std::int64_t>(o.seed);
  return Json(std::move(p));
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

/// High-water mark of this process's resident set (VmHWM). getrusage's
/// ru_maxrss would also count the image of a parent that exec'd us.
double peak_rss_mb() {
  const std::string line = first_line_with("/proc/self/status", "VmHWM:");
  return line.empty() ? 0.0 : std::stod(line.substr(6)) / 1024.0;  // kB
}

double pct_of(const std::vector<double>& xs, double pct) {
  return xs.empty() ? 0.0 : percentile(xs, pct);
}

double ms(std::int64_t ns) { return 1e-6 * static_cast<double>(ns); }

/// Everything the rounds of a run add up. Times are calibrated (see
/// calibrate.hpp) and those of the untraced executions.
struct Totals {
  std::size_t campaigns = 0;  // distinct campaigns, one per round member
  std::size_t attempted = 0;  // campaign runs, traced reruns included
  std::size_t failed = 0;     // campaign runs that failed a check
  std::size_t golden_checked = 0;
  double wall_s = 0.0;
  double raw_wall_s = 0.0;  // as measured, before calibration
  double cpu_s = 0.0;
  double traced_wall_s = 0.0;        // the traced reruns, as measured
  double traced_calibrated_s = 0.0;  // the same, calibrated
  std::uint64_t steals = 0;
  std::vector<double> step_ms;
  std::vector<double> best_tput;  // > 0 only
  std::size_t zero_best = 0;
  std::vector<std::string> failures;
  JsonArray results;  // per campaign: key, seed, digest, best throughput
  JsonArray round_wall_s;
  std::vector<double> round_setup_s;
  JsonArray calibration_s;  // every reading, in order
};

/// One execution of a round, as measured.
struct Execution {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<e2e::StepStamp> steps;
};

class Runner {
 public:
  Runner(const Options& o, const e2e::Workload& w, bool traced)
      : o_(o),
        w_(w),
        traced_(traced),
        golden_(e2e::Golden::load(BENCH_GOLDEN_PATH)) {}

  /// Run round `round` and add it to `t`, its times divided by the host
  /// speed the calibration kernel read before and after it. A traced run
  /// then runs the round a second time with spans on, which must give the
  /// same results; its time against the first is the cost of tracing.
  void run_round(std::size_t round, Totals& t) {
    const auto first_id = static_cast<std::uint32_t>(campaign_names_.size());
    std::vector<std::string> digests;
    if (last_calibration_s_ == 0.0) calibrate(t);

    const Execution x = run_once(round, first_id, false, digests, t);
    const double k = calibrate(t);
    t.campaigns += digests.size();
    t.wall_s += k * x.wall_s;
    t.raw_wall_s += x.wall_s;
    t.cpu_s += k * x.cpu_s;
    t.round_wall_s.emplace_back(k * x.wall_s);
    t.round_setup_s.push_back(k * x.setup_s);
    for (const e2e::StepStamp& s : x.steps) {
      if (s.report_out > 0) {
        t.step_ms.push_back(k * ms(s.report_out - s.next_in));
      }
    }
    if (!traced_) return;
    const Execution traced = run_once(round, first_id, true, digests, t);
    t.traced_wall_s += traced.wall_s;
    t.traced_calibrated_s += calibrate(t) * traced.wall_s;
  }

  e2e::Collector& collector() { return collector_; }
  /// Campaign keys by the run-wide id the spans carry.
  const std::vector<std::string>& campaign_names() const {
    return campaign_names_;
  }
  void save_golden() const { golden_.save(BENCH_GOLDEN_PATH); }

 private:
  /// Read the host's speed again. Returns reference-host seconds per
  /// measured second over the time since the previous reading, from the
  /// mean of the two readings.
  double calibrate(Totals& t) {
    const double before = last_calibration_s_;
    last_calibration_s_ = e2e::calibration_s(w_.workers);
    t.calibration_s.emplace_back(last_calibration_s_);
    return 2.0 * e2e::kReferenceCalibrationS / (before + last_calibration_s_);
  }

  /// Run round `round` once, campaign c with run-wide id first_id + c, and
  /// check it. The untraced execution checks every digest against the
  /// golden file (or pins it) and records the results; the traced one must
  /// reproduce the untraced one's digests. The set-up before run_campaigns
  /// (topologies, factories, probes, sink) is timed apart.
  Execution run_once(std::size_t round, std::uint32_t first_id, bool traced,
                     std::vector<std::string>& digests, Totals& t) {
    Execution x;
    const std::int64_t setup0 = e2e::now_ns();
    e2e::Round r = e2e::build_round(w_, o_.seed, round, o_.smoke);
    for (std::size_t c = 0; c < r.specs.size(); ++c) {
      e2e::instrument(r.specs[c], first_id + static_cast<std::uint32_t>(c),
                      traced, collector_);
      if (!traced) campaign_names_.push_back(r.contexts[c]->key);
    }
    std::ostringstream bytes;
    std::unique_ptr<tuning::ResultSink> sink;
    if (w_.sink) {
      tuning::ResultSinkOptions so;
      so.expected_records = r.specs.size();
      sink = std::make_unique<tuning::ResultSink>(
          std::make_unique<tuning::JsonlResultBackend>(bytes), so);
    }
    tuning::CampaignSchedulerOptions sched;
    sched.num_threads = w_.workers;
    tuning::MultiCampaignResult out;
    std::string error;
    const double cpu0 = cpu_seconds();
    const std::int64_t t0 = e2e::now_ns();
    x.setup_s = 1e-9 * static_cast<double>(t0 - setup0);
    try {
      out = tuning::run_campaigns(r.specs, sched, sink.get());
      if (sink) sink->close();
    } catch (const std::exception& e) {
      error = e.what();
    }
    x.wall_s = 1e-9 * static_cast<double>(e2e::now_ns() - t0);
    x.cpu_s = cpu_seconds() - cpu0;
    x.steps = collector_.take_steps();
    t.attempted += r.specs.size();
    if (traced) t.steals += out.steal_count;

    if (!error.empty()) {
      // One throwing campaign abandons the whole run_campaigns call.
      t.failed += r.specs.size();
      t.failures.push_back("round " + std::to_string(round) +
                           (traced ? " traced: " : ": ") + error);
      digests.resize(r.specs.size());
      return x;
    }
    const std::string isa = isa::to_string(isa::selected());
    std::vector<bool> failed(r.specs.size(), false);
    for (std::size_t c = 0; c < r.specs.size(); ++c) {
      const e2e::CampaignContext& ctx = *r.contexts[c];
      const tuning::ExperimentResult& res = out.results[c];
      std::vector<std::string> f = e2e::check_campaign(ctx, res);
      const std::string digest = e2e::result_digest(res);
      if (traced) {
        if (c < digests.size() && digest != digests[c]) {
          f.push_back(ctx.key + ": traced digest " + digest +
                      " != untraced " + digests[c]);
        }
      } else if (o_.update_golden && !o_.smoke) {
        golden_.pin(isa, o_.seed, ctx.key, digest);
      } else if (const std::string* want =
                     o_.smoke ? nullptr : golden_.find(isa, o_.seed, ctx.key)) {
        ++t.golden_checked;
        if (*want != digest) {
          f.push_back(ctx.key + ": digest " + digest + " != golden " + *want);
        }
      }
      if (!f.empty()) {
        failed[c] = true;
        t.failures.insert(t.failures.end(), f.begin(), f.end());
      }
      if (traced) continue;
      digests.push_back(digest);
      const double best = res.best_rep_stats.mean;
      if (best > 0.0) t.best_tput.push_back(best);
      else ++t.zero_best;
      JsonObject rec;
      rec["key"] = ctx.key;
      rec["seed"] = static_cast<std::int64_t>(ctx.seed);
      rec["digest"] = digest;
      rec["best_tput"] = best;
      rec["steps"] = res.trace.size();
      t.results.emplace_back(std::move(rec));
    }
    if (sink) check_sink(bytes.str(), r, failed, t);
    for (const bool f : failed) t.failed += f ? 1 : 0;
    return x;
  }

  /// The sink must have written one record per campaign, in ticket order.
  static void check_sink(const std::string& bytes, const e2e::Round& r,
                         std::vector<bool>& failed, Totals& t) {
    std::istringstream in(bytes);
    std::string line;
    std::size_t ticket = 0;
    while (std::getline(in, line)) {
      bool ok = ticket < r.specs.size();
      if (ok) {
        const Json rec = Json::parse(line);
        ok = rec.at("ticket").as_int() == static_cast<std::int64_t>(ticket) &&
             rec.at("name").as_string() == r.contexts[ticket]->key;
      }
      if (!ok) break;
      ++ticket;
    }
    for (std::size_t c = ticket; c < r.specs.size(); ++c) {
      failed[c] = true;
      t.failures.push_back(r.contexts[c]->key + ": missing from sink output");
    }
  }

  const Options& o_;
  const e2e::Workload& w_;
  bool traced_;
  double last_calibration_s_ = 0.0;  // 0 until the first reading
  e2e::Golden golden_;
  e2e::Collector collector_;
  std::vector<std::string> campaign_names_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_metric_lines(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

Json metrics_json(const std::vector<Metric>& ms) {
  JsonObject o;
  for (const Metric& m : ms) {
    JsonObject v;
    v["value"] = m.value;
    v["unit"] = m.unit;
    o[m.name] = Json(std::move(v));
  }
  return Json(std::move(o));
}

/// Per-layer aggregation of a traced run's spans.
struct LayerRow {
  std::string layer;
  std::size_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

const char* category(SpanKind k) {
  switch (k) {
    case SpanKind::kSuggest:
    case SpanKind::kObserve: return "bayesopt";
    case SpanKind::kEvaluate:
    case SpanKind::kRep: return "stormsim";
    default: return "tuning";
  }
}

/// Reference-host seconds per measured second over a run's traced
/// executions.
double calibration_factor(const Totals& t) {
  return t.traced_wall_s > 0 ? t.traced_calibrated_s / t.traced_wall_s : 1.0;
}

std::vector<Metric> layer_metrics(const std::vector<Span>& spans,
                                  const e2e::LadderCounts& ladder,
                                  const Totals& t, const e2e::Workload& w,
                                  std::vector<LayerRow>& rows) {
  std::map<SpanKind, LayerRow> by_kind;
  std::vector<double> eval_ms, rep_ms, suggest_ms, rung1_ms, rung2_ms;
  double sim_ms = 0.0, eval_wall_ms = 0.0;
  std::size_t crashed = 0;
  // Per step: step span minus the suggest, evaluate and observe it holds is
  // the time the step spent queued between its strand steps.
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>, double>
      wait;
  for (const Span& s : spans) {
    const double d = ms(s.end_ns - s.begin_ns);
    LayerRow& row = by_kind[s.kind];
    ++row.calls;
    row.total_ms += d;
    const auto key = std::make_tuple(s.campaign, s.pass, s.index);
    switch (s.kind) {
      case SpanKind::kStep: wait[key] += d; break;
      case SpanKind::kSuggest:
        suggest_ms.push_back(d);
        wait[key] -= d;
        break;
      case SpanKind::kObserve: wait[key] -= d; break;
      case SpanKind::kEvaluate:
        eval_ms.push_back(d);
        wait[key] -= d;
        if (s.rung == 1) rung1_ms.push_back(d);
        if (s.rung == 2) rung2_ms.push_back(d);
        crashed += s.crashed ? 1 : 0;
        sim_ms += s.simulated_ms;
        eval_wall_ms += d;
        break;
      case SpanKind::kRep:
        rep_ms.push_back(d);
        sim_ms += s.simulated_ms;
        eval_wall_ms += d;
        break;
      default: break;
    }
  }
  const auto total = [&](SpanKind k) { return by_kind[k].total_ms; };
  const double worker_ms =
      1e3 * t.traced_wall_s * static_cast<double>(w.workers);
  const double bayes_ms = total(SpanKind::kSuggest) + total(SpanKind::kObserve);
  const double sim_layer_ms = total(SpanKind::kEvaluate) + total(SpanKind::kRep);
  const double busy_ms = bayes_ms + sim_layer_ms + total(SpanKind::kRebind);

  std::vector<double> waits;
  waits.reserve(wait.size());
  for (const auto& [key, v] : wait) waits.push_back(std::max(0.0, v));

  // Self time: a span's duration minus that of the spans it holds.
  for (auto& [kind, row] : by_kind) {
    row.layer = std::string(category(kind)) + "." + e2e::to_string(kind);
    row.self_ms = row.total_ms;
  }
  by_kind[SpanKind::kPass].self_ms -= total(SpanKind::kStep) +
                                      total(SpanKind::kRep) +
                                      total(SpanKind::kRebind);
  by_kind[SpanKind::kStep].self_ms -= total(SpanKind::kSuggest) +
                                      total(SpanKind::kEvaluate) +
                                      total(SpanKind::kObserve);
  rows.clear();
  for (const auto& [kind, row] : by_kind) rows.push_back(row);

  // Times are reported calibrated, by the factor the traced executions saw.
  const double k = calibration_factor(t);
  return {
      {"stormsim.eval_ms_p50", k * pct_of(eval_ms, 50), "ms"},
      {"stormsim.eval_ms_p95", k * pct_of(eval_ms, 95), "ms"},
      {"stormsim.rep_ms_p50", k * pct_of(rep_ms, 50), "ms"},
      {"stormsim.sim_s_per_s",
       eval_wall_ms > 0 ? sim_ms / (k * eval_wall_ms) : 0.0, "s/s"},
      {"stormsim.crash_frac",
       eval_ms.empty() ? 0.0
                       : static_cast<double>(crashed) /
                             static_cast<double>(eval_ms.size()),
       "fraction"},
      {"stormsim.share", sim_layer_ms / worker_ms, "fraction"},
      {"bayesopt.share", bayes_ms / worker_ms, "fraction"},
      {"bayesopt.suggest_ms_p50", k * pct_of(suggest_ms, 50), "ms"},
      {"bayesopt.suggest_ms_p95", k * pct_of(suggest_ms, 95), "ms"},
      {"tuning.steps", static_cast<double>(by_kind[SpanKind::kStep].calls),
       "count"},
      {"tuning.evals", static_cast<double>(eval_ms.size()), "count"},
      {"tuning.reps", static_cast<double>(rep_ms.size()), "count"},
      {"tuning.ladder.screened", static_cast<double>(ladder.screened), "count"},
      {"tuning.ladder.rung1_evals", static_cast<double>(ladder.rung1_evals),
       "count"},
      {"tuning.ladder.rung2_evals", static_cast<double>(ladder.rung2_evals),
       "count"},
      {"tuning.ladder.rung1_ms_p50", k * pct_of(rung1_ms, 50), "ms"},
      {"tuning.ladder.rung2_ms_p50", k * pct_of(rung2_ms, 50), "ms"},
      {"tuning.wait_ms_p50", k * pct_of(waits, 50), "ms"},
      {"tuning.wait_ms_p95", k * pct_of(waits, 95), "ms"},
      {"common.busy_frac", busy_ms / worker_ms, "fraction"},
      {"common.steals", static_cast<double>(t.steals), "count"},
  };
}

void print_layer_table(const std::vector<LayerRow>& rows, double worker_ms) {
  std::printf("%-20s %8s %12s %12s %8s %12s\n", "layer", "calls", "total_ms",
              "self_ms", "share", "us_per_call");
  for (const LayerRow& r : rows) {
    std::printf("%-20s %8zu %12.1f %12.1f %8.4f %12.1f\n", r.layer.c_str(),
                r.calls, r.total_ms, r.self_ms, r.total_ms / worker_ms,
                r.calls > 0 ? 1e3 * r.total_ms / static_cast<double>(r.calls)
                            : 0.0);
  }
}

/// Chrome trace-event JSON: one process per campaign (thread 0 holds the
/// campaign span, thread p+1 pass p), complete events in microseconds.
void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::vector<std::string>& names) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto event = [&](const std::string& body) {
    out << (first ? "\n" : ",\n") << '{' << body << '}';
    first = false;
  };
  const auto us = [](std::int64_t ns) {
    return Json::number_to_string(1e-3 * static_cast<double>(ns));
  };
  std::map<std::uint32_t, std::pair<std::int64_t, std::int64_t>> campaign;
  std::set<std::pair<std::uint32_t, std::uint32_t>> tracks;
  for (const Span& s : spans) {
    auto [it, fresh] = campaign.try_emplace(s.campaign, s.begin_ns, s.end_ns);
    if (!fresh) {
      it->second.first = std::min(it->second.first, s.begin_ns);
      it->second.second = std::max(it->second.second, s.end_ns);
    }
    tracks.emplace(s.campaign, s.pass);
    const char* index_name = s.kind == SpanKind::kRep ||
                                     s.kind == SpanKind::kRebind
                                 ? "rep"
                                 : "step";
    event("\"ph\":\"X\",\"name\":\"" + std::string(e2e::to_string(s.kind)) +
          "\",\"cat\":\"" + category(s.kind) + "\",\"pid\":" +
          std::to_string(s.campaign + 1) + ",\"tid\":" +
          std::to_string(s.pass + 1) + ",\"ts\":" + us(s.begin_ns) +
          ",\"dur\":" + us(s.end_ns - s.begin_ns) + ",\"args\":{\"pass\":" +
          std::to_string(s.pass) + ",\"" + index_name + "\":" +
          std::to_string(s.index) + ",\"rung\":" + std::to_string(s.rung) +
          ",\"worker\":" + std::to_string(s.worker) + "}");
  }
  for (const auto& [id, range] : campaign) {
    const std::string pid = std::to_string(id + 1);
    const std::string name = id < names.size() ? names[id] : "?";
    event("\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" + pid +
          ",\"args\":{\"name\":" + Json(name).dump() + "}");
    event("\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" + pid +
          ",\"tid\":0,\"args\":{\"name\":\"campaign\"}");
    event("\"ph\":\"X\",\"name\":\"campaign\",\"cat\":\"tuning\",\"pid\":" +
          pid + ",\"tid\":0,\"ts\":" + us(range.first) + ",\"dur\":" +
          us(range.second - range.first) + ",\"args\":{\"campaign\":" +
          Json(name).dump() + "}");
  }
  for (const auto& track : tracks) {
    event("\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" +
          std::to_string(track.first + 1) + ",\"tid\":" +
          std::to_string(track.second + 1) + ",\"args\":{\"name\":\"pass " +
          std::to_string(track.second) + "\"}");
  }
  out << "\n]}\n";
  STORMTUNE_REQUIRE(out.good(), "cannot write trace file '" + path + "'");
}

int run(const Options& o) {
  const e2e::Workload* w = e2e::find_workload(o.workload);
  if (w == nullptr) usage(("unknown workload '" + o.workload + "'").c_str());
  const bool traced = !o.trace_path.empty();
  const double executions = traced ? 2.0 : 1.0;  // per round
  const std::size_t rounds =
      o.smoke ? 1
              : static_cast<std::size_t>(std::max(
                    1.0, std::round(o.seconds /
                                    (executions * w->nominal_round_s))));

  const Json prov = provenance(o);
  std::printf("bench_e2e %s: seed %llu, %zu round%s, %zu worker%s%s%s\n",
              w->name.c_str(), static_cast<unsigned long long>(o.seed),
              rounds, rounds == 1 ? "" : "s", w->workers,
              w->workers == 1 ? "" : "s", o.smoke ? ", smoke scale" : "",
              traced ? ", traced" : "");
  std::printf("provenance: %s\n", prov.dump().c_str());

  // The rounds are a fixed amount of work, so a host running far slower
  // than usual stretches the run; past 1.25 times its --seconds the run
  // stops starting rounds, to stay within the time its caller allows.
  const auto deadline_ns = static_cast<std::int64_t>(1.25e9 * o.seconds);
  Runner runner(o, *w, traced);
  Totals t;
  std::size_t ran = 0;
  for (; ran < rounds && (ran == 0 || e2e::now_ns() < deadline_ns); ++ran) {
    runner.run_round(ran, t);
  }
  const e2e::Collected rec = runner.collector().drain();
  if (o.update_golden && !o.smoke) runner.save_golden();

  if (rec.lost > 0) {
    t.failures.push_back(std::to_string(rec.lost) + " probe buffers were lost");
    t.failed = std::max<std::size_t>(t.failed, 1);
  }

  const std::vector<double>& step_ms = t.step_ms;
  double log_sum = 0.0;
  for (const double b : t.best_tput) log_sum += std::log(b);
  const double n_campaigns = static_cast<double>(t.campaigns);
  // Reported, not bounded: both are exact for a fixed seed, and the golden
  // digests and the exit code already guard them.
  const std::vector<Metric> quality = {
      {"best_tput_geomean",
       t.best_tput.empty()
           ? 0.0
           : std::exp(log_sum / static_cast<double>(t.best_tput.size())),
       "tuples/s"},
      {"failed_frac",
       static_cast<double>(t.failed) / static_cast<double>(t.attempted),
       "fraction"},
  };
  const std::vector<Metric> end_to_end = {
      {"campaigns_per_min", t.wall_s > 0 ? 60.0 * n_campaigns / t.wall_s : 0.0,
       "1/min"},
      {"step_ms_p50", pct_of(step_ms, 50), "ms"},
      {"step_ms_p95", pct_of(step_ms, 95), "ms"},
      {"cpu_s_per_campaign", t.cpu_s / n_campaigns, "s"},
      {"setup_s", pct_of(t.round_setup_s, 50), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };

  std::vector<Metric> per_layer;
  if (traced) {
    std::vector<LayerRow> rows;
    per_layer = layer_metrics(rec.spans, rec.ladder, t, *w, rows);
    per_layer.push_back({"tuning.best_tput_geomean", quality[0].value,
                         quality[0].unit});
    std::size_t n = 0, d = 0;
    for (const auto& c : e2e::build_round(*w, o.seed, 0, o.smoke).contexts) {
      n = std::max(n, c->tmpl.steps);
      d = std::max(d, e2e::search_dim(*c));
    }
    const e2e::LayerTimings lt = e2e::time_layers(n, d, o.seed);
    const double k = calibration_factor(t);
    per_layer.push_back({"gp.fit_ms", k * lt.gp_fit_ms, "ms"});
    per_layer.push_back({"gp.refit_ms", k * lt.gp_refit_ms, "ms"});
    per_layer.push_back(
        {"gp.predict_batch_ms", k * lt.gp_predict_batch_ms, "ms"});
    per_layer.push_back(
        {"linalg.cholesky_ms", k * lt.linalg_cholesky_ms, "ms"});
    per_layer.push_back(
        {"linalg.append_row_us", k * lt.linalg_append_row_us, "us"});
    per_layer.push_back(
        {"tracing.wall_ratio", t.traced_calibrated_s / t.wall_s, "ratio"});
    std::printf("surrogate shape for gp/linalg calls: n=%zu d=%zu\n", n, d);
    std::printf("calibrated wall over all rounds: traced %.3f s, untraced "
                "%.3f s\n",
                t.traced_calibrated_s, t.wall_s);
    print_layer_table(rows,
                      1e3 * t.traced_wall_s * static_cast<double>(w->workers));
    write_chrome_trace(o.trace_path, rec.spans, runner.campaign_names());
    std::printf("wrote %s (%zu spans)\n", o.trace_path.c_str(),
                rec.spans.size());
  }

  for (const std::string& f : t.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("rounds %zu of %zu, campaign runs %zu, failed %zu, "
              "golden-checked %zu, zero-best %zu, steps %zu, calibrated wall "
              "%.3f s (as measured %.3f s)\n",
              ran, rounds, t.attempted, t.failed, t.golden_checked,
              t.zero_best, step_ms.size(), t.wall_s, t.raw_wall_s);
  print_metric_lines(end_to_end);
  print_metric_lines(quality);
  print_metric_lines(per_layer);

  const bool correct = t.failed == 0;
  JsonObject report;
  report["workload"] = w->name;
  report["rounds"] = ran;
  report["smoke"] = o.smoke;
  report["provenance"] = prov;
  report["end_to_end"] = metrics_json(end_to_end);
  report["quality"] = metrics_json(quality);
  if (traced) report["per_layer"] = metrics_json(per_layer);
  report["golden_checked"] = t.golden_checked;
  report["campaigns"] = Json(std::move(t.results));
  report["round_wall_s"] = Json(std::move(t.round_wall_s));
  report["raw_campaigns_per_min"] =
      t.raw_wall_s > 0 ? 60.0 * n_campaigns / t.raw_wall_s : 0.0;
  report["calibration_s"] = Json(std::move(t.calibration_s));
  report["round_setup_s"] =
      Json(JsonArray(t.round_setup_s.begin(), t.round_setup_s.end()));
  JsonArray failures;
  for (const std::string& f : t.failures) failures.emplace_back(f);
  report["failures"] = Json(std::move(failures));
  std::printf("%s\n", Json(std::move(report)).dump().c_str());

  JsonObject summary;
  summary["correct"] = correct;
  summary["attempted"] = t.attempted;
  summary["failed"] = t.failed;
  summary["metrics"] = metrics_json(traced ? per_layer : end_to_end);
  std::printf("%s\n", Json(std::move(summary)).dump().c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::now_ns();  // start the clock at process start
  const Options o = parse(argc, argv);
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
