// DET001..DET005 — the v1 determinism rules, ported onto the indexed TU
// (the TU already carries stripped text and split lines, so the v1 regex
// bodies run unchanged). DET003 is extended beyond v1: std::stable_sort,
// std::partial_sort and std::nth_element are now covered, each with its
// own comparator-less base arity.
#include <algorithm>
#include <map>
#include <regex>
#include <string>

#include "detlint/lexer.hpp"
#include "detlint/rules.hpp"

namespace detlint {

namespace {

std::size_t line_of_offset(const std::string& text, std::size_t offset) {
  return static_cast<std::size_t>(
             std::count(text.begin(),
                        text.begin() + static_cast<std::ptrdiff_t>(offset),
                        '\n')) +
         1;
}

bool in_dir(const std::string& path, const std::string& dir) {
  return starts_with(path, dir + "/");
}

bool rule_applies_det001(const std::string& path) {
  // All randomness flows through the seeded Rng; only its implementation
  // may name the primitive sources.
  return !starts_with(path, "src/common/rng");
}

bool rule_applies_det002(const std::string& path) {
  return in_dir(path, "src/stormsim") || in_dir(path, "src/tuning") ||
         in_dir(path, "src/bayesopt");
}

bool rule_applies_src_only(const std::string& path) {
  return in_dir(path, "src");
}

void add_line_regex_findings(const std::string& rule,
                             const std::regex& pattern,
                             const std::string& detail,
                             const TranslationUnit& tu,
                             std::vector<Finding>& findings) {
  for (std::size_t i = 0; i < tu.lines.size(); ++i) {
    if (std::regex_search(tu.lines[i], pattern)) {
      findings.push_back(
          Finding{rule, tu.path, i + 1, trim(tu.lines[i]), detail});
    }
  }
}

// DET003: ordering-algorithm call with exactly its comparator-less number
// of top-level arguments. Balanced-paren argument counting on the full
// stripped text, as in v1; the algorithm table is the v2 extension.
void check_det003(const TranslationUnit& tu, std::vector<Finding>& findings) {
  static const std::map<std::string, std::size_t> base_arity = {
      {"sort", 2},
      {"stable_sort", 2},
      {"partial_sort", 3},
      {"nth_element", 3},
  };
  static const std::regex call_re(
      "std\\s*::\\s*(sort|stable_sort|partial_sort|nth_element)\\s*\\(");
  const std::string& stripped = tu.stripped;
  auto begin =
      std::sregex_iterator(stripped.begin(), stripped.end(), call_re);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    const std::string algo = (*it)[1].str();
    const std::size_t open = static_cast<std::size_t>(it->position()) +
                             static_cast<std::size_t>(it->length()) - 1;
    int depth = 1;
    int angle = 0;
    std::size_t args = 1;
    std::size_t j = open + 1;
    for (; j < stripped.size() && depth > 0; ++j) {
      const char c = stripped[j];
      if (c == '(' || c == '[' || c == '{') ++depth;
      else if (c == ')' || c == ']' || c == '}') --depth;
      else if (c == '<') ++angle;
      else if (c == '>' && angle > 0) --angle;
      else if (c == ',' && depth == 1 && angle == 0) ++args;
    }
    if (args == base_arity.at(algo)) {
      const std::size_t line = line_of_offset(stripped, open);
      findings.push_back(Finding{
          "DET003", tu.path, line, trim(tu.lines[line - 1]),
          "std::" + algo + " without an explicit total-order comparator"});
    }
  }
}

}  // namespace

void run_det_rules(const TranslationUnit& tu, std::vector<Finding>& out) {
  if (rule_applies_det001(tu.path)) {
    static const std::regex det001(
        "\\b(?:std\\s*::\\s*)?(?:rand|srand)\\s*\\(|\\brandom_device\\b");
    add_line_regex_findings(
        "DET001", det001,
        "raw randomness source outside common/rng (unseeded or "
        "process-global state)",
        tu, out);
  }

  if (rule_applies_det002(tu.path)) {
    static const std::regex det002a(
        "\\bunordered_(?:map|set|multimap|multiset)\\b");
    add_line_regex_findings(
        "DET002", det002a,
        "unordered container in a deterministic layer (hash-bucket order "
        "leaks into iteration)",
        tu, out);
    static const std::regex det002b(
        "\\b(?:std\\s*::\\s*)?(?:map|set)\\s*<[^<>,]*\\*\\s*[,>]");
    add_line_regex_findings(
        "DET002", det002b,
        "pointer-keyed ordered container (iteration order depends on "
        "allocation addresses)",
        tu, out);
  }

  if (rule_applies_src_only(tu.path)) {
    check_det003(tu, out);

    static const std::regex det004(
        "\\b(?:system_clock|steady_clock|high_resolution_clock)\\b|"
        "\\bgettimeofday\\b|\\bclock\\s*\\(\\s*\\)|"
        "\\btime\\s*\\(\\s*(?:NULL|nullptr|0)?\\s*\\)");
    add_line_regex_findings(
        "DET004", det004,
        "clock read in library code (timing-dependent value); move it to "
        "bench/ or tools/, or allowlist the audited exception",
        tu, out);

    static const std::regex det005a("#\\s*pragma\\s+omp\\b");
    add_line_regex_findings(
        "DET005", det005a,
        "OpenMP pragma (reduction and scheduling order are runtime-"
        "dependent); run independent work as StrandPool strands instead",
        tu, out);
  }
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
}

}  // namespace detlint
