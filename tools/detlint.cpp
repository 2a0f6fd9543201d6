// detlint — the project's determinism and hot-path lint (v2 driver).
//
// Every performance PR in this repo rests on one claim: suggest(), the
// simulation engine, and the campaign drivers are bitwise-identical
// across thread counts and workspace reuse — and allocation-free in steady
// state. The golden and malloc-probe tests pin those claims after the
// fact; detlint enforces their source-level preconditions before a
// violation can ship.
//
// v1 was a per-line pattern checker. v2 is a small analysis framework
// (tools/detlint/): a tokenizer, per-TU function extraction with a
// cross-TU symbol table, a project-wide call graph, and a
// compile_commands.json reader. This file is only the driver: argument
// parsing, the audited allowlist, and the fixture self-test harness. The
// rules themselves live in tools/detlint/rules_*.cpp; see
// tools/detlint/rules.hpp for the rule table and DESIGN.md "Correctness
// tooling" for the rationale.
//
// Audited exceptions live in tools/detlint.allow; each suppressed finding
// must match an entry's (rule, path suffix, substring). Unused allowlist
// entries are themselves errors so the file cannot rot.
//
// Fixture mode (--fixtures) self-tests the rules: every file under the
// fixture root carries `// expect: RULEnnn` / `// expect-allowed: RULEnnn`
// annotations, and detlint verifies that exactly the annotated findings
// fire (an expect-allowed line must be hit by the rule AND suppressed by
// the fixture allowlist <root>/allow.txt). Project-wide rules see the
// whole fixture tree at once, exactly as they see src/. A fixture
// compile_commands.json at the fixture root feeds ISA002.
#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "detlint/analyze.hpp"

namespace {

namespace fs = std::filesystem;

struct AllowEntry {
  std::string rule;
  std::string path_suffix;
  std::string substring;
  std::size_t line_no;  // in the allowlist file, for diagnostics
  bool used = false;
};

std::vector<AllowEntry> load_allowlist(const fs::path& file, bool required) {
  std::vector<AllowEntry> entries;
  std::ifstream in(file);
  if (!in) {
    if (required) {
      std::cerr << "detlint: cannot open allowlist " << file << "\n";
      std::exit(2);
    }
    return entries;
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string t = detlint::trim(line);
    if (t.empty() || t[0] == '#') continue;
    std::istringstream ss(t);
    AllowEntry e;
    e.line_no = line_no;
    ss >> e.rule >> e.path_suffix;
    std::getline(ss, e.substring);
    e.substring = detlint::trim(e.substring);
    if (e.rule.empty() || e.path_suffix.empty() || e.substring.empty()) {
      std::cerr << "detlint: malformed allowlist entry at " << file.string()
                << ":" << line_no
                << " (want: RULE PATH-SUFFIX SUBSTRING...)\n";
      std::exit(2);
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

void apply_allowlist(std::vector<detlint::Finding>& findings,
                     std::vector<AllowEntry>& allow) {
  for (detlint::Finding& f : findings) {
    for (AllowEntry& e : allow) {
      if (e.rule == f.rule &&
          (f.path == e.path_suffix ||
           detlint::ends_with(f.path, "/" + e.path_suffix)) &&
          f.excerpt.find(e.substring) != std::string::npos) {
        f.allowed = true;
        e.used = true;
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fixture mode
// ---------------------------------------------------------------------------

struct Expectation {
  std::string path;
  std::size_t line;
  std::string rule;
  bool allowed;  // expect-allowed: rule must hit AND be suppressed
};

void parse_expectations(const std::string& path, const std::string& text,
                        std::vector<Expectation>& exp) {
  static const std::regex exp_re(
      "//\\s*expect(-allowed)?:\\s*((?:[A-Z]{2,8}\\d+[ ,]*)+)");
  static const std::regex rule_re("[A-Z]{2,8}\\d+");
  const std::vector<std::string> lines = detlint::split_lines(text);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(lines[i], m, exp_re)) continue;
    const bool allowed = m[1].matched;
    const std::string rules = m[2].str();
    for (auto it = std::sregex_iterator(rules.begin(), rules.end(), rule_re);
         it != std::sregex_iterator(); ++it) {
      exp.push_back(Expectation{path, i + 1, it->str(), allowed});
    }
  }
}

int run_fixture_mode(const fs::path& root) {
  std::vector<AllowEntry> allow =
      load_allowlist(root / "allow.txt", /*required=*/false);

  detlint::AnalyzeOptions options;
  options.root = root.string();
  if (fs::exists(root / "compile_commands.json")) {
    options.compile_commands = (root / "compile_commands.json").string();
  }
  detlint::Analysis analysis = detlint::analyze_tree(options);
  for (const std::string& e : analysis.errors) {
    std::cerr << "detlint: " << e << "\n";
  }
  if (analysis.tus.empty()) {
    std::cerr << "detlint: no fixture files under " << root << "\n";
    return 2;
  }
  apply_allowlist(analysis.findings, allow);

  // Expectations come from the original file text: comments are stripped
  // before analysis, so the annotations are invisible to the rules.
  std::vector<Expectation> expected;
  for (const detlint::TranslationUnit& tu : analysis.tus) {
    std::ifstream in(root / tu.path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    parse_expectations(tu.path, ss.str(), expected);
  }

  std::size_t failures = analysis.errors.size();
  std::vector<detlint::Finding> findings = std::move(analysis.findings);
  for (const Expectation& e : expected) {
    const auto match = std::find_if(
        findings.begin(), findings.end(), [&](const detlint::Finding& f) {
          return f.path == e.path && f.line == e.line && f.rule == e.rule &&
                 f.allowed == e.allowed;
        });
    if (match == findings.end()) {
      std::cerr << "fixture FAIL " << e.path << ":" << e.line << ": expected "
                << (e.allowed ? "allowlisted " : "") << e.rule
                << " finding did not fire as expected\n";
      ++failures;
    } else {
      findings.erase(match);
    }
  }
  // ... and nothing may fire without an annotation.
  for (const detlint::Finding& f : findings) {
    std::cerr << "fixture FAIL " << f.path << ":" << f.line << ": unexpected "
              << f.rule << (f.allowed ? " (allowlisted)" : "") << ": "
              << f.excerpt << "\n";
    ++failures;
  }
  if (failures > 0) {
    std::cerr << "detlint fixtures: " << failures << " mismatch(es)\n";
    return 1;
  }
  std::cout << "detlint fixtures: " << expected.size()
            << " expectation(s) across " << analysis.tus.size()
            << " file(s) all verified\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Lint mode
// ---------------------------------------------------------------------------

int run_lint_mode(const fs::path& root, const fs::path& allow_file,
                  const fs::path& compile_commands,
                  const std::vector<std::string>& paths) {
  std::vector<AllowEntry> allow;
  if (!allow_file.empty()) {
    allow = load_allowlist(allow_file, /*required=*/true);
  }
  detlint::AnalyzeOptions options;
  options.root = root.string();
  options.paths = paths;
  if (!compile_commands.empty()) {
    options.compile_commands = compile_commands.string();
  }
  detlint::Analysis analysis = detlint::analyze_tree(options);
  apply_allowlist(analysis.findings, allow);

  std::size_t reported = 0;
  std::size_t suppressed = 0;
  for (const std::string& e : analysis.errors) {
    std::cerr << "detlint: " << e << "\n";
    ++reported;
  }
  for (const detlint::Finding& f : analysis.findings) {
    if (f.allowed) {
      ++suppressed;
      continue;
    }
    std::cerr << f.path << ":" << f.line << ": [" << f.rule << "] "
              << f.detail << "\n    " << f.excerpt << "\n";
    ++reported;
  }
  for (const AllowEntry& e : allow) {
    if (!e.used) {
      std::cerr << allow_file.string() << ":" << e.line_no
                << ": unused allowlist entry (" << e.rule << " "
                << e.path_suffix
                << ") — the audited exception no longer exists; remove it\n";
      ++reported;
    }
  }
  if (reported > 0) {
    std::cerr << "detlint: " << reported << " finding(s) across "
              << analysis.tus.size() << " file(s)\n";
    return 1;
  }
  std::cout << "detlint: clean (" << analysis.tus.size() << " file(s), "
            << suppressed << " audited exception(s))\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  fs::path allow_file;
  fs::path compile_commands;
  bool fixtures = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--allowlist" && i + 1 < argc) {
      allow_file = argv[++i];
    } else if (arg == "--compile-commands" && i + 1 < argc) {
      compile_commands = argv[++i];
    } else if (arg == "--fixtures") {
      fixtures = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: detlint [--root DIR] [--allowlist FILE] "
                   "[--compile-commands FILE] PATH...\n"
                   "       detlint --root DIR --fixtures\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "detlint: unknown option " << arg << "\n";
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (fixtures) return run_fixture_mode(root);
  return run_lint_mode(root, allow_file, compile_commands, paths);
}
