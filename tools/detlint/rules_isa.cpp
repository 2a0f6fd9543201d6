// ISA002 — ISA-kernel hygiene.
//
// The runtime-dispatch contract pairs every variant TU
// `<stem>_{avx2,avx512}.cpp` with its portable sibling `<stem>.cpp`
// in the same directory. Every paired TU must be compiled with
// -ffp-contract=off per compile_commands.json: FMA contraction is the one
// compiler freedom that breaks bitwise portable/wide agreement without
// any source change. TUs absent from the database are skipped (headers,
// files outside the build).
//
// Symbol parity needs no rule: every path's table is one template
// instantiated over its lane type (linalg_kernels::detail::make_ops), so
// an entry missing from it fails to compile on every path.
//
// The rule reports at line 1 of the deficient TU: the defect is a
// property of the TU as a unit, not of any one line.
#include <map>
#include <set>
#include <string>

#include "detlint/lexer.hpp"
#include "detlint/rules.hpp"

namespace detlint {

namespace {

const char* const kTags[] = {"avx2", "avx512"};

std::string first_line_excerpt(const TranslationUnit& tu) {
  return tu.lines.empty() ? std::string() : trim(tu.lines[0]);
}

}  // namespace

void run_isa_rules(const std::vector<TranslationUnit>& tus,
                   const CompileDb* db, std::vector<Finding>& out) {
  if (db == nullptr) return;
  std::map<std::string, const TranslationUnit*> by_path;
  for (const TranslationUnit& tu : tus) by_path[tu.path] = &tu;

  std::set<std::string> flag_checked;  // each paired TU checked once
  auto check_fp_contract = [&](const TranslationUnit& tu) {
    if (!flag_checked.insert(tu.path).second) return;
    const CompileCommand* cc = db->find(tu.path);
    if (cc == nullptr) return;
    if (cc->command.find("-ffp-contract=off") == std::string::npos) {
      out.push_back(Finding{
          "ISA002", tu.path, 1, first_line_excerpt(tu),
          "dispatch-paired kernel TU compiled without -ffp-contract=off "
          "(FMA contraction breaks bitwise portable/wide agreement)"});
    }
  };

  for (const TranslationUnit& tu : tus) {
    for (const char* tag : kTags) {
      const std::string marker = std::string("_") + tag + ".cpp";
      if (!ends_with(tu.path, marker)) continue;
      const std::string sibling =
          tu.path.substr(0, tu.path.size() - marker.size()) + ".cpp";
      const auto it = by_path.find(sibling);
      if (it == by_path.end()) continue;  // no portable sibling
      check_fp_contract(*it->second);
      check_fp_contract(tu);
    }
  }
}

}  // namespace detlint
