// ISA001/ISA002 — ISA-kernel hygiene.
//
// The runtime-dispatch contract pairs every variant TU
// `<stem>_{avx2,avx512}.cpp` with its portable sibling `<stem>.cpp`
// in the same directory. Two things keep the pairs honest:
//
//   ISA001  the variant must define the complete dispatch-table symbol
//           set. Portable exports are the functions in a `portable`
//           namespace or carrying a `_portable` suffix; variant exports
//           use the matching `avx2`/`avx512` namespace or suffix.
//           Both are canonicalized (marker removed) and diffed — a
//           variant missing a symbol means the dispatch table silently
//           falls back to a mixed portable/wide configuration that no CI
//           path pins. Both #if branches of a guarded variant body are
//           visible to the lexer, so a compiler that cannot target the
//           ISA does not hide a missing definition.
//   ISA002  every paired TU must be compiled with -ffp-contract=off per
//           compile_commands.json: FMA contraction is the one compiler
//           freedom that breaks bitwise portable/wide agreement without
//           any source change. TUs absent from the database are skipped
//           (headers, files outside the build).
//
// Both rules report at line 1 of the deficient TU: the defect is a
// property of the TU as a unit, not of any one line.
#include <algorithm>
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

/// Export set of `tu` for marker `tag` ("portable" or an ISA tag):
/// functions inside a `::tag::` namespace or named `*_tag`, canonicalized
/// by removing the marker.
std::set<std::string> export_set(const TranslationUnit& tu,
                                 const std::string& tag) {
  std::set<std::string> out;
  for (const FunctionInfo& fn : tu.functions) {
    if (fn.internal) continue;  // anonymous-namespace helper
    const std::string ns_marker = tag + "::";
    const std::string suffix = "_" + tag;
    std::string canon;
    const std::size_t ns_pos = fn.qualified.find(ns_marker);
    if (ns_pos != std::string::npos) {
      canon = fn.qualified.substr(0, ns_pos) +
              fn.qualified.substr(ns_pos + ns_marker.size());
    } else if (ends_with(fn.name, suffix)) {
      canon = fn.qualified.substr(0, fn.qualified.size() - suffix.size());
    } else {
      continue;
    }
    out.insert(canon);
  }
  return out;
}

}  // namespace

void run_isa_rules(const std::vector<TranslationUnit>& tus,
                   const CompileDb* db, std::vector<Finding>& out) {
  std::map<std::string, const TranslationUnit*> by_path;
  for (const TranslationUnit& tu : tus) by_path[tu.path] = &tu;

  std::set<std::string> flag_checked;  // each paired TU checked once
  auto check_fp_contract = [&](const TranslationUnit& tu) {
    if (db == nullptr || !flag_checked.insert(tu.path).second) return;
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
      if (it == by_path.end()) continue;  // no portable sibling to diff
      const TranslationUnit& portable_tu = *it->second;

      const std::set<std::string> portable =
          export_set(portable_tu, "portable");
      if (portable.empty()) continue;  // not a dispatch-table pair
      const std::set<std::string> variant = export_set(tu, tag);
      std::string missing;
      for (const std::string& sym : portable) {
        if (!variant.count(sym)) {
          if (!missing.empty()) missing += ", ";
          missing += sym;
        }
      }
      if (!missing.empty()) {
        out.push_back(Finding{
            "ISA001", tu.path, 1, first_line_excerpt(tu),
            std::string("incomplete dispatch-table symbol set vs ") +
                sibling + ": missing " + missing});
      }
      check_fp_contract(portable_tu);
      check_fp_contract(tu);
    }
  }
}

}  // namespace detlint
