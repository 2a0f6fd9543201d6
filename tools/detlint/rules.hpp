// detlint v2 — rule registry.
//
// Rule families (see DESIGN.md "Correctness tooling" for the rationale
// table):
//
//   DET001..DET005  the v1 determinism rules, ported onto the indexed TU
//                   (DET003 now also covers std::stable_sort,
//                   std::partial_sort and std::nth_element).
//   ALLOC001        no transitive allocation from STORMTUNE_HOT functions
//                   through the project call graph (fresh allocations only;
//                   high-water growth into persistent receivers stays the
//                   malloc-probe tests' job).
//   CONC002         atomic operations that do not name an explicit
//                   std::memory_order.
//   CONC003         non-const reference data members in Strand-derived
//                   classes (mutable shared state captured per pass).
//   ISA002          a dispatch-paired kernel TU is compiled without
//                   -ffp-contract=off (per compile_commands.json).
//
// Per-TU rules take one TranslationUnit; project rules take the whole set
// because their evidence is cross-TU (the call graph, atomic member names
// declared in headers, portable/variant TU pairs).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "detlint/compile_commands.hpp"
#include "detlint/functions.hpp"

namespace detlint {

struct Finding {
  std::string rule;
  std::string path;     // relative to the lint root, '/'-separated
  std::size_t line;     // 1-based
  std::string excerpt;  // stripped source line (allowlist match target)
  std::string detail;
  bool allowed = false;  // suppressed by an allowlist entry
};

/// DET001..DET005 on one TU (path predicates select applicable layers).
void run_det_rules(const TranslationUnit& tu, std::vector<Finding>& out);

/// ALLOC001 over the project call graph.
void run_alloc_rules(const std::vector<TranslationUnit>& tus,
                     std::vector<Finding>& out);

/// CONC002..CONC003 (atomic names and Strand bases are cross-TU).
void run_conc_rules(const std::vector<TranslationUnit>& tus,
                    std::vector<Finding>& out);

/// ISA002 over kernel TU pairs. `db` may be nullptr (no
/// compile_commands.json available — the rule is skipped).
void run_isa_rules(const std::vector<TranslationUnit>& tus,
                   const CompileDb* db, std::vector<Finding>& out);

/// Stable presentation order: path, then line, then rule id.
void sort_findings(std::vector<Finding>& findings);

}  // namespace detlint
