// CONC002..CONC003 — strand capture-safety rules.
//
// The scheduler's bit-identity argument has two source-level legs:
//
//   CONC002  every atomic operation names its memory order. The scheduler's
//            correctness proof (DESIGN.md) argues per-site orderings;
//            an implicit seq_cst default means the next reader cannot tell
//            a considered ordering from an accidental one.
//   CONC003  a Strand-derived class (the unit the pool schedules) must not
//            hold mutable reference members to shared state. Sanctioned
//            channels: const references, RNG streams (`Rng&` — per-strand
//            by construction), and per-shard workspaces (`*Workspace&`).
//            Anything else is an audited allowlist decision.
//
// Atomic member names are declared in headers and used in .cpp files, and
// Strand subclasses may derive through intermediate bases in another TU, so
// both CONC002 and CONC003 collect evidence project-wide before flagging.
#include <map>
#include <set>
#include <string>

#include "detlint/lexer.hpp"
#include "detlint/rules.hpp"

namespace detlint {

namespace {

constexpr std::size_t npos = static_cast<std::size_t>(-1);

bool is(const std::vector<Token>& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].text == text;
}

bool is_ident(const std::vector<Token>& t, std::size_t i) {
  return i < t.size() && t[i].kind == Tok::kIdent;
}

std::size_t skip_balanced(const std::vector<Token>& t, std::size_t i) {
  const std::string& open = t[i].text;
  const char* close = open == "(" ? ")" : open == "[" ? "]" : "}";
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (t[j].text == open) ++depth;
    else if (t[j].text == close && --depth == 0) return j + 1;
  }
  return npos;
}

bool in_src(const std::string& path) { return starts_with(path, "src/"); }

// ---------------------------------------------------------------------------
// CONC002 — atomic operations must name an explicit std::memory_order.
// ---------------------------------------------------------------------------

// Atomic member operations that accept a memory-order argument.
const std::set<std::string>& ordered_atomic_ops() {
  static const std::set<std::string> k = {
      "load",       "store",     "exchange",  "fetch_add", "fetch_sub",
      "fetch_and",  "fetch_or",  "fetch_xor", "test_and_set", "clear",
      "compare_exchange_weak",   "compare_exchange_strong", "wait"};
  return k;
}

void collect_atomic_names(const TranslationUnit& tu,
                          std::set<std::string>& names) {
  const std::vector<Token>& t = tu.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent) continue;
    std::size_t j = npos;
    if (t[i].text == "atomic" && is(t, i + 1, "<")) {
      int depth = 0;
      for (std::size_t k = i + 1; k < t.size() && k < i + 64; ++k) {
        if (t[k].text == "<") ++depth;
        else if (t[k].text == ">" && --depth == 0) {
          j = k + 1;
          break;
        } else if (t[k].text == ">>") {
          depth -= 2;
          if (depth <= 0) {
            j = k + 1;
            break;
          }
        } else if (t[k].text == ";" || t[k].text == "{") {
          break;
        }
      }
    } else if (t[i].text == "atomic_flag" || t[i].text == "atomic_bool") {
      j = i + 1;
    }
    if (j == npos) continue;
    while (j < t.size() &&
           (t[j].text == "&" || t[j].text == "*" || t[j].text == "&&")) {
      ++j;
    }
    if (is_ident(tu.tokens, j)) names.insert(t[j].text);
  }
}

void check_conc002(const TranslationUnit& tu,
                   const std::set<std::string>& atomics,
                   std::vector<Finding>& out) {
  const std::vector<Token>& t = tu.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent) continue;
    // member op: <atomic>.op(args) / <atomic>->op(args)
    if (ordered_atomic_ops().count(t[i].text) && is(t, i + 1, "(") &&
        i >= 2 && (is(t, i - 1, ".") || is(t, i - 1, "->")) &&
        is_ident(t, i - 2) && atomics.count(t[i - 2].text)) {
      const std::size_t end = skip_balanced(t, i + 1);
      if (end == npos) continue;
      bool has_order = false;
      for (std::size_t k = i + 2; k + 1 < end; ++k) {
        if (t[k].kind == Tok::kIdent &&
            (t[k].text == "memory_order" ||
             starts_with(t[k].text, "memory_order_"))) {
          has_order = true;
          break;
        }
      }
      if (!has_order) {
        out.push_back(Finding{
            "CONC002", tu.path, t[i].line,
            trim(tu.lines[t[i].line - 1]),
            "atomic " + t[i].text + "() on '" + t[i - 2].text +
                "' without an explicit std::memory_order (implicit seq_cst "
                "hides whether the ordering was considered)"});
      }
      continue;
    }
    // operator form: ++x / x++ / x += 1 on an atomic (always seq_cst).
    if (atomics.count(t[i].text)) {
      const bool inc_dec =
          is(t, i + 1, "++") || is(t, i + 1, "--") ||
          (i > 0 && (is(t, i - 1, "++") || is(t, i - 1, "--")));
      const bool compound =
          is(t, i + 1, "+=") || is(t, i + 1, "-=") || is(t, i + 1, "&=") ||
          is(t, i + 1, "|=") || is(t, i + 1, "^=");
      if (inc_dec || compound) {
        out.push_back(Finding{
            "CONC002", tu.path, t[i].line,
            trim(tu.lines[t[i].line - 1]),
            "operator-form atomic update of '" + t[i].text +
                "' (implicit seq_cst); use fetch_add/fetch_sub/store with "
                "an explicit std::memory_order"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CONC003 — non-const reference members in Strand-derived classes.
// ---------------------------------------------------------------------------
void check_conc003(const std::vector<TranslationUnit>& tus,
                   std::vector<Finding>& out) {
  // Transitive closure of classes deriving from Strand, by last name
  // component (bases may live in another TU).
  std::set<std::string> strand_like = {"Strand"};
  bool changed = true;
  while (changed) {
    changed = false;
    for (const TranslationUnit& tu : tus) {
      for (const ClassInfo& ci : tu.classes) {
        if (ci.name.empty() || strand_like.count(ci.name)) continue;
        for (const std::string& base : ci.bases) {
          if (strand_like.count(base)) {
            strand_like.insert(ci.name);
            changed = true;
            break;
          }
        }
      }
    }
  }
  for (const TranslationUnit& tu : tus) {
    if (!in_src(tu.path)) continue;
    const std::vector<Token>& t = tu.tokens;
    for (const ClassInfo& ci : tu.classes) {
      if (ci.name == "Strand" || !strand_like.count(ci.name)) continue;
      // Walk top-level declaration segments of the class body. Balanced
      // brace groups (member function bodies, brace initializers) and
      // paren groups (parameter lists) are skipped; a '(' leaves a marker
      // so `T& f()` reads as a function, not a reference member.
      std::vector<std::size_t> seg;  // token indices, "(" markers included
      bool seg_has_paren = false;
      bool seg_has_assign = false;
      auto flush = [&]() {
        if (!seg_has_paren && !seg_has_assign) {
          bool saw_const = false;
          bool sanctioned = false;
          for (std::size_t k = 0; k < seg.size(); ++k) {
            const Token& tok = t[seg[k]];
            if (tok.text == "const") saw_const = true;
            if (tok.kind == Tok::kIdent &&
                (tok.text == "Rng" || ends_with(tok.text, "Workspace"))) {
              sanctioned = true;
            }
            if ((tok.text == "&" || tok.text == "&&") && !saw_const &&
                !sanctioned && k + 1 < seg.size() &&
                t[seg[k + 1]].kind == Tok::kIdent) {
              out.push_back(Finding{
                  "CONC003", tu.path, tok.line,
                  trim(tu.lines[tok.line - 1]),
                  "mutable reference member '" + t[seg[k + 1]].text +
                      "' in Strand-derived class " + ci.name +
                      " (shared state captured per pass; audit or pass "
                      "through a sanctioned channel)"});
              break;
            }
          }
        }
        seg.clear();
        seg_has_paren = false;
        seg_has_assign = false;
      };
      std::size_t i = ci.body_begin;
      while (i < ci.body_end && i < t.size()) {
        const std::string& x = t[i].text;
        if (x == "{") {
          const std::size_t k = skip_balanced(t, i);
          flush();  // function body or brace-init terminates the declarator
          i = k == npos ? i + 1 : k;
          continue;
        }
        if (x == "(") {
          const std::size_t k = skip_balanced(t, i);
          seg_has_paren = true;
          i = k == npos ? i + 1 : k;
          continue;
        }
        if (x == ";") {
          flush();
          ++i;
          continue;
        }
        if (x == ":" && i > ci.body_begin &&
            (is(t, i - 1, "public") || is(t, i - 1, "protected") ||
             is(t, i - 1, "private"))) {
          if (!seg.empty()) seg.pop_back();  // drop the access keyword
          ++i;
          continue;
        }
        if (x == "=") seg_has_assign = true;
        seg.push_back(i);
        ++i;
      }
      flush();
    }
  }
}

}  // namespace

void run_conc_rules(const std::vector<TranslationUnit>& tus,
                    std::vector<Finding>& out) {
  std::set<std::string> atomics;
  for (const TranslationUnit& tu : tus) collect_atomic_names(tu, atomics);
  for (const TranslationUnit& tu : tus) {
    if (!in_src(tu.path)) continue;
    check_conc002(tu, atomics, out);
  }
  check_conc003(tus, out);
}

}  // namespace detlint
