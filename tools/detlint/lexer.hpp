// detlint v2 — tokenizer.
//
// The v1 linter worked on regex-matched lines of comment-stripped text;
// the call-graph rules (ALLOC001, CONC00x) need real tokens: the
// function extractor walks identifier/punctuation sequences, balances
// brackets, and tracks which tokens sit inside `#ifdef STORMTUNE_CHECKED`
// regions (checked-only verification code is exempt from the hot-path
// allocation rule by design — its scratch state allocates deliberately
// and does not exist in release builds).
//
// The lexer does NOT preprocess: both branches of every other conditional
// are visible to the rules, which is the conservative direction for a
// determinism lint (a violation in any compile configuration is a
// violation). String and character literal *contents* are blanked before
// tokenizing so no rule can fire on quoted text; comment text is dropped
// entirely.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace detlint {

enum class Tok {
  kIdent,   // identifiers and keywords (the parser distinguishes)
  kNumber,  // numeric literals, including separators/suffixes
  kString,  // a (blanked) string literal
  kChar,    // a (blanked) character literal
  kPunct,   // operators and punctuation, multi-char ops fused
};

struct Token {
  Tok kind;
  std::string text;
  std::size_t line;     // 1-based source line
  bool checked = false; // inside an #ifdef STORMTUNE_CHECKED region
};

/// Tokenize comment-stripped C++ source. `stripped` must preserve line
/// structure (strip_comments_and_strings output). Preprocessor lines are
/// consumed whole (with \-continuations) and update the STORMTUNE_CHECKED
/// conditional stack instead of producing tokens.
std::vector<Token> lex(const std::string& stripped);

/// Replace the contents of //- and /**/-comments, string literals
/// (including basic R"delim(...)delim" raw strings), and character
/// literals with spaces, preserving line structure so findings carry real
/// line numbers. Ported unchanged from detlint v1.
std::string strip_comments_and_strings(const std::string& text);

std::vector<std::string> split_lines(const std::string& text);
std::string trim(const std::string& s);
bool starts_with(const std::string& s, const std::string& prefix);
bool ends_with(const std::string& s, const std::string& suffix);

}  // namespace detlint
