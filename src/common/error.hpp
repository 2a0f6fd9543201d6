// Error handling primitives used across the library.
//
// Library code throws stormtune::Error (derived from std::runtime_error) for
// precondition violations and unrecoverable states; the STORMTUNE_REQUIRE
// macro keeps call sites terse. Its message is what a user sees (the CLI
// prints it after "error: "), so it carries no source location: the text
// names the bad input and stays the same from build to build. The checks
// that report internal corruption (common/check.hpp) keep their file and
// line.
#pragma once

#include <stdexcept>
#include <string>

namespace stormtune {

/// Base exception for all stormtune errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] inline void raise(const std::string& msg) { throw Error(msg); }
}  // namespace detail

}  // namespace stormtune

/// Throw stormtune::Error carrying `msg` if `cond` does not hold.
#define STORMTUNE_REQUIRE(cond, msg)                    \
  do {                                                  \
    if (!(cond)) ::stormtune::detail::raise((msg));     \
  } while (false)
