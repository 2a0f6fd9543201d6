// Checked-build invariant layer (STORMTUNE_CHECKED).
//
// The performance PRs made the hot data structures intricate — free-listed
// slot pools with creation-ticket ordering, a departure winner tree, a
// capacity-tracked Cholesky factor with a transposed mirror — and their
// correctness claim ("bitwise-identical across thread counts and workspace
// reuse") rests on internal invariants that release builds cannot afford to
// re-verify on every operation. This header provides the macro layer that
// makes those invariants executable in a dedicated build:
//
//  * `cmake -DSTORMTUNE_CHECKED=ON` defines STORMTUNE_CHECKED, turning
//    STORMTUNE_DCHECK / STORMTUNE_INVARIANT into real checks that throw
//    stormtune::InvariantError on violation;
//  * in any other build both macros compile to `((void)0)` — the condition
//    expression is NOT evaluated, so checks may call functions and the
//    release hot paths pay nothing (verified by the BENCH_* records);
//  * heavier verification code (liveness bitmaps, O(n) structure walks,
//    sampling comparisons) is gated with plain `#ifdef STORMTUNE_CHECKED`
//    blocks so its state does not even exist in release builds.
//
// Macro roles:
//  * STORMTUNE_DCHECK — cheap local precondition at a call site (index in
//    range, slot alive, counter monotone). O(1), fine to sprinkle per-op.
//  * STORMTUNE_INVARIANT — a data-structure invariant (heap property,
//    index-map bijection, SPD entry conditions). May sit inside O(n)
//    verification walks that only run in checked builds.
//
// InvariantError deliberately derives from std::logic_error, NOT from
// stormtune::Error: recovery paths that catch Error (the GP's jitter
// escalation catches Cholesky failures to retry with a larger nugget) must
// never swallow an invariant violation — a fired invariant is a bug, not a
// numerical condition to retry.
#pragma once

#include <stdexcept>
#include <string>

namespace stormtune {

/// Thrown by STORMTUNE_DCHECK / STORMTUNE_INVARIANT in checked builds.
class InvariantError : public std::logic_error {
 public:
  explicit InvariantError(const std::string& what) : std::logic_error(what) {}
};

/// True when this translation unit was compiled with STORMTUNE_CHECKED.
/// Tests use it to assert both sides of the contract: the failure paths
/// fire in checked builds and the macros are inert in release builds.
#ifdef STORMTUNE_CHECKED
inline constexpr bool kCheckedBuild = true;
#else
inline constexpr bool kCheckedBuild = false;
#endif

namespace detail {
[[noreturn]] inline void raise_invariant(const char* file, int line,
                                         const std::string& msg) {
  throw InvariantError(std::string(file) + ":" + std::to_string(line) +
                       ": invariant violated: " + msg);
}
}  // namespace detail

}  // namespace stormtune

// Hot-path marker for detlint's ALLOC001 rule. Annotating a function
// definition with STORMTUNE_HOT declares "this is steady-state code: no
// fresh allocation may be reachable from here through the project call
// graph". The macro expands to nothing — it exists purely so the static
// lint (tools/detlint) can find the annotation and walk the call graph
// from it; the dynamic malloc-probe tests remain the runtime enforcement
// of the same contract. Growth into persistent receivers (the repo's
// high-water-capacity idiom) is NOT a violation; see DESIGN.md
// "Correctness tooling".
#define STORMTUNE_HOT

#ifdef STORMTUNE_CHECKED

#define STORMTUNE_DCHECK(cond, msg)                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::stormtune::detail::raise_invariant(__FILE__, __LINE__, (msg));  \
    }                                                                   \
  } while (false)

#define STORMTUNE_INVARIANT(cond, msg)                                  \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::stormtune::detail::raise_invariant(__FILE__, __LINE__, (msg));  \
    }                                                                   \
  } while (false)

#else  // release: compiled out entirely; the condition is never evaluated

#define STORMTUNE_DCHECK(cond, msg) ((void)0)
#define STORMTUNE_INVARIANT(cond, msg) ((void)0)

#endif
