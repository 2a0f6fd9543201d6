// Runtime ISA path selection for the SIMD-dispatched kernels.
//
// The dense kernels (linalg/kernels.hpp factorization, solve and distance
// kernels, gp/kernel_batch correlation transforms) exist in several lane
// widths. Exactly one path is active per process: resolved lazily on first
// use from the STORMTUNE_ISA environment variable ("portable", "avx2",
// "avx512", or "auto") — the only knob; there is no command-line flag —
// defaulting to the widest path this binary compiled in AND this CPU
// supports. Other architectures (AArch64 included) run the portable path.
// `select()` overrides the choice for tests.
//
// Determinism contract: results are bitwise-reproducible per selected path.
// The portable path is the pre-dispatch behavior every golden test pins;
// the linalg kernels are element-wise and order-preserving, so they are
// bit-identical on every path, but the correlation transform's
// math-library lanes may round differently — hence goldens force kPortable
// and the agreement tests bound wide-vs-scalar divergence in ulps.
//
// Selection is plain (non-atomic) state: it is mutated during startup or in
// single-threaded test setup, never concurrently with kernel execution.
#pragma once

#include <cstddef>
#include <string_view>

namespace stormtune::isa {

enum class Path : unsigned char {
  kPortable = 0,  ///< scalar / baseline-x86-64 code, identical to pre-dispatch
  kAvx2 = 1,      ///< 4-lane double vectors (x86-64 AVX2)
  kAvx512 = 2,    ///< 8-lane double vectors (x86-64 AVX-512F)
};

inline constexpr std::size_t kNumPaths = 3;

const char* to_string(Path p);

/// Parse a path name ("portable", "avx2", "avx512"). Returns false
/// (out untouched) for anything else, including "auto" — callers that accept
/// "auto" handle it before parsing.
bool parse(std::string_view name, Path& out);

/// True when this binary contains the kernels for `p` (compile-time).
bool compiled(Path p);

/// True when `p` is compiled in and the running CPU can execute it.
bool supported(Path p);

/// Widest supported path — what "auto" resolves to.
Path detect_best();

/// Resolution from the STORMTUNE_ISA environment variable: unset or "auto"
/// yields detect_best(); a named path yields that path when supported; an
/// unknown or unsupported name clamps to kPortable with a note on stderr
/// (an explicit request that cannot be honored must pin the portable path,
/// never silently pick a wide one).
Path from_environment();

/// The active path; resolved via from_environment() on first call.
Path selected();

/// Override the active path (test setup). Unsupported requests
/// clamp to kPortable with a note on stderr. Returns the path actually
/// selected.
Path select(Path p);

}  // namespace stormtune::isa
