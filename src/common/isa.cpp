#include "common/isa.hpp"

#include <cstdio>
#include <cstdlib>

namespace stormtune::isa {

const char* to_string(Path p) {
  switch (p) {
    case Path::kPortable: return "portable";
    case Path::kAvx2: return "avx2";
    case Path::kAvx512: return "avx512";
  }
  return "unknown";
}

bool parse(std::string_view name, Path& out) {
  if (name == "portable") { out = Path::kPortable; return true; }
  if (name == "avx2") { out = Path::kAvx2; return true; }
  if (name == "avx512") { out = Path::kAvx512; return true; }
  return false;
}

bool compiled(Path p) {
  switch (p) {
    case Path::kPortable:
      return true;
    case Path::kAvx2:
#ifdef STORMTUNE_HAVE_ISA_AVX2
      return true;
#else
      return false;
#endif
    case Path::kAvx512:
#ifdef STORMTUNE_HAVE_ISA_AVX512
      return true;
#else
      return false;
#endif
  }
  return false;
}

namespace {

bool cpu_supports(Path p) {
  switch (p) {
    case Path::kPortable:
      return true;
    case Path::kAvx2:
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Path::kAvx512:
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
  }
  return false;
}

}  // namespace

bool supported(Path p) { return compiled(p) && cpu_supports(p); }

Path detect_best() {
  // Widest first.
  for (const Path p : {Path::kAvx512, Path::kAvx2}) {
    if (supported(p)) return p;
  }
  return Path::kPortable;
}

Path from_environment() {
  const char* env = std::getenv("STORMTUNE_ISA");
  if (env == nullptr || std::string_view(env).empty() ||
      std::string_view(env) == "auto") {
    return detect_best();
  }
  Path p = Path::kPortable;
  if (!parse(env, p)) {
    std::fprintf(stderr,
                 "stormtune: STORMTUNE_ISA='%s' not recognized "
                 "(portable|avx2|avx512|auto); using portable\n",
                 env);
    return Path::kPortable;
  }
  if (!supported(p)) {
    std::fprintf(stderr, "stormtune: STORMTUNE_ISA=%s %s; using portable\n",
                 to_string(p),
                 compiled(p) ? "is not supported by this CPU"
                             : "is not compiled into this build");
    return Path::kPortable;
  }
  return p;
}

namespace {
Path g_selected = Path::kPortable;
bool g_resolved = false;
}  // namespace

Path selected() {
  if (!g_resolved) {
    g_selected = from_environment();
    g_resolved = true;
  }
  return g_selected;
}

Path select(Path p) {
  if (!supported(p)) {
    std::fprintf(stderr, "stormtune: ISA path %s %s; using portable\n",
                 to_string(p),
                 compiled(p) ? "is not supported by this CPU"
                             : "is not compiled into this build");
    p = Path::kPortable;
  }
  g_selected = p;
  g_resolved = true;
  return p;
}

}  // namespace stormtune::isa
