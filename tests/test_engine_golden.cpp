// Golden-equivalence test for the discrete-event engine.
//
// The expected values below were captured (as hexfloats, so the comparison
// is exact) from the engine BEFORE the PR-2 hot-path overhaul — free-listed
// job/batch slots, the indexed per-machine departure heap, and the 4-ary
// event queue. The rewrite is required to be BITWISE-identical for a fixed
// seed, which these cases pin down across the three synthetic topology
// sizes, a stressed deployment (contention + time imbalance + memory
// pressure + explicit ackers + max-task normalization), background load,
// Sundog, and the OOM-crash path. The last case, one executor and one
// receiver thread per worker, was captured later, from the engine just
// before the departure pop started deferring its tree write.
//
// If an intentional behavior change ever invalidates these numbers,
// regenerate them with the dump-table loop at the bottom of this file's
// history: print every SimResult field with %a and paste the table.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/error.hpp"
#include "stormsim/engine.hpp"
#include "stormsim/fluid.hpp"
#include "topology/sundog.hpp"
#include "topology/synthetic.hpp"
#include "tuning/objective.hpp"

// Binary-wide allocation counters (in the style of the CholeskyWorkspace
// allocation_count() tests): every operator new bumps the first, so a test
// can assert that a code region performed zero heap allocations; the second
// counts only allocations of at least kLargeNewBytes, the blocks whose churn
// turns into page faults when glibc maps them fresh or trims them back to
// the kernel; the third sums the bytes requested, a region's footprint.
// The matching deletes below free with std::free: left to the default, they
// would pair this malloc with the runtime's own operator delete, which
// AddressSanitizer reports as an alloc-dealloc mismatch.
static std::atomic<std::size_t> g_new_calls{0};
static std::atomic<std::size_t> g_large_new_calls{0};
static std::atomic<std::size_t> g_new_bytes{0};
constexpr std::size_t kLargeNewBytes = 64 * 1024;

void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  g_new_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size >= kLargeNewBytes) {
    g_large_new_calls.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow forms too (std::stable_sort's temporary buffer takes one), so
// that every delete below frees a block this file's malloc returned.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

// Not inlined: gcc's -Wmismatched-new-delete would see std::free meet a
// pointer from operator new at the call site, not knowing the new above.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace stormtune::testprobe {

// External-linkage accessor so other test files in this binary can probe the
// same counter (the replacement operator new above is binary-wide; the
// counter itself has internal linkage). Used by the sliding-window
// allocation-free test in test_linalg.cpp.
std::size_t new_call_count() {
  return g_new_calls.load(std::memory_order_relaxed);
}

// Allocations of at least 64 KiB only; used by the acquisition-search
// workspace test in test_bayesopt.cpp.
std::size_t large_new_call_count() {
  return g_large_new_calls.load(std::memory_order_relaxed);
}

// Bytes requested through operator new; used by the surrogate footprint
// test in test_bayesopt.cpp.
std::size_t new_byte_count() {
  return g_new_bytes.load(std::memory_order_relaxed);
}

}  // namespace stormtune::testprobe

namespace stormtune {
namespace {

struct GoldenNode {
  const char* name;
  std::size_t tasks;
  std::size_t batches_processed;
  double mean_stage_ms;
  double max_stage_ms;
  double busy_core_ms;
};

struct GoldenExpect {
  double throughput_tuples_per_s;
  double noiseless_throughput;
  std::size_t batches_committed;
  std::size_t batches_emitted;
  double tuples_committed;
  double mean_batch_latency_ms;
  double network_bytes_per_s_per_worker;
  double peak_nic_utilization;
  double cpu_utilization;
  std::size_t total_tasks;
  bool crashed;
  std::vector<GoldenNode> nodes;
};

struct GoldenCase {
  const char* name;
  GoldenExpect expect;
};

const GoldenCase kGolden[] = {
    {"small/h4/seed1",
     {0x1.3911299b38c62p+5, 0x1.4p+5, 1u, 6u, 0x1.9p+7, 0x1.d255e72888888p+11,
      0x1.36bbbbbbbbbbbp+13, 0x1.dap-12, 0x1.1e3d6871124a2p-4, 40u, false,
      {
          {"spout0", 4u, 6u, 0x1.bc71c71c71c73p+9, 0x1.a0aaaaaaaaaacp+10, 0x1.f3ffffffffffep+12},
          {"spout1", 4u, 6u, 0x1.bc71c71c71c73p+9, 0x1.a0aaaaaaaaaacp+10, 0x1.f3ffffffffffep+12},
          {"spout2", 4u, 6u, 0x1.bc71c71c71c73p+9, 0x1.a0aaaaaaaaaacp+10, 0x1.f3ffffffffffep+12},
          {"bolt3", 4u, 6u, 0x1.4d6aaaaaaaaabp+8, 0x1.4d6aaaaaaaabp+8, 0x1.f3ffffffffffep+12},
          {"bolt4", 4u, 4u, 0x1.f41p+10, 0x1.7708p+11, 0x1.f4p+13},
          {"bolt5", 4u, 6u, 0x1.4d6aaaaaaaaabp+8, 0x1.4d6aaaaaaaabp+8, 0x1.f3ffffffffffep+12},
          {"bolt6", 4u, 1u, 0x1.f420000000001p+10, 0x1.f420000000001p+10, 0x1.f400000000001p+12},
          {"bolt7", 4u, 5u, 0x1.4d5fffffffffep+10, 0x1.f40aaaaaaaaaap+10, 0x1.a0aaaaaaaaaaap+13},
          {"bolt8", 4u, 1u, 0x1.23bd555555554p+11, 0x1.23bd555555554p+11, 0x1.23aaaaaaaaaabp+13},
          {"bolt9", 4u, 5u, 0x1.4d6aaaaaaaaafp+9, 0x1.4d6aaaaaaaab4p+9, 0x1.a0aaaaaaaaaaap+13},
      }}},
    {"small/h4/seed2015",
     {0x1.447cfd78df231p+5, 0x1.4p+5, 1u, 6u, 0x1.9p+7, 0x1.d255e72888888p+11,
      0x1.36bbbbbbbbbbbp+13, 0x1.dap-12, 0x1.1e3d6871124a2p-4, 40u, false,
      {
          {"spout0", 4u, 6u, 0x1.bc71c71c71c73p+9, 0x1.a0aaaaaaaaaacp+10, 0x1.f3ffffffffffep+12},
          {"spout1", 4u, 6u, 0x1.bc71c71c71c73p+9, 0x1.a0aaaaaaaaaacp+10, 0x1.f3ffffffffffep+12},
          {"spout2", 4u, 6u, 0x1.bc71c71c71c73p+9, 0x1.a0aaaaaaaaaacp+10, 0x1.f3ffffffffffep+12},
          {"bolt3", 4u, 6u, 0x1.4d6aaaaaaaaabp+8, 0x1.4d6aaaaaaaabp+8, 0x1.f3ffffffffffep+12},
          {"bolt4", 4u, 4u, 0x1.f41p+10, 0x1.7708p+11, 0x1.f4p+13},
          {"bolt5", 4u, 6u, 0x1.4d6aaaaaaaaabp+8, 0x1.4d6aaaaaaaabp+8, 0x1.f3ffffffffffep+12},
          {"bolt6", 4u, 1u, 0x1.f420000000001p+10, 0x1.f420000000001p+10, 0x1.f400000000001p+12},
          {"bolt7", 4u, 5u, 0x1.4d5fffffffffep+10, 0x1.f40aaaaaaaaaap+10, 0x1.a0aaaaaaaaaaap+13},
          {"bolt8", 4u, 1u, 0x1.23bd555555554p+11, 0x1.23bd555555554p+11, 0x1.23aaaaaaaaaabp+13},
          {"bolt9", 4u, 5u, 0x1.4d6aaaaaaaaafp+9, 0x1.4d6aaaaaaaab4p+9, 0x1.a0aaaaaaaaaaap+13},
      }}},
    {"medium/h6/seed1",
     {0x1.3911299b38c62p+8, 0x1.4p+8, 8u, 13u, 0x1.9p+10, 0x1.1ee852f94ec7ap+11,
      0x1.5d39f9f9f9fa2p+14, 0x1.4e9696969696cp-12, 0x1.ee5abe03bee11p-3, 300u, false,
      {
          {"spout0", 6u, 13u, 0x1.1665eaa7bad1ap+6, 0x1.8c032fefcd45cp+7, 0x1.7e5a5a5a5a59ep+11},
          {"spout1", 6u, 13u, 0x1.1586df3c2468cp+6, 0x1.8828982f28984p+7, 0x1.7e5a5a5a5a59ep+11},
          {"spout2", 6u, 13u, 0x1.166b3fe898947p+6, 0x1.8c13a5f826f86p+7, 0x1.7e5a5a5a5a59ep+11},
          {"spout3", 6u, 13u, 0x1.1586f382e9697p+6, 0x1.8828da1528da2p+7, 0x1.7e5a5a5a5a59ep+11},
          {"spout4", 6u, 13u, 0x1.1757af16dababp+6, 0x1.8e2900a31a443p+7, 0x1.7e5a5a5a5a59ep+11},
          {"spout5", 6u, 13u, 0x1.1666c86573fbfp+6, 0x1.8c09a2c6f48a9p+7, 0x1.7e5a5a5a5a59ep+11},
          {"spout6", 6u, 13u, 0x1.175aa5f9cb4ccp+6, 0x1.8e2c14362028p+7, 0x1.7e5a5a5a5a59ep+11},
          {"spout7", 6u, 13u, 0x1.15877f3451b89p+6, 0x1.882a7f22bbba4p+7, 0x1.7e5a5a5a5a59ep+11},
          {"spout8", 6u, 13u, 0x1.18a277d22a345p+6, 0x1.90481a9e156a3p+7, 0x1.7e5a5a5a5a59ep+11},
          {"spout9", 6u, 13u, 0x1.15870ad44bf6fp+6, 0x1.88293cee293cfp+7, 0x1.7e5a5a5a5a59ep+11},
          {"spout10", 6u, 13u, 0x1.15877020f526fp+6, 0x1.8829cbc14e5e1p+7, 0x1.7e5a5a5a5a59ep+11},
          {"spout11", 6u, 13u, 0x1.158722aa196bep+6, 0x1.8829cbc14e5e1p+7, 0x1.7e5a5a5a5a59ep+11},
          {"bolt12", 6u, 13u, 0x1.39da76e373b0cp+5, 0x1.39e472a260caap+5, 0x1.7e5a5a5a5a59ep+11},
          {"spout13", 6u, 13u, 0x1.1665eaa7bad1ap+6, 0x1.8c032fefcd45cp+7, 0x1.7e5a5a5a5a59ep+11},
          {"bolt14", 6u, 13u, 0x1.3b0040c5cb34bp+5, 0x1.41e85fdff5808p+5, 0x1.7e5a5a5a5a59ep+11},
          {"bolt15", 6u, 13u, 0x1.3cd10d6f81af7p+5, 0x1.497b4141c88acp+5, 0x1.7e5a5a5a5a59ep+11},
          {"bolt16", 6u, 13u, 0x1.3cca81b1cc401p+5, 0x1.4963e8c9d138p+5, 0x1.7e5a5a5a5a59ep+11},
          {"bolt17", 6u, 13u, 0x1.3d824258755dcp+5, 0x1.4a2d7c1014b24p+5, 0x1.7e5a5a5a5a59ep+11},
          {"bolt18", 6u, 13u, 0x1.b4a30e25fc851p+6, 0x1.d69f9c3d9ccc2p+7, 0x1.7e5a5a5a5a59ep+12},
          {"spout19", 6u, 13u, 0x1.175aa5f9cb4ccp+6, 0x1.8e2c14362028p+7, 0x1.7e5a5a5a5a59ep+11},
          {"spout20", 6u, 13u, 0x1.1759b2a88f45bp+6, 0x1.8e28fd6e1d112p+7, 0x1.7e5a5a5a5a59ep+11},
          {"bolt21", 6u, 13u, 0x1.42991e8614a6bp+5, 0x1.5a476d4cea8d4p+5, 0x1.7e5a5a5a5a59ep+11},
          {"bolt22", 6u, 12u, 0x1.29ffd00da7fffp+8, 0x1.4c5983f026432p+9, 0x1.b92d2d2d2d2d1p+13},
          {"spout23", 6u, 13u, 0x1.15875fbdf7e6cp+6, 0x1.88296d587291fp+7, 0x1.7e5a5a5a5a59ep+11},
          {"bolt24", 6u, 13u, 0x1.6416a25b855fbp+7, 0x1.af70ac26bfb8dp+8, 0x1.1ec3c3c3c3c43p+13},
          {"spout25", 6u, 13u, 0x1.15870fa95784dp+6, 0x1.88292f3148453p+7, 0x1.7e5a5a5a5a59ep+11},
          {"bolt26", 6u, 12u, 0x1.4bd33614139eep+8, 0x1.9bc5b2deb363dp+9, 0x1.b92d2d2d2d2d1p+13},
          {"bolt27", 6u, 12u, 0x1.bcc3f59a2de73p+7, 0x1.d682cf5f997c4p+8, 0x1.60f0f0f0f0f0ap+13},
          {"bolt28", 6u, 12u, 0x1.8336581a7cbf7p+8, 0x1.af5bf25f36f7ap+9, 0x1.08b4b4b4b4b51p+14},
          {"bolt29", 6u, 12u, 0x1.2cfd7c15ac3b9p+7, 0x1.127706562d10ep+8, 0x1.08b4b4b4b4b51p+13},
          {"bolt30", 6u, 13u, 0x1.3e324bdc6f57bp+5, 0x1.49f7b92edf7e8p+5, 0x1.7e5a5a5a5a59ep+11},
          {"bolt31", 6u, 12u, 0x1.ff9206bbe6b74p+7, 0x1.3a445f8c3bdbep+9, 0x1.60f0f0f0f0f0ap+13},
          {"bolt32", 6u, 12u, 0x1.d2f1649f74e3bp+7, 0x1.60fdbf637dbf4p+8, 0x1.b92d2d2d2d2d1p+13},
          {"bolt33", 6u, 13u, 0x1.665a4be573c99p+7, 0x1.b26cc1bf850d9p+8, 0x1.1ec3c3c3c3c43p+13},
          {"bolt34", 6u, 13u, 0x1.b744b3041197p+6, 0x1.dadae6b001978p+7, 0x1.7e5a5a5a5a59ep+12},
          {"bolt35", 6u, 12u, 0x1.830382a286e6p+8, 0x1.4d602bcbefffap+9, 0x1.34d2d2d2d2d2cp+14},
          {"bolt36", 6u, 8u, 0x1.a066d528caca9p+10, 0x1.27fd5cbf65862p+11, 0x1.9bc3c3c3c3c3bp+14},
          {"bolt37", 6u, 12u, 0x1.4ade77c0ae56ep+8, 0x1.9ad1009b87236p+9, 0x1.b92d2d2d2d2d1p+13},
          {"bolt38", 6u, 13u, 0x1.39d5cdc41ef0fp+5, 0x1.39e1e1e1e1ep+5, 0x1.7e5a5a5a5a59ep+11},
          {"bolt39", 6u, 13u, 0x1.39e14f1499ccap+5, 0x1.39e5fe066256p+5, 0x1.7e5a5a5a5a59ep+11},
          {"bolt40", 6u, 13u, 0x1.b347feae7485cp+6, 0x1.d680575ada18ap+7, 0x1.7e5a5a5a5a59ep+12},
          {"bolt41", 6u, 11u, 0x1.0798163182b8cp+9, 0x1.c305050505052p+9, 0x1.4387878787876p+14},
          {"bolt42", 6u, 13u, 0x1.3e09be028b305p+5, 0x1.4979fe412d7e4p+5, 0x1.7e5a5a5a5a59ep+11},
          {"bolt43", 6u, 12u, 0x1.82ebd138809c5p+8, 0x1.4d5c43828c6fap+9, 0x1.34d2d2d2d2d2cp+14},
          {"bolt44", 6u, 13u, 0x1.64f636cd3665ep+7, 0x1.af5f516a3af1ap+8, 0x1.1ec3c3c3c3c43p+13},
          {"bolt45", 6u, 12u, 0x1.fe56ddaf71fe9p+7, 0x1.39b9316dd7d64p+9, 0x1.60f0f0f0f0f0ap+13},
          {"bolt46", 6u, 13u, 0x1.64ca803d5941ep+7, 0x1.ae58f0cfb5777p+8, 0x1.1ec3c3c3c3c43p+13},
          {"bolt47", 6u, 12u, 0x1.c8a0a3050214bp+8, 0x1.c303b8670fe55p+9, 0x1.34d2d2d2d2d2cp+14},
          {"bolt48", 6u, 13u, 0x1.f06c709bc7531p+7, 0x1.39c2b59b9de29p+9, 0x1.7e5a5a5a5a59ep+13},
          {"bolt49", 6u, 13u, 0x1.b0a4ef92aa702p+6, 0x1.d09f7c46ab68ap+7, 0x1.7e5a5a5a5a59ep+12},
      }}},
    {"large/h8/seed1",
     {0x1.d599be68d5293p+7, 0x1.ep+7, 6u, 11u, 0x1.2cp+10, 0x1.642474246fa2dp+11,
      0x1.14d72c234f72ap+15, 0x1.8d0b08d3dcaf1p-12, 0x1.739b9d9e35ab9p-2, 800u, false,
      {
          {"spout0", 8u, 11u, 0x1.56e75c4eb595p+5, 0x1.11e50f84ae93p+7, 0x1.7b4f72c234f8p+10},
          {"spout1", 8u, 11u, 0x1.2ada8a108fb64p+5, 0x1.ab14bd22d1e69p+6, 0x1.7b4f72c234f8p+10},
          {"spout2", 8u, 11u, 0x1.4dc5f08eadc99p+5, 0x1.e995dc06c392bp+6, 0x1.7b4f72c234f8p+10},
          {"spout3", 8u, 11u, 0x1.4ff823a1af40dp+5, 0x1.08c3fb465848dp+7, 0x1.7b4f72c234f8p+10},
          {"spout4", 8u, 11u, 0x1.7c04308ecbb83p+5, 0x1.3537782b241b2p+7, 0x1.7b4f72c234f8p+10},
          {"spout5", 8u, 11u, 0x1.53693b4406b5ep+5, 0x1.f97272d8f0da4p+6, 0x1.7b4f72c234f8p+10},
          {"spout6", 8u, 11u, 0x1.8c4706e9361acp+5, 0x1.1228f9fa81992p+7, 0x1.7b4f72c234f8p+10},
          {"spout7", 8u, 11u, 0x1.3c9d23ed92a77p+5, 0x1.fb2e30d229fe5p+6, 0x1.7b4f72c234f8p+10},
          {"spout8", 8u, 11u, 0x1.4092a794d1356p+5, 0x1.eea4feffbb85ap+6, 0x1.7b4f72c234f8p+10},
          {"spout9", 8u, 11u, 0x1.8dca17ffbcba3p+5, 0x1.3c1c889aaae15p+7, 0x1.7b4f72c234f8p+10},
          {"bolt10", 8u, 11u, 0x1.06f3c9b38816ep+5, 0x1.f7fd4e914238ap+5, 0x1.7b4f72c234f8p+10},
          {"spout11", 8u, 11u, 0x1.2ada8a108fb64p+5, 0x1.ab14bd22d1e69p+6, 0x1.7b4f72c234f8p+10},
          {"spout12", 8u, 11u, 0x1.4dc5f08eadc99p+5, 0x1.e995dc06c392bp+6, 0x1.7b4f72c234f8p+10},
          {"spout13", 8u, 11u, 0x1.4ff823a1af40dp+5, 0x1.08c3fb465848dp+7, 0x1.7b4f72c234f8p+10},
          {"spout14", 8u, 11u, 0x1.7c163dd69ad1dp+5, 0x1.354e6c26ca67p+7, 0x1.7b4f72c234f8p+10},
          {"bolt15", 8u, 11u, 0x1.846837ff0e5fap+4, 0x1.2f39aa052c3aep+5, 0x1.7b4f72c234f8p+10},
          {"spout16", 8u, 11u, 0x1.8c4706e9361acp+5, 0x1.1228f9fa81992p+7, 0x1.7b4f72c234f8p+10},
          {"bolt17", 8u, 11u, 0x1.6da7810cea809p+4, 0x1.1ba3b16a070a4p+5, 0x1.7b4f72c234f8p+10},
          {"spout18", 8u, 11u, 0x1.4092a794d1356p+5, 0x1.eea4feffbb85ap+6, 0x1.7b4f72c234f8p+10},
          {"spout19", 8u, 11u, 0x1.8dcbb5e95e706p+5, 0x1.3c20fadd27965p+7, 0x1.7b4f72c234f8p+10},
          {"bolt20", 8u, 11u, 0x1.2d16a19fa9e55p+6, 0x1.3159e1184c9d1p+7, 0x1.7b4f72c234f8p+11},
          {"bolt21", 8u, 11u, 0x1.63618b98118f1p+5, 0x1.dcd4801ef48dcp+5, 0x1.7b4f72c234f8p+11},
          {"spout22", 8u, 11u, 0x1.4dc5f08eadc99p+5, 0x1.e995dc06c392bp+6, 0x1.7b4f72c234f8p+10},
          {"spout23", 8u, 11u, 0x1.4ff823a1af40dp+5, 0x1.08c3fb465848dp+7, 0x1.7b4f72c234f8p+10},
          {"bolt24", 8u, 11u, 0x1.a9fca13cf8931p+6, 0x1.9c9dcd2828ddcp+7, 0x1.1c7b9611a7b92p+12},
          {"spout25", 8u, 11u, 0x1.53693b4406b5ep+5, 0x1.f97272d8f0da4p+6, 0x1.7b4f72c234f8p+10},
          {"spout26", 8u, 11u, 0x1.8c4706e9361acp+5, 0x1.1228f9fa81992p+7, 0x1.7b4f72c234f8p+10},
          {"bolt27", 8u, 11u, 0x1.63808bb904b7p+4, 0x1.2417428ea4806p+5, 0x1.7b4f72c234f8p+10},
          {"bolt28", 8u, 11u, 0x1.790d66e24e95fp+6, 0x1.84616acb57db9p+7, 0x1.1c7b9611a7b92p+12},
          {"spout29", 8u, 11u, 0x1.8dcf875a2ca0fp+5, 0x1.3c2b7ad35e9bap+7, 0x1.7b4f72c234f8p+10},
          {"bolt30", 8u, 11u, 0x1.ce73b6741a58cp+6, 0x1.9d7ae22502ea2p+7, 0x1.7b4f72c234f8p+12},
          {"spout31", 8u, 11u, 0x1.2ada8a108fb64p+5, 0x1.ab14bd22d1e69p+6, 0x1.7b4f72c234f8p+10},
          {"spout32", 8u, 11u, 0x1.4dc5f08eadc99p+5, 0x1.e995dc06c392bp+6, 0x1.7b4f72c234f8p+10},
          {"bolt33", 8u, 11u, 0x1.1b0b4750e0038p+6, 0x1.7fe04dc982256p+6, 0x1.1c7b9611a7b92p+12},
          {"bolt34", 8u, 11u, 0x1.b866bdc7ebbdfp+4, 0x1.244101130279ep+5, 0x1.7b4f72c234f8p+10},
          {"spout35", 8u, 11u, 0x1.53693b4406b5ep+5, 0x1.f97272d8f0da4p+6, 0x1.7b4f72c234f8p+10},
          {"spout36", 8u, 11u, 0x1.8c4706e9361acp+5, 0x1.1228f9fa81992p+7, 0x1.7b4f72c234f8p+10},
          {"bolt37", 8u, 11u, 0x1.d946d88cc3637p+5, 0x1.a9dbc98e9f8dep+6, 0x1.7b4f72c234f8p+11},
          {"bolt38", 8u, 11u, 0x1.46696bcceb6a9p+4, 0x1.ff30fed51391cp+4, 0x1.7b4f72c234f8p+10},
          {"bolt39", 8u, 11u, 0x1.85264e88312d1p+6, 0x1.3e52db0b3bc26p+7, 0x1.7b4f72c234f8p+12},
          {"bolt40", 8u, 11u, 0x1.432c792467c7cp+6, 0x1.5dd7e04cf6ce6p+7, 0x1.7b4f72c234f8p+11},
          {"bolt41", 8u, 11u, 0x1.e02224dc6ffa4p+6, 0x1.018a0efddba59p+8, 0x1.da234f72c233fp+12},
          {"bolt42", 8u, 11u, 0x1.1c29ede645931p+6, 0x1.269db0d7a4378p+6, 0x1.7b4f72c234f8p+12},
          {"bolt43", 8u, 11u, 0x1.84ccb9ec9890cp+4, 0x1.32f3838bfe57ep+5, 0x1.7b4f72c234f8p+10},
          {"bolt44", 8u, 11u, 0x1.6fcca58647bd9p+6, 0x1.5abdaa8381cb6p+7, 0x1.1c7b9611a7b92p+12},
          {"bolt45", 8u, 11u, 0x1.5a12d74584e96p+4, 0x1.bfd70cd0c787cp+4, 0x1.7b4f72c234f8p+10},
          {"bolt46", 8u, 11u, 0x1.3006119e285e6p+5, 0x1.044f6807da5c7p+6, 0x1.7b4f72c234f8p+11},
          {"spout47", 8u, 11u, 0x1.3c9fa8eb6da8ep+5, 0x1.fb3c0c465e864p+6, 0x1.7b4f72c234f8p+10},
          {"bolt48", 8u, 11u, 0x1.6ba7b3aa99c44p+6, 0x1.219ddf3efc786p+7, 0x1.7b4f72c234f8p+12},
          {"bolt49", 8u, 11u, 0x1.122124235806p+5, 0x1.31c797ca78b96p+6, 0x1.7b4f72c234f8p+10},
          {"bolt50", 8u, 11u, 0x1.450cdba8f04c8p+6, 0x1.6054277b580ccp+7, 0x1.7b4f72c234f8p+11},
          {"bolt51", 8u, 11u, 0x1.dcc4ed347935dp+6, 0x1.acc0b8fc9ef8p+7, 0x1.da234f72c233fp+12},
          {"bolt52", 8u, 11u, 0x1.284db4e8a5c31p+5, 0x1.ce959450724dap+5, 0x1.7b4f72c234f8p+11},
          {"bolt53", 8u, 11u, 0x1.27963ae05f911p+7, 0x1.0b16c17b6d55dp+8, 0x1.1c7b9611a7b92p+13},
          {"bolt54", 8u, 11u, 0x1.228f38efc1651p+5, 0x1.0995e3a7327a2p+6, 0x1.7b4f72c234f8p+10},
          {"bolt55", 8u, 11u, 0x1.5a6a4787e24ffp+7, 0x1.75874cdcc6c74p+8, 0x1.4be58469ee58p+13},
          {"bolt56", 8u, 11u, 0x1.3c87554a13d79p+6, 0x1.dace0017e9f44p+6, 0x1.7b4f72c234f8p+12},
          {"bolt57", 8u, 11u, 0x1.d5046634bda83p+7, 0x1.16ee9990c5a36p+9, 0x1.4be58469ee58p+13},
          {"bolt58", 8u, 11u, 0x1.5a491fc967554p+4, 0x1.0984ff768bf7ep+5, 0x1.7b4f72c234f8p+10},
          {"bolt59", 8u, 11u, 0x1.df91683ccc109p+4, 0x1.c6c42b4bcdf96p+5, 0x1.7b4f72c234f8p+10},
          {"bolt60", 8u, 11u, 0x1.4a3297d9a158fp+6, 0x1.ff4f4535a888cp+6, 0x1.1c7b9611a7b92p+12},
          {"bolt61", 8u, 10u, 0x1.ec2741a179013p+6, 0x1.3b63fda37712p+7, 0x1.029ee58469ee2p+13},
          {"bolt62", 8u, 11u, 0x1.9b414073295bp+5, 0x1.3deda13d1a3c2p+6, 0x1.7b4f72c234f8p+11},
          {"bolt63", 8u, 11u, 0x1.78266275e1de7p+4, 0x1.212128b41287ap+5, 0x1.7b4f72c234f8p+10},
          {"bolt64", 8u, 10u, 0x1.ac84a8e78691bp+6, 0x1.ff48ad0083858p+6, 0x1.029ee58469ee1p+13},
          {"bolt65", 8u, 11u, 0x1.cb3fee9b98733p+5, 0x1.7ca5ba5f3f0a3p+6, 0x1.7b4f72c234f8p+11},
          {"bolt66", 8u, 11u, 0x1.54819aeeddbdcp+6, 0x1.456b2c43fb6fcp+7, 0x1.1c7b9611a7b92p+12},
          {"bolt67", 8u, 11u, 0x1.366d2f5104246p+7, 0x1.9dc1ad1bb0ba4p+7, 0x1.7b4f72c234f8p+13},
          {"bolt68", 8u, 11u, 0x1.648d846cd3e0fp+4, 0x1.170b81e583e64p+5, 0x1.7b4f72c234f8p+10},
          {"spout69", 8u, 11u, 0x1.8dd3d6b520823p+5, 0x1.3c32e2cb00924p+7, 0x1.7b4f72c234f8p+10},
          {"bolt70", 8u, 10u, 0x1.e5f3ce9e45428p+7, 0x1.c24b93c22ca96p+8, 0x1.af08d3dcb08c7p+13},
          {"bolt71", 8u, 10u, 0x1.668a71ca4a877p+7, 0x1.13d8edacadba2p+8, 0x1.58d3dcb08d3e8p+13},
          {"bolt72", 8u, 11u, 0x1.b627c3f8c8603p+5, 0x1.27ccdf8501db3p+6, 0x1.1c7b9611a7b92p+12},
          {"bolt73", 8u, 11u, 0x1.f61869dd70554p+5, 0x1.e5da089443496p+6, 0x1.7b4f72c234f8p+11},
          {"bolt74", 8u, 11u, 0x1.18707672f6543p+6, 0x1.e05c3ef032589p+6, 0x1.7b4f72c234f8p+11},
          {"bolt75", 8u, 10u, 0x1.5adc5621cf036p+8, 0x1.63f1ffb9c478bp+9, 0x1.182c234f72c19p+14},
          {"spout76", 8u, 11u, 0x1.8c4706e9361acp+5, 0x1.1228f9fa81992p+7, 0x1.7b4f72c234f8p+10},
          {"bolt77", 8u, 11u, 0x1.8c6ab72e5fd51p+5, 0x1.1eb812bb36718p+6, 0x1.7b4f72c234f8p+11},
          {"bolt78", 8u, 10u, 0x1.57fc3342779b8p+7, 0x1.bb92370a14574p+7, 0x1.83ee58469ee52p+13},
          {"bolt79", 8u, 11u, 0x1.aeabe16123339p+6, 0x1.bdc2f565f7bdp+7, 0x1.1c7b9611a7b92p+12},
          {"bolt80", 8u, 11u, 0x1.eb692faff6af4p+6, 0x1.0a5ac69bf6118p+8, 0x1.1c7b9611a7b92p+12},
          {"bolt81", 8u, 11u, 0x1.93ee8128a246cp+5, 0x1.4831563fb7d5p+6, 0x1.7b4f72c234f8p+11},
          {"bolt82", 8u, 11u, 0x1.156f33de708c1p+6, 0x1.244b04833fd6cp+6, 0x1.7b4f72c234f8p+12},
          {"bolt83", 8u, 11u, 0x1.01c4251290fb7p+7, 0x1.ef40bb4a4a658p+7, 0x1.da234f72c233fp+12},
          {"bolt84", 8u, 11u, 0x1.b87e6d09a0fefp+4, 0x1.2453afd9e322cp+5, 0x1.7b4f72c234f8p+10},
          {"bolt85", 8u, 10u, 0x1.b84a3c024387p+8, 0x1.ac9bdf0590f94p+9, 0x1.6e611a7b9611ep+14},
          {"bolt86", 8u, 10u, 0x1.3722eeecf9157p+8, 0x1.50e704165df52p+9, 0x1.da234f72c235bp+13},
          {"bolt87", 8u, 11u, 0x1.0eb9d1d94cab1p+7, 0x1.01665913f1cb1p+8, 0x1.da234f72c233fp+12},
          {"bolt88", 8u, 11u, 0x1.ab659ea5a0743p+5, 0x1.c1aa38902b57cp+5, 0x1.1c7b9611a7b92p+12},
          {"bolt89", 8u, 11u, 0x1.e86ce83760a0fp+5, 0x1.9396f2d8959e4p+6, 0x1.7b4f72c234f8p+11},
          {"bolt90", 8u, 9u, 0x1.0f4647e453404p+10, 0x1.918bc58756465p+10, 0x1.05da7b9611a81p+15},
          {"bolt91", 8u, 11u, 0x1.8c46470b97311p+7, 0x1.c4c21524bd1cep+8, 0x1.4be58469ee58p+13},
          {"bolt92", 8u, 10u, 0x1.d451cb7664e25p+8, 0x1.f5ce5499a1b09p+9, 0x1.6e611a7b9611fp+14},
          {"bolt93", 8u, 11u, 0x1.1ac27adf145d5p+6, 0x1.9cf37512d5d34p+6, 0x1.1c7b9611a7b92p+12},
          {"bolt94", 8u, 11u, 0x1.ae374065aa729p+7, 0x1.d33d7de347ac6p+8, 0x1.7b4f72c234f8p+13},
          {"bolt95", 8u, 11u, 0x1.09c78311636c8p+7, 0x1.e4c6954e58d02p+7, 0x1.1c7b9611a7b92p+13},
          {"bolt96", 8u, 6u, 0x1.6e9dbfdd1fd5fp+10, 0x1.20de90bb06c92p+11, 0x1.d18469ee58463p+14},
          {"bolt97", 8u, 10u, 0x1.f9cc05602edebp+8, 0x1.dd797cb97e782p+9, 0x1.997b9611a7b93p+14},
          {"bolt98", 8u, 10u, 0x1.6c15b5c5f617fp+8, 0x1.683dc64751371p+9, 0x1.2db9611a7b96p+14},
          {"bolt99", 8u, 10u, 0x1.9c4d1a2a2bc4dp+8, 0x1.b85fa05f35e31p+9, 0x1.43469ee5846a2p+14},
      }}},
    {"small/stressed/seed7",
     {0x0p+0, 0x0p+0, 0u, 8u, 0x0p+0, 0x0p+0,
      0x1.3bffffffffffep+13, 0x1.0755555555555p-10, 0x1.c8faa50e07f7p-5, 60u, false,
      {
          {"spout0", 6u, 0u, 0x0p+0, 0x0p+0, 0x0p+0},
          {"spout1", 6u, 2u, 0x1.d095db9fe97dcp+11, 0x1.35b93d154653dp+12, 0x1.d095db9fe97ddp+14},
          {"spout2", 6u, 0u, 0x0p+0, 0x0p+0, 0x0p+0},
          {"bolt3", 6u, 0u, 0x0p+0, 0x0p+0, 0x0p+0},
          {"bolt4", 6u, 0u, 0x0p+0, 0x0p+0, 0x0p+0},
          {"bolt5", 6u, 0u, 0x0p+0, 0x0p+0, 0x0p+0},
          {"bolt6", 6u, 0u, 0x0p+0, 0x0p+0, 0x0p+0},
          {"bolt7", 6u, 0u, 0x0p+0, 0x0p+0, 0x0p+0},
          {"bolt8", 6u, 0u, 0x0p+0, 0x0p+0, 0x0p+0},
          {"bolt9", 6u, 0u, 0x0p+0, 0x0p+0, 0x0p+0},
      }}},
    {"medium/bgload/seed11",
     {0x1.40f95754679bep+6, 0x1.4p+6, 2u, 7u, 0x1.9p+8, 0x1.a3ca0517dedacp+11,
      0x1.768d8d8d8d8d8p+13, 0x1.fa87878787875p-13, 0x1.5f218d8569a02p-3, 200u, false,
      {
          {"spout0", 4u, 7u, 0x1.1db6f9103f05fp+8, 0x1.261e665eb16eap+9, 0x1.9bc3c3c3c3c3bp+10},
          {"spout1", 4u, 7u, 0x1.1db6db6db6db5p+8, 0x1.261e1e1e1e1e2p+9, 0x1.9bc3c3c3c3c3bp+10},
          {"spout2", 4u, 7u, 0x1.1db775ef06ae7p+8, 0x1.261f5e98b4a41p+9, 0x1.9bc3c3c3c3c3bp+10},
          {"spout3", 4u, 7u, 0x1.1db702c412709p+8, 0x1.261e1e1e1e1e2p+9, 0x1.9bc3c3c3c3c3bp+10},
          {"spout4", 4u, 7u, 0x1.1db785241d65dp+8, 0x1.261f649e164p+9, 0x1.9bc3c3c3c3c3bp+10},
          {"spout5", 4u, 7u, 0x1.1db6fae6001f8p+8, 0x1.261e8c431e8c5p+9, 0x1.9bc3c3c3c3c3bp+10},
          {"spout6", 4u, 7u, 0x1.1db7b1920a6ecp+8, 0x1.261fb9502f062p+9, 0x1.9bc3c3c3c3c3bp+10},
          {"spout7", 4u, 7u, 0x1.1db6db6db6db9p+7, 0x1.261e1e1e1e1e2p+8, 0x1.9bc3c3c3c3c3bp+10},
          {"spout8", 4u, 7u, 0x1.1db78e27c866ep+8, 0x1.261fc6f5fb34bp+9, 0x1.9bc3c3c3c3c3bp+10},
          {"spout9", 4u, 7u, 0x1.1db738b6d92e5p+8, 0x1.261f0246314b6p+9, 0x1.9bc3c3c3c3c3bp+10},
          {"spout10", 4u, 7u, 0x1.1db6db6db6db7p+8, 0x1.261e1e1e1e1e2p+9, 0x1.9bc3c3c3c3c3bp+10},
          {"spout11", 4u, 7u, 0x1.1db6db6db6db6p+7, 0x1.261e1e1e1e1e2p+8, 0x1.9bc3c3c3c3c3bp+10},
          {"bolt12", 4u, 7u, 0x1.936b90226b9p+7, 0x1.60f8787878786p+8, 0x1.9bc3c3c3c3c3bp+10},
          {"spout13", 4u, 7u, 0x1.1db6db6db6db6p+7, 0x1.261e1e1e1e1e2p+8, 0x1.9bc3c3c3c3c3bp+10},
          {"bolt14", 4u, 7u, 0x1.d6e85d4f7a319p+6, 0x1.d6f1a10f8478dp+6, 0x1.9bc3c3c3c3c3bp+10},
          {"bolt15", 4u, 7u, 0x1.d6b4b4b4b4b5p+6, 0x1.d6b4b4b4b4b8p+6, 0x1.9bc3c3c3c3c3bp+10},
          {"bolt16", 4u, 7u, 0x1.d6b4b4b4b4b49p+6, 0x1.d6b4b4b4b4b5p+6, 0x1.9bc3c3c3c3c3bp+10},
          {"bolt17", 4u, 7u, 0x1.d6b4e051003f6p+5, 0x1.d6b570910dcd8p+5, 0x1.9bc3c3c3c3c3bp+10},
          {"bolt18", 4u, 7u, 0x1.d6c24f19f8fb5p+6, 0x1.d6c3c3c3c3c8p+6, 0x1.9bc3c3c3c3c3bp+11},
          {"spout19", 4u, 7u, 0x1.1db6db6db6db5p+8, 0x1.261e1e1e1e1e2p+9, 0x1.9bc3c3c3c3c3bp+10},
          {"spout20", 4u, 7u, 0x1.1db6f9103f05fp+8, 0x1.261e665eb16eap+9, 0x1.9bc3c3c3c3c3bp+10},
          {"bolt21", 4u, 7u, 0x1.936b90226b9p+7, 0x1.60f8787878786p+8, 0x1.9bc3c3c3c3c3bp+10},
          {"bolt22", 4u, 6u, 0x1.681a22e971b58p+10, 0x1.34d7a3a3ae35fp+11, 0x1.ddf0f0f0f0f0dp+12},
          {"spout23", 4u, 7u, 0x1.1db702c412709p+8, 0x1.261e1e1e1e1e2p+9, 0x1.9bc3c3c3c3c3bp+10},
          {"bolt24", 4u, 7u, 0x1.5895e2c2aac89p+9, 0x1.438dd06d293e3p+10, 0x1.34d2d2d2d2d2cp+12},
          {"spout25", 4u, 7u, 0x1.1db6fae6001f8p+8, 0x1.261e8c431e8c5p+9, 0x1.9bc3c3c3c3c3bp+10},
          {"bolt26", 4u, 6u, 0x1.681a5858bbcffp+10, 0x1.34d7b54a06f63p+11, 0x1.cb8f0f0f0f0efp+12},
          {"bolt27", 4u, 7u, 0x1.936b17288aaf3p+8, 0x1.60f7a86e7cac2p+9, 0x1.9bc3c3c3c3c3bp+12},
          {"bolt28", 4u, 6u, 0x1.cf0d29eae7d0bp+10, 0x1.7e6036337852ap+11, 0x1.13bc3c3c3c3c4p+13},
          {"bolt29", 4u, 7u, 0x1.58956006f23bap+9, 0x1.438d373c38ddbp+10, 0x1.34d2d2d2d2d2cp+12},
          {"bolt30", 4u, 7u, 0x1.d6b4b4b4b4b5p+6, 0x1.d6b4b4b4b4b8p+6, 0x1.9bc3c3c3c3c3bp+10},
          {"bolt31", 4u, 7u, 0x1.936b32d9493d3p+8, 0x1.60f79450654b3p+9, 0x1.9bc3c3c3c3c3bp+12},
          {"bolt32", 4u, 6u, 0x1.3714a0f003047p+10, 0x1.f409696969695p+10, 0x1.f052d2d2d2d2bp+12},
          {"bolt33", 4u, 7u, 0x1.048c5ea7cc5edp+8, 0x1.9bcf0f0f0f0f4p+8, 0x1.34d2d2d2d2d2cp+12},
          {"bolt34", 4u, 7u, 0x1.936c2870c971dp+8, 0x1.60f74e01b4636p+9, 0x1.9bc3c3c3c3c3bp+11},
          {"bolt35", 4u, 5u, 0x1.4394b4b4b4b4ap+10, 0x1.b93a5a5a5a5a4p+10, 0x1.27f4b4b4b4b4dp+13},
          {"bolt36", 4u, 2u, 0x1.101c3c3c3c3c5p+11, 0x1.5249696969699p+11, 0x1.b580000000003p+13},
          {"bolt37", 4u, 7u, 0x1.1125693180366p+9, 0x1.f40975272efacp+9, 0x1.015a5a5a5a5a5p+13},
          {"bolt38", 4u, 7u, 0x1.d6bd412ce047bp+5, 0x1.d6f016942e08p+5, 0x1.9bc3c3c3c3c3bp+10},
          {"bolt39", 4u, 7u, 0x1.936b90226b9p+7, 0x1.60f8787878786p+8, 0x1.9bc3c3c3c3c3bp+10},
          {"bolt40", 4u, 7u, 0x1.936bf75a1970dp+8, 0x1.60f8c0b90bc8ep+9, 0x1.9bc3c3c3c3c3bp+11},
          {"bolt41", 4u, 4u, 0x1.6fb4b4b4b4b4bp+10, 0x1.f40f0f0f0f0fp+10, 0x1.4387878787879p+13},
          {"bolt42", 4u, 7u, 0x1.d6b9f923a6ac8p+6, 0x1.d6beb88968e4p+6, 0x1.9bc3c3c3c3c3bp+10},
          {"bolt43", 4u, 5u, 0x1.4394de0294de2p+10, 0x1.b93a9f317a9f6p+10, 0x1.27f4b4b4b4b4dp+13},
          {"bolt44", 4u, 7u, 0x1.5895e2c2aac89p+9, 0x1.438dd06d293e3p+10, 0x1.34d2d2d2d2d2cp+12},
          {"bolt45", 4u, 6u, 0x1.08bc6a20fc6a3p+10, 0x1.d69e55309e553p+10, 0x1.7e5a5a5a5a5a5p+12},
          {"bolt46", 4u, 7u, 0x1.589537c46dfdp+9, 0x1.438b4b4b4b4b6p+10, 0x1.34d2d2d2d2d2cp+12},
          {"bolt47", 4u, 6u, 0x1.fde8282828284p+8, 0x1.4394b4b4b4b4cp+9, 0x1.34d2d2d2d2d2fp+13},
          {"bolt48", 4u, 7u, 0x1.e775011f0950dp+9, 0x1.d69e1e1e1e1e1p+10, 0x1.9bc3c3c3c3c3bp+12},
          {"bolt49", 4u, 7u, 0x1.936c058114531p+8, 0x1.60f81c25f51fcp+9, 0x1.9bc3c3c3c3c3bp+11},
      }}},
    {"sundog/seed99",
     {0x1.294a438eaa8dcp+18, 0x1.24f8p+18, 30u, 35u, 0x1.6e36p+20, 0x1.84193aaa2b72fp+9,
      0x1.a0c21ep+21, 0x1.00bc4cp-4, 0x1.86f3b89688e16p-3, 275u, false,
      {
          {"HDFS1", 11u, 35u, 0x1.188849ae7efacp+6, 0x1.10ba2e8ba2e8bp+8, 0x1.4820000000012p+13},
          {"Filter", 11u, 35u, 0x1.904b639ec895p+6, 0x1.93d36a94cfaap+6, 0x1.4820000000012p+13},
          {"PPS1", 11u, 34u, 0x1.e077cc4e1654bp+5, 0x1.e6bcb7c992a8p+5, 0x1.297ffffffffedp+13},
          {"PPS2", 11u, 33u, 0x1.ea8543e3b651bp+5, 0x1.f7c84e996c11p+5, 0x1.247745d1745dap+13},
          {"PPS3", 11u, 32u, 0x1.e8f38b52d4bdap+5, 0x1.eb2f6b81edf4p+5, 0x1.1a45d1745d177p+13},
          {"CNT1", 11u, 34u, 0x1.dfffffffffffep+5, 0x1.e00000000002p+5, 0x1.297ffffffffedp+13},
          {"CNT2", 11u, 34u, 0x1.dfffffffffffdp+5, 0x1.e00000000002p+5, 0x1.297ffffffffedp+13},
          {"CNT3", 11u, 32u, 0x1.e90971bf70fedp+5, 0x1.ec72fe914bcfp+5, 0x1.13fffffffffffp+13},
          {"CNT4", 11u, 32u, 0x1.e9bf0064ca84cp+5, 0x1.f06103b5423ep+5, 0x1.13fffffffffffp+13},
          {"CNT5", 11u, 32u, 0x1.e93d84266cb38p+5, 0x1.ef76e655359p+5, 0x1.13fffffffffffp+13},
          {"DKVS1", 11u, 34u, 0x1.8435433e5d5b3p+1, 0x1.56bb5f26eca4p+2, 0x1.540000000001fp+8},
          {"FC1", 11u, 31u, 0x1.aa8f30c69b9fep+5, 0x1.c32ffedcc4a2p+5, 0x1.151p+13},
          {"FC2", 11u, 31u, 0x1.aacfcddd13f05p+5, 0x1.c363c25e80a9p+5, 0x1.151p+13},
          {"FC3", 11u, 31u, 0x1.ab5a95baded2cp+5, 0x1.c53e8696b69ap+5, 0x1.151p+13},
          {"FC4", 11u, 31u, 0x1.d8efe9927d546p+5, 0x1.1de1f6bf6155p+6, 0x1.2e3ffffffffep+13},
          {"FC5", 11u, 31u, 0x1.ee1b6e38eb6e1p+5, 0x1.1f809cb9dd64p+6, 0x1.2e3ffffffffep+13},
          {"FC6", 11u, 31u, 0x1.ee141a5d7408bp+5, 0x1.22eb00be4406p+6, 0x1.2e3ffffffffep+13},
          {"FC7", 11u, 31u, 0x1.ac4fe42c2f3c6p+5, 0x1.c3d8c1ef8bfep+5, 0x1.151p+13},
          {"DKVS2", 11u, 34u, 0x1.6bab4d51c23cp+5, 0x1.6c2848a8807d8p+5, 0x1.a8fffffffffd3p+12},
          {"M1", 11u, 30u, 0x1.d842158592cb1p+5, 0x1.f76eaf43a2e8p+5, 0x1.230ba2e8ba308p+13},
          {"M2", 11u, 30u, 0x1.705bc1f340719p+5, 0x1.a71a153b13b2p+5, 0x1.b2fffffffffe7p+12},
          {"M3", 11u, 30u, 0x1.5a55025d39762p+5, 0x1.5bd8374b4a7ap+5, 0x1.a3fffffffffdap+12},
          {"R1", 11u, 30u, 0x1.1c841d7c2d19ap+6, 0x1.5fc24b478ea3p+6, 0x1.37b7ffffffff6p+13},
          {"HDFS2", 11u, 30u, 0x1.dad7334c26d1cp+5, 0x1.105aa109e6f2p+6, 0x1.e0f000000002ap+12},
          {"HDFS3", 11u, 34u, 0x1.11f902874942bp+2, 0x1.54c35640f26p+2, 0x1.540000000001fp+8},
      }}},
    {"small/crashed",
     {0x0p+0, 0x0p+0, 0u, 5u, 0x0p+0, 0x0p+0,
      0x0p+0, 0x0p+0, 0x0p+0, 40u, false,
      {
          {"spout0", 4u, 0u, 0x0p+0, 0x0p+0, 0x0p+0},
          {"spout1", 4u, 0u, 0x0p+0, 0x0p+0, 0x0p+0},
          {"spout2", 4u, 0u, 0x0p+0, 0x0p+0, 0x0p+0},
          {"bolt3", 4u, 0u, 0x0p+0, 0x0p+0, 0x0p+0},
          {"bolt4", 4u, 0u, 0x0p+0, 0x0p+0, 0x0p+0},
          {"bolt5", 4u, 0u, 0x0p+0, 0x0p+0, 0x0p+0},
          {"bolt6", 4u, 0u, 0x0p+0, 0x0p+0, 0x0p+0},
          {"bolt7", 4u, 0u, 0x0p+0, 0x0p+0, 0x0p+0},
          {"bolt8", 4u, 0u, 0x0p+0, 0x0p+0, 0x0p+0},
          {"bolt9", 4u, 0u, 0x0p+0, 0x0p+0, 0x0p+0},
      }}},
    {"medium/wt1rt1/seed5",
     {0x1.3adf7eb2cfc6ap+7, 0x1.4p+7, 4u, 9u, 0x1.9p+9, 0x1.577160543c3c5p+11,
      0x1.db64e4e4e4e5p+13, 0x1.da00000000003p-13, 0x1.4a60fcf64cb9ap-3, 300u, false,
      {
          {"spout0", 6u, 9u, 0x1.d62f3e6f19c47p+7, 0x1.9bc9c9c9c9c9fp+9, 0x1.08b4b4b4b4b4ep+11},
          {"spout1", 6u, 9u, 0x1.5306323da12efp+8, 0x1.2e276da0e0e04p+9, 0x1.08b4b4b4b4b4ep+11},
          {"spout2", 6u, 9u, 0x1.3460ddf6a14bcp+7, 0x1.1282828282828p+9, 0x1.08b4b4b4b4b4ep+11},
          {"spout3", 6u, 9u, 0x1.351166bc1165fp+7, 0x1.af65656565658p+8, 0x1.08b4b4b4b4b4ep+11},
          {"spout4", 6u, 9u, 0x1.05267bd1267bcp+8, 0x1.ea3e3e3e3e3e4p+9, 0x1.08b4b4b4b4b4ep+11},
          {"spout5", 6u, 9u, 0x1.1ae9220593cccp+8, 0x1.c2fdfdfdfdfep+9, 0x1.08b4b4b4b4b4ep+11},
          {"spout6", 6u, 9u, 0x1.c9368be1368bcp+7, 0x1.9bc9c9c9c9c9dp+9, 0x1.08b4b4b4b4b4ep+11},
          {"spout7", 6u, 9u, 0x1.210b1ab450c26p+8, 0x1.af62626262627p+9, 0x1.08b4b4b4b4b4ep+11},
          {"spout8", 6u, 9u, 0x1.bfca78dcc04e1p+8, 0x1.882b2b2b2b2b3p+9, 0x1.08b4b4b4b4b4ep+11},
          {"spout9", 6u, 8u, 0x1.bad223b080804p+8, 0x1.a3c40a3d7d7dp+9, 0x1.fdcdcdcdcdce3p+10},
          {"spout10", 6u, 9u, 0x1.25c7617ac1dep+8, 0x1.748f8f8f8f8fbp+9, 0x1.08b4b4b4b4b4ep+11},
          {"spout11", 6u, 9u, 0x1.695f987c0a42fp+7, 0x1.fdd3d3d3d3d3ep+8, 0x1.08b4b4b4b4b4ep+11},
          {"bolt12", 6u, 9u, 0x1.398f23fd6f36ap+7, 0x1.d69d1d1d1d1d7p+8, 0x1.08b4b4b4b4b4ep+11},
          {"spout13", 6u, 9u, 0x1.6519681ce4007p+8, 0x1.1c53535353536p+10, 0x1.08b4b4b4b4b4ep+11},
          {"bolt14", 6u, 9u, 0x1.5ad88ef41ec8cp+8, 0x1.2d9a6f8c0c0b8p+9, 0x1.08b4b4b4b4b4ep+11},
          {"bolt15", 6u, 8u, 0x1.38c3e1b434343p+8, 0x1.d5a6c49717175p+8, 0x1.d69696969696fp+10},
          {"bolt16", 6u, 9u, 0x1.52f9dd6ba487fp+7, 0x1.884149ffffffep+8, 0x1.08b4b4b4b4b4ep+11},
          {"bolt17", 6u, 9u, 0x1.13c92775d9674p+8, 0x1.4ce97861a1a1dp+9, 0x1.08b4b4b4b4b4ep+11},
          {"bolt18", 6u, 9u, 0x1.98d7ef2112d9fp+8, 0x1.9b51e0ca0a0a5p+9, 0x1.08b4b4b4b4b4ep+12},
          {"spout19", 6u, 9u, 0x1.18e4e4e4e4e4dp+8, 0x1.af65656565657p+9, 0x1.08b4b4b4b4b4ep+11},
          {"spout20", 6u, 9u, 0x1.80e6bd7381ba7p+8, 0x1.261f9f9f9f9fbp+10, 0x1.08b4b4b4b4b4ep+11},
          {"bolt21", 6u, 9u, 0x1.515158f1469bfp+8, 0x1.607604ee2e2e2p+9, 0x1.08b4b4b4b4b4ep+11},
          {"bolt22", 6u, 6u, 0x1.229b14a8933ddp+10, 0x1.0897ff741413fp+11, 0x1.015a5a5a5a5a5p+13},
          {"spout23", 6u, 9u, 0x1.9d177c6b5d241p+8, 0x1.ea35353535356p+9, 0x1.08b4b4b4b4b4ep+11},
          {"bolt24", 6u, 9u, 0x1.043ef19d8f566p+8, 0x1.38bd9b6dededbp+9, 0x1.8d0f0f0f0f0f6p+12},
          {"spout25", 6u, 9u, 0x1.999b627ef0b7ap+7, 0x1.fdd3d3d3d3d4p+8, 0x1.08b4b4b4b4b4ep+11},
          {"bolt26", 6u, 8u, 0x1.8c75983bcbcbdp+8, 0x1.87a4331c5c5c5p+9, 0x1.261e1e1e1e1e1p+13},
          {"bolt27", 6u, 9u, 0x1.d135eb7ec5e2bp+8, 0x1.6100d41858584p+9, 0x1.08b4b4b4b4b4ep+13},
          {"bolt28", 6u, 8u, 0x1.4581fc1444442p+9, 0x1.1247967fbfbf8p+10, 0x1.60f0f0f0f0f12p+13},
          {"bolt29", 6u, 9u, 0x1.8319a7e0c451cp+7, 0x1.610e34bd3d3d4p+8, 0x1.8d0f0f0f0f0f6p+12},
          {"bolt30", 6u, 9u, 0x1.49de40d749102p+7, 0x1.39dee79d9d9d8p+8, 0x1.08b4b4b4b4b4ep+11},
          {"bolt31", 6u, 8u, 0x1.cc1167c5a5a5fp+8, 0x1.aeed7c65a5a5ep+9, 0x1.d69696969696fp+12},
          {"bolt32", 6u, 9u, 0x1.275d2f7794056p+8, 0x1.871a91dbdbdcp+8, 0x1.4ae1e1e1e1e1dp+13},
          {"bolt33", 6u, 9u, 0x1.04c3fb6b4edd2p+9, 0x1.fd4cdbc505054p+9, 0x1.8d0f0f0f0f0f6p+12},
          {"bolt34", 6u, 9u, 0x1.45eb172286144p+8, 0x1.12019079b9b9cp+9, 0x1.08b4b4b4b4b4ep+12},
          {"bolt35", 6u, 7u, 0x1.4335b88eb7dc7p+10, 0x1.f384914d0d0cep+10, 0x1.8a9b9b9b9b9b2p+13},
          {"bolt36", 6u, 5u, 0x1.1827c03a8dc0ep+10, 0x1.60b61b6282826p+10, 0x1.23aaaaaaaaaadp+14},
          {"bolt37", 6u, 8u, 0x1.f30eecbf3f3f2p+8, 0x1.aef07f68a8a89p+9, 0x1.261e1e1e1e1e1p+13},
          {"bolt38", 6u, 9u, 0x1.7db9b5d6ba48cp+6, 0x1.d49eda7f7f7fap+7, 0x1.08b4b4b4b4b4ep+11},
          {"bolt39", 6u, 9u, 0x1.00fe015198b54p+8, 0x1.60fd3d3d3d3d6p+9, 0x1.08b4b4b4b4b4ep+11},
          {"bolt40", 6u, 9u, 0x1.686bea63c755bp+8, 0x1.add4bd1dddddfp+9, 0x1.08b4b4b4b4b4ep+12},
          {"bolt41", 6u, 7u, 0x1.8cfab4bf5ac82p+9, 0x1.255b63c48484p+10, 0x1.af5f5f5f5f5fbp+13},
          {"bolt42", 6u, 9u, 0x1.33fefefefeff1p+7, 0x1.37c17d2222222p+8, 0x1.08b4b4b4b4b4ep+11},
          {"bolt43", 6u, 6u, 0x1.374e8991267bdp+8, 0x1.6110ea61e1e24p+8, 0x1.34d2d2d2d2d28p+13},
          {"bolt44", 6u, 9u, 0x1.41daa76ca5895p+8, 0x1.120d9c85c5c5ep+9, 0x1.8d0f0f0f0f0f6p+12},
          {"bolt45", 6u, 8u, 0x1.235091a86868cp+9, 0x1.08743bb050503p+10, 0x1.ea32323232329p+12},
          {"bolt46", 6u, 8u, 0x1.569240b3e3e42p+8, 0x1.1207967fbfbfcp+9, 0x1.60f0f0f0f0f12p+12},
          {"bolt47", 6u, 8u, 0x1.39247755ededep+9, 0x1.e9af5c17d7d7ap+9, 0x1.9bc3c3c3c3c34p+13},
          {"bolt48", 6u, 8u, 0x1.f10f5e4787877p+9, 0x1.9b8ad246e6e6cp+10, 0x1.d69696969696fp+12},
          {"bolt49", 6u, 8u, 0x1.0194823733332p+10, 0x1.9b8dd549e9e9cp+10, 0x1.fdcdcdcdcdce3p+11},
      }}},
};

struct Case {
  const char* name;
  sim::Topology topology;
  sim::TopologyConfig config;
  sim::ClusterSpec cluster;
  sim::SimParams params;
  std::uint64_t seed;
};

std::vector<Case> golden_cases() {
  std::vector<Case> cases;
  auto synthetic = [](topo::TopologySize size, bool tiim, double cont) {
    topo::SyntheticSpec spec;
    spec.size = size;
    spec.time_imbalance = tiim;
    spec.contention_fraction = cont;
    return topo::build_synthetic(spec);
  };
  auto synth_params = [] {
    sim::SimParams p = topo::synthetic_sim_params();
    p.duration_s = 5.0;
    return p;
  };
  auto synth_config = [](const sim::Topology& t, int hint) {
    sim::TopologyConfig c = sim::uniform_hint_config(t, hint);
    c.batch_size = 200;
    c.batch_parallelism = 5;
    c.worker_threads = 8;
    c.receiver_threads = 1;
    c.num_ackers = 0;
    return c;
  };

  {
    sim::Topology t = synthetic(topo::TopologySize::kSmall, false, 0.0);
    auto c = synth_config(t, 4);
    cases.push_back({"small/h4/seed1", t, c, topo::paper_cluster(),
                     synth_params(), 1});
    cases.push_back({"small/h4/seed2015", t, c, topo::paper_cluster(),
                     synth_params(), 2015});
  }
  {
    sim::Topology t = synthetic(topo::TopologySize::kMedium, false, 0.0);
    cases.push_back({"medium/h6/seed1", t, synth_config(t, 6),
                     topo::paper_cluster(), synth_params(), 1});
  }
  {
    sim::Topology t = synthetic(topo::TopologySize::kLarge, false, 0.0);
    cases.push_back({"large/h8/seed1", t, synth_config(t, 8),
                     topo::paper_cluster(), synth_params(), 1});
  }
  {
    // Contention + time imbalance + max-task normalization + heavy batches
    // (memory pressure) + explicit ackers, all in one stressed deployment.
    sim::Topology t = synthetic(topo::TopologySize::kSmall, true, 0.25);
    sim::TopologyConfig c = sim::uniform_hint_config(t, 12);
    c.batch_size = 4000;
    c.batch_parallelism = 8;
    c.worker_threads = 4;
    c.receiver_threads = 2;
    c.num_ackers = 4;
    c.max_tasks = 60;
    cases.push_back({"small/stressed/seed7", t, c, topo::paper_cluster(),
                     synth_params(), 7});
  }
  {
    // Background ("student") load makes machine speed factors stochastic.
    sim::Topology t = synthetic(topo::TopologySize::kMedium, false, 0.0);
    sim::SimParams p = synth_params();
    p.background_load_prob = 0.3;
    cases.push_back({"medium/bgload/seed11", t, synth_config(t, 4),
                     topo::paper_cluster(), p, 11});
  }
  {
    sim::Topology t = topo::build_sundog();
    sim::SimParams p = topo::sundog_sim_params();
    p.duration_s = 5.0;
    p.background_load_prob = 0.2;
    cases.push_back({"sundog/seed99", t, topo::sundog_baseline_config(t),
                     topo::sundog_cluster(), p, 99});
  }
  {
    // Deployment past the hard memory limit: the OOM-crash path.
    sim::Topology t = synthetic(topo::TopologySize::kSmall, false, 0.0);
    sim::TopologyConfig c = synth_config(t, 4);
    c.batch_size = 2000000;
    cases.push_back({"small/crashed", t, c, topo::paper_cluster(),
                     synth_params(), 3});
  }
  {
    // One executor and one receiver thread per worker: nearly every
    // finished job hands its slot to a queued job on the same machine, so
    // the departure pop's deferred tree write is overwritten inside
    // finish_job on most events.
    sim::Topology t = synthetic(topo::TopologySize::kMedium, false, 0.0);
    sim::TopologyConfig c = synth_config(t, 6);
    c.worker_threads = 1;
    c.receiver_threads = 1;
    cases.push_back({"medium/wt1rt1/seed5", t, c, topo::paper_cluster(),
                     synth_params(), 5});
  }
  return cases;
}

TEST(EngineGolden, BitwiseIdenticalToPreOverhaulEngine) {
  const auto cases = golden_cases();
  ASSERT_EQ(cases.size(), std::size(kGolden));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const GoldenExpect& e = kGolden[i].expect;
    SCOPED_TRACE(c.name);
    ASSERT_STREQ(c.name, kGolden[i].name);

    const sim::SimResult r =
        sim::simulate(c.topology, c.config, c.cluster, c.params, c.seed);

    // EXPECT_EQ on doubles is exact-value comparison — hexfloat expected
    // values make this a bitwise check (no NaNs occur in SimResult).
    EXPECT_EQ(r.throughput_tuples_per_s, e.throughput_tuples_per_s);
    EXPECT_EQ(r.noiseless_throughput, e.noiseless_throughput);
    EXPECT_EQ(r.batches_committed, e.batches_committed);
    EXPECT_EQ(r.batches_emitted, e.batches_emitted);
    EXPECT_EQ(r.tuples_committed, e.tuples_committed);
    EXPECT_EQ(r.mean_batch_latency_ms, e.mean_batch_latency_ms);
    EXPECT_EQ(r.network_bytes_per_s_per_worker,
              e.network_bytes_per_s_per_worker);
    EXPECT_EQ(r.peak_nic_utilization, e.peak_nic_utilization);
    EXPECT_EQ(r.cpu_utilization, e.cpu_utilization);
    EXPECT_EQ(r.total_tasks, e.total_tasks);
    EXPECT_EQ(r.crashed, e.crashed);

    ASSERT_EQ(r.node_stats.size(), e.nodes.size());
    for (std::size_t n = 0; n < e.nodes.size(); ++n) {
      SCOPED_TRACE(e.nodes[n].name);
      EXPECT_EQ(r.node_stats[n].name, e.nodes[n].name);
      EXPECT_EQ(r.node_stats[n].tasks, e.nodes[n].tasks);
      EXPECT_EQ(r.node_stats[n].batches_processed,
                e.nodes[n].batches_processed);
      EXPECT_EQ(r.node_stats[n].mean_stage_ms, e.nodes[n].mean_stage_ms);
      EXPECT_EQ(r.node_stats[n].max_stage_ms, e.nodes[n].max_stage_ms);
      EXPECT_EQ(r.node_stats[n].busy_core_ms, e.nodes[n].busy_core_ms);
    }
  }
}

void expect_bitwise_equal(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.throughput_tuples_per_s, b.throughput_tuples_per_s);
  EXPECT_EQ(a.noiseless_throughput, b.noiseless_throughput);
  EXPECT_EQ(a.batches_committed, b.batches_committed);
  EXPECT_EQ(a.batches_emitted, b.batches_emitted);
  EXPECT_EQ(a.tuples_committed, b.tuples_committed);
  EXPECT_EQ(a.mean_batch_latency_ms, b.mean_batch_latency_ms);
  EXPECT_EQ(a.network_bytes_per_s_per_worker, b.network_bytes_per_s_per_worker);
  EXPECT_EQ(a.peak_nic_utilization, b.peak_nic_utilization);
  EXPECT_EQ(a.cpu_utilization, b.cpu_utilization);
  EXPECT_EQ(a.total_tasks, b.total_tasks);
  EXPECT_EQ(a.crashed, b.crashed);
  EXPECT_EQ(a.simulated_ms, b.simulated_ms);
  EXPECT_EQ(a.early_stopped, b.early_stopped);
  ASSERT_EQ(a.node_stats.size(), b.node_stats.size());
  for (std::size_t n = 0; n < a.node_stats.size(); ++n) {
    SCOPED_TRACE(a.node_stats[n].name);
    EXPECT_EQ(a.node_stats[n].name, b.node_stats[n].name);
    EXPECT_EQ(a.node_stats[n].tasks, b.node_stats[n].tasks);
    EXPECT_EQ(a.node_stats[n].batches_processed,
              b.node_stats[n].batches_processed);
    EXPECT_EQ(a.node_stats[n].mean_stage_ms, b.node_stats[n].mean_stage_ms);
    EXPECT_EQ(a.node_stats[n].max_stage_ms, b.node_stats[n].max_stage_ms);
    EXPECT_EQ(a.node_stats[n].busy_core_ms, b.node_stats[n].busy_core_ms);
  }
}

TEST(EngineGolden, ReusedWorkspaceIsBitwiseIdenticalToFreshRuns) {
  // One Simulator run through every golden case twice — mixed topology
  // sizes, schedulers, background load, and the crash path, so every
  // workspace buffer gets resized down and up and every slot pool gets
  // recycled — must return exactly the bits a fresh simulate() returns.
  const auto cases = golden_cases();
  sim::Simulator simulator;
  for (int round = 0; round < 2; ++round) {
    for (const Case& c : cases) {
      SCOPED_TRACE(c.name);
      const sim::SimResult& reused =
          simulator.run(c.topology, c.config, c.cluster, c.params, c.seed);
      const sim::SimResult fresh =
          sim::simulate(c.topology, c.config, c.cluster, c.params, c.seed);
      expect_bitwise_equal(reused, fresh);
    }
  }
}

TEST(EngineGolden, ReusedWorkspaceReachesZeroSteadyStateAllocations) {
  // After warm-up runs of a given workload, further runs through the same
  // workspace must not touch the heap at all: every buffer has reached its
  // high-water capacity and is reused in place.
  //
  // This is a release-build guarantee: checked builds run the workspace
  // reuse verification sweep at every run() entry, and its scratch state
  // allocates by design.
  if constexpr (kCheckedBuild) {
    GTEST_SKIP() << "zero-allocation guarantee applies to release builds";
  }
  const auto cases = golden_cases();
  const Case& c = cases[2];  // medium/h6: the mid-sized workload
  // The default round-robin placement, then load-aware placement, whose
  // task ordering must sort in place too.
  sim::SimParams load_aware = c.params;
  load_aware.scheduler = sim::SchedulerPolicy::kLoadAware;
  for (const sim::SimParams& params : {c.params, load_aware}) {
    sim::Simulator simulator;
    for (int warm = 0; warm < 2; ++warm) {
      simulator.run(c.topology, c.config, c.cluster, params, c.seed);
    }
    const std::size_t before = g_new_calls.load(std::memory_order_relaxed);
    for (int rep = 0; rep < 3; ++rep) {
      simulator.run(c.topology, c.config, c.cluster, params, c.seed);
    }
    const std::size_t after = g_new_calls.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "steady-state simulator runs allocated " << (after - before)
        << " times (scheduler " << static_cast<int>(params.scheduler) << ")";
  }
}

TEST(EngineGolden, FluidWorkspaceReachesZeroSteadyStateAllocations) {
  // The rung-0 fluid screen of the fidelity ladder runs thousands of
  // estimates per suggest batch through one FluidWorkspace; after warm-up
  // it must not touch the heap at all.
  if constexpr (kCheckedBuild) {
    GTEST_SKIP() << "zero-allocation guarantee applies to release builds";
  }
  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kMedium;
  const sim::Topology t = topo::build_synthetic(spec);
  const sim::TopologyConfig c = sim::uniform_hint_config(t, 6);
  const sim::ClusterSpec cluster = topo::paper_cluster();
  const sim::SimParams params = topo::synthetic_sim_params();
  sim::FluidWorkspace ws;
  for (int warm = 0; warm < 2; ++warm) {
    sim::fluid_estimate(t, c, cluster, params, ws);
  }
  const std::size_t before = g_new_calls.load(std::memory_order_relaxed);
  double sink = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    sink += sim::fluid_estimate(t, c, cluster, params, ws)
                .throughput_tuples_per_s;
  }
  const std::size_t after = g_new_calls.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state fluid estimates allocated " << (after - before)
      << " times";
  EXPECT_GT(sink, 0.0);
}

/// Every SimResult field on one line, doubles as hexfloat, so an EXPECT_EQ
/// on two of these is a bitwise comparison that prints both sides.
std::string hex_fields(const sim::SimResult& r) {
  std::string out;
  char buf[64];
  auto num = [&](double v) {
    std::snprintf(buf, sizeof buf, "%a ", v);
    out += buf;
  };
  auto count = [&](std::size_t v) { out += std::to_string(v) + ' '; };
  num(r.throughput_tuples_per_s);
  num(r.noiseless_throughput);
  count(r.batches_committed);
  count(r.batches_emitted);
  num(r.tuples_committed);
  num(r.mean_batch_latency_ms);
  num(r.network_bytes_per_s_per_worker);
  num(r.peak_nic_utilization);
  num(r.cpu_utilization);
  count(r.total_tasks);
  count(r.crashed ? 1 : 0);
  num(r.simulated_ms);
  count(r.early_stopped ? 1 : 0);
  for (const sim::NodeStats& n : r.node_stats) {
    out += "| " + n.name + ' ';
    count(n.tasks);
    count(n.batches_processed);
    num(n.mean_stage_ms);
    num(n.max_stage_ms);
    num(n.busy_core_ms);
  }
  return out;
}

TEST(EngineGolden, RedrawnNoiseMatchesAFreshRunAtTheNewSeed) {
  // With no background load and a seed-blind placement policy, a run's seed
  // reaches only its measurement noise, so redrawing the noise of a seed-s1
  // run must give the seed-s2 run bit for bit. Every golden deployment
  // (background load switched off where a case has it), plus an
  // adaptive-window run that stops early and a deployment that OOM-crashes
  // before its event loop, so it never draws its noise.
  std::vector<Case> cases = golden_cases();
  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kMedium;
  const sim::Topology medium = topo::build_synthetic(spec);
  {
    sim::SimParams p = topo::synthetic_sim_params();
    p.adaptive_window = true;
    cases.push_back({"medium/adaptive/seed17", medium,
                     sim::uniform_hint_config(medium, 6),
                     topo::paper_cluster(), p, 17});
  }
  {
    sim::SimParams p = topo::synthetic_sim_params();
    p.task_memory_bytes = 1e12;
    cases.push_back({"medium/oom/seed3", medium,
                     sim::uniform_hint_config(medium, 4),
                     topo::paper_cluster(), p, 3});
  }
  bool saw_crash = false;
  bool saw_early_stop = false;
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    c.params.background_load_prob = 0.0;
    ASSERT_TRUE(sim::seed_only_draws_noise(c.params));
    const sim::SimResult base =
        sim::simulate(c.topology, c.config, c.cluster, c.params, c.seed);
    saw_crash = saw_crash || base.crashed;
    saw_early_stop = saw_early_stop || base.early_stopped;
    for (const std::uint64_t s2 :
         {c.seed, c.seed + 1, std::uint64_t{2015},
          std::uint64_t{0xdeadbeefcafef00d}}) {
      SCOPED_TRACE("s2=" + std::to_string(s2));
      sim::SimResult redrawn = base;
      sim::redraw_noise(redrawn, c.params, s2);
      EXPECT_EQ(hex_fields(redrawn),
                hex_fields(sim::simulate(c.topology, c.config, c.cluster,
                                         c.params, s2)));
    }
  }
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_early_stop);
}

TEST(EngineGolden, BackgroundLoadAndRandomPlacementRuleOutRedraws) {
  const sim::SimParams plain = topo::synthetic_sim_params();
  EXPECT_TRUE(sim::seed_only_draws_noise(plain));
  sim::SimParams load_aware = plain;
  load_aware.scheduler = sim::SchedulerPolicy::kLoadAware;
  EXPECT_TRUE(sim::seed_only_draws_noise(load_aware));

  sim::SimParams background = plain;
  background.background_load_prob = 0.3;
  sim::SimParams random = plain;
  random.scheduler = sim::SchedulerPolicy::kRandom;
  for (const sim::SimParams& p : {background, random}) {
    EXPECT_FALSE(sim::seed_only_draws_noise(p));
    sim::SimResult r;
    EXPECT_THROW(sim::redraw_noise(r, p, 1), Error);
  }
}

TEST(EngineGolden, SimObjectiveReplaysOnlyWhenTheSeedDrawsOnlyNoise) {
  // `a` evaluates c twice, so its second run is its recorded best run's
  // configuration; `b` evaluates d first, so its run of c simulates. Both
  // second values are c at evaluation 2 of the same seed and must agree bit
  // for bit, but only `a` under plain params may have replayed.
  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kMedium;
  const sim::Topology t = topo::build_synthetic(spec);
  const sim::TopologyConfig c = sim::uniform_hint_config(t, 6);
  const sim::TopologyConfig d = sim::uniform_hint_config(t, 4);
  sim::SimParams plain = topo::synthetic_sim_params();
  plain.duration_s = 5.0;
  sim::SimParams background = plain;
  background.background_load_prob = 0.3;
  sim::SimParams random = plain;
  random.scheduler = sim::SchedulerPolicy::kRandom;
  for (const sim::SimParams& p : {plain, background, random}) {
    const bool replayable = sim::seed_only_draws_noise(p);
    SCOPED_TRACE(replayable ? "replayable" : "not replayable");
    tuning::SimObjective a(t, topo::paper_cluster(), p, 31);
    tuning::SimObjective b(t, topo::paper_cluster(), p, 31);
    a.evaluate(c);
    const double a2 = a.evaluate(c);
    b.evaluate(d);
    const double b2 = b.evaluate(c);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a2),
              std::bit_cast<std::uint64_t>(b2));
    EXPECT_EQ(hex_fields(a.last_result()), hex_fields(b.last_result()));
    EXPECT_EQ(a.num_evaluations(), 2u);
    EXPECT_EQ(a.num_replays(), replayable ? 1u : 0u);
    EXPECT_EQ(b.num_replays(), 0u);

    // A clone starts from its source's record.
    const std::unique_ptr<tuning::Objective> clone = a.clone_stream(3);
    clone->evaluate(c);
    const auto& sim_clone = dynamic_cast<const tuning::SimObjective&>(*clone);
    EXPECT_EQ(sim_clone.num_replays(), replayable ? 1u : 0u);
  }
}

TEST(EngineGolden, SimObjectiveReplaysTheRunItSimulatedLast) {
  // A repetition whose run falls short of the best record is repeated on
  // the same clone's next stream; that run replays the clone's own last
  // simulation and must equal a fresh clone's simulation bit for bit.
  topo::SyntheticSpec spec;
  spec.size = topo::TopologySize::kMedium;
  const sim::Topology t = topo::build_synthetic(spec);
  const sim::TopologyConfig c = sim::uniform_hint_config(t, 6);
  const sim::TopologyConfig d = sim::uniform_hint_config(t, 4);
  sim::SimParams p = topo::synthetic_sim_params();
  p.duration_s = 5.0;
  tuning::SimObjective source(t, topo::paper_cluster(), p, 31);
  const bool c_wins = source.evaluate(c) > source.evaluate(d);
  const sim::TopologyConfig& below = c_wins ? d : c;

  const std::unique_ptr<tuning::Objective> clone = source.clone_stream(0);
  const auto& sim_clone = dynamic_cast<const tuning::SimObjective&>(*clone);
  clone->evaluate(below);
  EXPECT_EQ(sim_clone.num_replays(), 0u);
  ASSERT_TRUE(clone->rebind_stream(1));
  const double replayed = clone->evaluate(below);
  EXPECT_EQ(sim_clone.num_replays(), 1u);

  const std::unique_ptr<tuning::Objective> fresh = source.clone_stream(1);
  const double simulated = fresh->evaluate(below);
  const auto& sim_fresh = dynamic_cast<const tuning::SimObjective&>(*fresh);
  EXPECT_EQ(sim_fresh.num_replays(), 0u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(replayed),
            std::bit_cast<std::uint64_t>(simulated));
  EXPECT_EQ(hex_fields(sim_clone.last_result()),
            hex_fields(sim_fresh.last_result()));
}

TEST(EngineGolden, RepeatedRunsAreIdentical) {
  // The engine must be a pure function of (topology, config, cluster,
  // params, seed) — no hidden state across calls (free lists and heaps are
  // rebuilt per run).
  const auto cases = golden_cases();
  const Case& c = cases[0];
  const sim::SimResult a =
      sim::simulate(c.topology, c.config, c.cluster, c.params, c.seed);
  const sim::SimResult b =
      sim::simulate(c.topology, c.config, c.cluster, c.params, c.seed);
  EXPECT_EQ(a.throughput_tuples_per_s, b.throughput_tuples_per_s);
  EXPECT_EQ(a.batches_committed, b.batches_committed);
  EXPECT_EQ(a.mean_batch_latency_ms, b.mean_batch_latency_ms);
}

}  // namespace
}  // namespace stormtune
