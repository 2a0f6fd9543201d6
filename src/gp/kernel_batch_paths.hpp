// Internal: per-ISA entry points of the batched correlation transform.
//
// Public code uses gp/kernel_batch.hpp, which dispatches through
// isa::selected(). This header exists so the per-ISA translation units
// (kernel_batch_<isa>.cpp, each compiled with its own -m<isa> flag) and the
// agreement tests (which drive every compiled path explicitly, whatever the
// process-wide selection is) can name the paths directly.
#pragma once

#include <cstddef>

#include "common/isa.hpp"
#include "gp/kernel.hpp"

namespace stormtune::gp::detail {

/// In-place transform buf[i] = scale * g(buf[i]) — the batch counterpart of
/// Kernel::correlation_from_scaled_sq, one implementation per ISA path.
using TransformFn = void (*)(KernelFamily family, double scale, double* buf,
                             std::size_t len);

/// The pre-dispatch behavior: libmvec's 2-lane SSE exp on x86-64/glibc,
/// scalar expressions elsewhere. Golden tests pin this path.
void transform_portable(KernelFamily family, double scale, double* buf,
                        std::size_t len);

#ifdef STORMTUNE_HAVE_ISA_AVX2
void transform_avx2(KernelFamily family, double scale, double* buf,
                    std::size_t len);
#endif
#ifdef STORMTUNE_HAVE_ISA_AVX512
void transform_avx512(KernelFamily family, double scale, double* buf,
                      std::size_t len);
#endif

/// The transform for a specific compiled-in path, or nullptr when this
/// binary does not contain it. Test hook for the per-path agreement sweep.
TransformFn transform_for(isa::Path path);

}  // namespace stormtune::gp::detail
