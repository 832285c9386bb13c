// Runtime policy for the dense matrix-multiply engine.
//
// The process picks one of two kernel implementations for every
// gemm()/hemm() call,
//
//   CHASE_GEMM_KERNEL = naive | micro   (default: micro; unknown text throws
//       env::ConfigError at first use)
//
//   naive   — unblocked triple loop; the reference oracle every other kernel
//             is validated against (tests/la) and the Gflop/s floor the bench
//             trajectory measures speedups from.
//   micro   — five-loop BLIS-style engine: packed operand panels laid out as
//             mr x kc / kc x nr micro-panels consumed by a register-tiled
//             mr x nr micro-kernel (src/la/gemm_micro.hpp). This is the only
//             policy that engages the Hermitian-aware hemm() engine.
//
// Resolution order per call (the autotuner contract, DESIGN.md §15):
//   1. explicit override — the CHASE_GEMM_KERNEL env var or a pin of
//      gemm_kernel_policy (ScopedPolicy in benches and tests);
//   2. loaded machine profile — the per-(scalar type, shape class) winner
//      from perf::tuned_tables() (installed by tune::install_profile);
//   3. built-in default — micro.
// A process with no override and no profile behaves exactly as before the
// autotuner existed.
#pragma once

#include <optional>
#include <string_view>

#include "common/policy.hpp"
#include "common/scalar.hpp"
#include "la/matrix.hpp"
#include "perf/tuned.hpp"

namespace chase::la {

enum class GemmKernel : int { kNaive = 0, kMicro };

std::string_view gemm_kernel_name(GemmKernel k);
std::optional<GemmKernel> parse_gemm_kernel(std::string_view name);

/// Per-call Tracker counter name for a kernel ("la.kernel.<name>.calls").
std::string_view gemm_kernel_counter(GemmKernel k);

/// perf::ScalarTag of a kernel instantiation (the tuned-table row key).
template <typename T>
constexpr perf::ScalarTag scalar_tag() {
  if constexpr (kIsComplex<T>) {
    return sizeof(RealType<T>) == 4 ? perf::ScalarTag::kC32
                                    : perf::ScalarTag::kC64;
  } else {
    return sizeof(T) == 4 ? perf::ScalarTag::kF32 : perf::ScalarTag::kF64;
  }
}

/// CHASE_GEMM_KERNEL: the process-wide override (default micro).
/// Shape-oblivious — the dispatchers use gemm_kernel_for().
extern Policy<GemmKernel> gemm_kernel_policy;

/// Shape-aware kernel choice for one m x n x k product of scalar class
/// `tag`: override > profile table entry > built-in default.
GemmKernel gemm_kernel_for(perf::ScalarTag tag, Index m, Index n, Index k);

}  // namespace chase::la
