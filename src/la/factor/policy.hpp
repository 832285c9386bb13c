// Runtime policy for the blocked factorization engine (src/la/factor/).
//
// Like the gemm policy (src/la/gemm_policy.hpp), the process picks one of
// two kernel implementations for every TRSM/TRMM/POTRF/HERK/HETRD and
// compact-WY (larft/larfb) call,
//
//   CHASE_FACTOR_KERNEL = naive | blocked   (default: blocked; unknown text
//       throws env::ConfigError at first use)
//
//   naive   — the seed scalar kernels: per-column axpy substitution,
//             left-looking scalar POTRF, dotc Gram loops, per-reflector
//             rank-2 HETRD updates. Kept verbatim as the reference oracle
//             every blocked kernel is validated against (tests/la) and the
//             floor the bench trajectory measures speedups from.
//   blocked — LAPACK-shaped blocked algorithms: the triangle is split into
//             kFactorBlock-wide panels, the diagonal blocks run the naive
//             kernel, and all off-diagonal work is lowered onto la::gemm —
//             which the GEMM policy in turn routes to the register-tiled
//             micro engine. This converts the O(n^3) factorization paths of
//             CholeskyQR and the Rayleigh-Ritz HEEVD from cache-hostile
//             scalar loops into micro-kernel flops.
//
// Resolution order per call (the autotuner contract, DESIGN.md §15):
//   1. explicit override — the CHASE_FACTOR_KERNEL env var or a pin of
//      factor_kernel_policy (ScopedPolicy in benches and tests);
//   2. loaded machine profile — the per-triangular-size-class winner from
//      perf::tuned_tables() (installed by tune::install_profile);
//   3. built-in default — blocked.
#pragma once

#include <optional>
#include <string_view>

#include "common/policy.hpp"
#include "la/matrix.hpp"
#include "perf/tuned.hpp"

namespace chase::la {

enum class FactorKernel : int { kNaive = 0, kBlocked };

/// Panel width of every blocked factorization kernel. Blocked kernels fall
/// back to the naive path whenever the triangular dimension fits in one
/// panel, so small subspace factorizations (n_e <= 64) are bitwise identical
/// across policies and the blocked machinery only engages where the GEMM
/// lowering pays.
inline constexpr Index kFactorBlock = 64;

std::string_view factor_kernel_name(FactorKernel k);
std::optional<FactorKernel> parse_factor_kernel(std::string_view name);

/// Per-call Tracker counter name for a kernel ("la.factor.<name>.calls").
std::string_view factor_kernel_counter(FactorKernel k);

/// CHASE_FACTOR_KERNEL: the process-wide override (default blocked).
/// Shape-oblivious — the dispatchers use factor_kernel_for().
extern Policy<FactorKernel> factor_kernel_policy;

/// Shape-aware kernel choice for one factorization over an n x n triangle:
/// override > profile table entry > built-in default.
FactorKernel factor_kernel_for(Index n);

}  // namespace chase::la
