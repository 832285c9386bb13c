// General matrix-matrix multiply and the Hermitian rank-k update, the
// computational workhorses of ChASE (Filter, Rayleigh-Ritz, Residuals,
// CholeskyQR Gram matrices all reduce to these kernels).
//
// gemm() runs the five-loop BLIS-style engine with a register-tiled mr x nr
// micro-kernel over packed micro-panels (gemm_micro.hpp). It folds the beta
// pre-scale of C into its first k-panel pass instead of a separate full
// sweep and packs through a per-thread reusable buffer pool, so the filter's
// inner HEMM loop neither re-reads C an extra time nor allocates per call.
// The unblocked triple loop detail::gemm_naive stays as the reference oracle
// the tests and benches compare against.
//
// Every call records its flop count and wall time on the thread's
// perf::Tracker ("la.gemm.flops", "la.gemm.seconds") — the measured Gflop/s
// feed the machine-model calibration (perf::MachineModel::calibrate_gemm).
#pragma once

#include <vector>

#include "common/timer.hpp"
#include "la/gemm_micro.hpp"
#include "la/matrix.hpp"
#include "perf/tracker.hpp"

namespace chase::la {

namespace detail {

/// C tile = beta * C tile (beta == 1 is a no-op; the dispatcher never routes
/// beta == 1 here pointlessly because scaling is cheap to skip inline).
template <typename T>
inline void scale_tile(T beta, Index mc, Index nc, T* c, Index ldc) {
  if (beta == T(1)) return;
  for (Index j = 0; j < nc; ++j) {
    T* cj = c + j * ldc;
    if (beta == T(0)) {
      for (Index i = 0; i < mc; ++i) cj[i] = T(0);
    } else {
      for (Index i = 0; i < mc; ++i) cj[i] *= beta;
    }
  }
}

/// Reference oracle: unblocked triple loop, no packing, no blocking. Slow by
/// design — the micro engine is validated against it and the bench
/// trajectory measures speedups from it.
template <typename T>
void gemm_naive(T alpha, Op opa, ConstMatrixView<T> a, Op opb,
                ConstMatrixView<T> b, T beta, MatrixView<T> c) {
  const Index m = c.rows();
  const Index n = c.cols();
  const Index k = op_cols(opa, a);
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < m; ++i) {
      T acc(0);
      for (Index l = 0; l < k; ++l) {
        acc += op_elem(opa, a, i, l) * op_elem(opb, b, l, j);
      }
      c(i, j) = alpha * acc + (beta == T(0) ? T(0) : beta * c(i, j));
    }
  }
}

/// Flop count of one gemm/hemm-shaped product (the classic 2mnk, x4 for the
/// complex multiply-add).
template <typename T>
inline double gemm_flop_count(Index m, Index n, Index k) {
  return (kIsComplex<T> ? 8.0 : 2.0) * double(m) * double(n) * double(k);
}

/// Record one engine call on the thread tracker: cumulative flops and wall
/// seconds (their ratio is the achieved Gflop/s that calibrates the machine
/// model). `single` splits the counters by storage precision
/// ("la.gemm32.*" for fp32/complex<float> calls), so the double rate that
/// perf::MachineModel::calibrate_gemm reads carries no fp32 time.
inline void record_gemm_call(bool single, double flops, double seconds) {
  if (auto* t = perf::thread_tracker()) {
    t->bump(single ? "la.gemm32.flops" : "la.gemm.flops", flops);
    t->bump(single ? "la.gemm32.seconds" : "la.gemm.seconds", seconds);
  }
}

/// Record one factorization-engine call (TRSM/TRMM/POTRF/HERK/HETRD) under
/// its counter family; MachineModel::calibrate_factor pools the families.
inline void record_factor_call(std::string_view flops_counter,
                               std::string_view seconds_counter, double flops,
                               double seconds) {
  if (auto* t = perf::thread_tracker()) {
    t->bump(flops_counter, flops);
    t->bump(seconds_counter, seconds);
  }
}

}  // namespace detail

/// C = alpha * op(A) * op(B) + beta * C.
template <typename T>
void gemm(T alpha, Op opa, ConstMatrixView<T> a, Op opb, ConstMatrixView<T> b,
          T beta, MatrixView<T> c) {
  const Index m = op_rows(opa, a);
  const Index k = op_cols(opa, a);
  const Index n = op_cols(opb, b);
  CHASE_CHECK_MSG(op_rows(opb, b) == k, "gemm: inner dimensions differ");
  CHASE_CHECK_MSG(c.rows() == m && c.cols() == n, "gemm: output shape");

  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == T(0)) {
    // Degenerate product: only the beta scaling of C remains.
    detail::scale_tile(beta, m, n, c.data(), c.ld());
    return;
  }

  const bool tracked = perf::thread_tracker() != nullptr;
  WallTimer timer;
  detail::gemm_micro(alpha, opa, a, opb, b, beta, c);
  if (tracked) {
    detail::record_gemm_call(sizeof(RealType<T>) == 4,
                             detail::gemm_flop_count<T>(m, n, k),
                             timer.seconds());
  }
}

/// C = alpha * A * B + beta * C (convenience for the common case).
template <typename T>
inline void gemm(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, T beta,
                 MatrixView<T> c) {
  gemm(alpha, Op::kNoTrans, a, Op::kNoTrans, b, beta, c);
}

}  // namespace chase::la

// The HERK kernels consume gemm(); the include is placed after the engine so
// the pragma-once guard resolves the mutual include in either order.
#include "la/factor/herk_kernels.hpp"

namespace chase::la {

/// Hermitian rank-k update, upper triangle only:
/// C_upper = alpha X^H X + beta C_upper.
///
/// The off-diagonal tiles are lowered onto gemm (la/factor/herk_kernels.hpp;
/// factor::naive_herk_upper is the oracle). The lower triangle is never
/// written — the HERK saving of half the GEMM flops. Callers that need the
/// full matrix (la::gram) mirror afterwards; CholeskyQR consumes the upper
/// triangle directly. Tracked calls record "la.herk.flops" /
/// "la.herk.seconds" for the machine-model factorization-rate calibration.
template <typename T>
void herk_upper(T alpha, ConstMatrixView<T> x, T beta, MatrixView<T> c) {
  const Index n = x.cols();
  CHASE_CHECK(c.rows() == n && c.cols() == n);
  const bool tracked = perf::thread_tracker() != nullptr;
  WallTimer timer;
  factor::blocked_herk_upper(alpha, x, beta, c);
  if (tracked) {
    detail::record_factor_call(
        "la.herk.flops", "la.herk.seconds",
        (kIsComplex<T> ? 4.0 : 1.0) * double(x.rows()) * double(n) * double(n),
        timer.seconds());
  }
}

/// Hermitian rank-k update used to form Gram matrices: C = X^H X.
///
/// The upper triangle comes from herk_upper and the lower triangle is
/// mirrored; the full n x n result is stored because ChASE's Rayleigh-Ritz
/// consumes the full matrix after an allreduce, matching how the paper
/// assembles A redundantly on every rank. (CholeskyQR calls herk_upper
/// directly and never materializes the mirror.)
template <typename T>
inline void gram(ConstMatrixView<T> x, MatrixView<T> c) {
  const Index n = x.cols();
  CHASE_CHECK(c.rows() == n && c.cols() == n);
  herk_upper(T(1), x, T(0), c);
  // Mirror and enforce exact Hermitian symmetry so POTRF sees a numerically
  // Hermitian input regardless of rounding.
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < j; ++i) {
      c(j, i) = conjugate(c(i, j));
    }
    c(j, j) = T(real_part(c(j, j)));
  }
}

}  // namespace chase::la
