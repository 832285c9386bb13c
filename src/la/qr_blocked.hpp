// Blocked Householder QR with compact-WY block reflectors (LAPACK
// geqrf/larft/larfb structure): panels are factored with the unblocked
// kernel, then the trailing matrix is updated with GEMM-class operations
// I - V T V^H. This is the shape vendor geqrf implementations (MKL,
// cuSOLVER) use, and what makes Householder QR GEMM-rich enough to be the
// robust fallback of Algorithm 4 without being hopeless on large panels.
#pragma once

#include "la/gemm.hpp"
#include "la/qr.hpp"
#include "la/trsm.hpp"

namespace chase::la {

namespace detail {

/// Forward compact-WY T factor: H_0 ... H_{k-1} = I - V T V^H, with V the
/// m x k unit-lower-trapezoidal reflector matrix and tau the scales.
///
/// The full Gram block S = V^H V comes from one GEMM and the columns of T
/// are read out of it.
template <typename T>
void larft(ConstMatrixView<T> v, const std::vector<T>& tau,
           MatrixView<T> t_out) {
  const Index k = v.cols();
  CHASE_CHECK(t_out.rows() == k && t_out.cols() == k);
  set_zero(t_out);
  if (k == 0) return;
  Matrix<T> s(k, k);
  gemm(T(1), Op::kConjTrans, v, Op::kNoTrans, v, T(0), s.view());
  for (Index j = 0; j < k; ++j) {
    const T tj = tau[std::size_t(j)];
    if (tj == T(0)) continue;
    // t(0:j, j) = -tau_j * T(0:j, 0:j) * (V(:, 0:j)^H v_j)
    for (Index i = 0; i < j; ++i) t_out(i, j) = -tj * s(i, j);
    // multiply by the leading triangle of T (in place, back to front)
    for (Index i = 0; i < j; ++i) {
      T acc(0);
      for (Index r = i; r < j; ++r) acc += t_out(i, r) * t_out(r, j);
      t_out(i, j) = acc;
    }
    t_out(j, j) = tj;
  }
}

}  // namespace detail

/// C <- (I - V T V^H)^(H?) C: applies the block reflector (conj = false) or
/// its conjugate transpose (conj = true) from the left. work must be a
/// k x C.cols() buffer.
template <typename T>
void larfb_left(ConstMatrixView<T> v, ConstMatrixView<T> t, bool conj,
                MatrixView<T> c, MatrixView<T> work) {
  const Index k = v.cols();
  CHASE_CHECK(v.rows() == c.rows());
  CHASE_CHECK(work.rows() == k && work.cols() >= c.cols());
  auto w = work.block(0, 0, k, c.cols());
  // W = V^H C
  gemm(T(1), Op::kConjTrans, v, Op::kNoTrans, c.as_const(), T(0), w);
  // W <- T W or T^H W: in-place triangular multiply (no scratch matrix; the
  // sweep direction only reads not-yet-overwritten rows).
  if (conj) {
    trmm_left_upper_conj(t, w);
  } else {
    trmm_left_upper(t, w);
  }
  // C -= V (T W)
  gemm(T(-1), Op::kNoTrans, v, Op::kNoTrans, w.as_const(), T(1), c);
}

/// Blocked in-place QR factorization (panel width nb); output layout matches
/// geqrf (R in the upper triangle, reflector tails below, scales in tau).
template <typename T>
void geqrf_blocked(MatrixView<T> a, std::vector<T>& tau, Index nb = 32) {
  const Index m = a.rows();
  const Index n = a.cols();
  CHASE_CHECK_MSG(m >= n, "geqrf expects a tall matrix");
  CHASE_CHECK(nb >= 1);
  tau.assign(static_cast<std::size_t>(n), T(0));

  Matrix<T> vwork, twork(nb, nb), bwork(nb, n);
  for (Index j0 = 0; j0 < n; j0 += nb) {
    const Index k = std::min(nb, n - j0);
    // Factor the panel with the unblocked kernel.
    auto panel = a.block(j0, j0, m - j0, k);
    std::vector<T> panel_tau;
    geqrf(panel, panel_tau);
    std::copy(panel_tau.begin(), panel_tau.end(),
              tau.begin() + std::size_t(j0));

    if (j0 + k < n) {
      // Materialize V (unit lower trapezoidal) from the panel.
      vwork.resize(m - j0, k);
      for (Index j = 0; j < k; ++j) {
        for (Index i = 0; i < m - j0; ++i) {
          vwork(i, j) = i < j ? T(0) : (i == j ? T(1) : panel(i, j));
        }
      }
      auto t_blk = twork.block(0, 0, k, k);
      detail::larft(vwork.cview(), panel_tau, t_blk);
      // Trailing update with (I - V T V^H)^H.
      auto trailing = a.block(j0, j0 + k, m - j0, n - j0 - k);
      auto w = bwork.block(0, 0, k, n - j0 - k);
      larfb_left(vwork.cview(), t_blk.as_const(), /*conj=*/true, trailing, w);
    }
  }
}

/// Form the thin Q from geqrf_blocked output (backward block accumulation).
template <typename T>
void ungqr_blocked(MatrixView<T> a, const std::vector<T>& tau,
                   Index nb = 32) {
  const Index m = a.rows();
  const Index n = a.cols();
  CHASE_CHECK(Index(tau.size()) == n);

  // Save all reflector panels first (Q formation overwrites the storage).
  Matrix<T> v_all(m, n);
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < m; ++i) {
      v_all(i, j) = i < j ? T(0) : (i == j ? T(1) : a(i, j));
    }
  }
  set_zero(a);
  for (Index j = 0; j < n; ++j) a(j, j) = T(1);

  Matrix<T> twork(nb, nb), bwork(nb, n);
  const Index nblocks = (n + nb - 1) / nb;
  for (Index blk = nblocks - 1; blk >= 0; --blk) {
    const Index j0 = blk * nb;
    const Index k = std::min(nb, n - j0);
    auto v = v_all.block(j0, j0, m - j0, k);
    std::vector<T> blk_tau(tau.begin() + std::size_t(j0),
                           tau.begin() + std::size_t(j0 + k));
    auto t_blk = twork.block(0, 0, k, k);
    detail::larft(v.as_const(), blk_tau, t_blk);
    auto target = a.block(j0, j0, m - j0, n - j0);
    auto w = bwork.block(0, 0, k, n - j0);
    larfb_left(v.as_const(), t_blk.as_const(), /*conj=*/false, target, w);
  }
}

/// Convenience: blocked orthonormalization in place.
template <typename T>
void householder_orthonormalize_blocked(MatrixView<T> x, Index nb = 32) {
  std::vector<T> tau;
  geqrf_blocked(x, tau, nb);
  ungqr_blocked(x, tau, nb);
}

}  // namespace chase::la
