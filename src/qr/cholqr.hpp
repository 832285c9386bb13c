// Communication-avoiding CholeskyQR variants (Section 3.2, Algorithms 3/4).
//
// All functions orthonormalize a (possibly distributed) tall matrix X in
// place and discard R — ChASE only consumes the Q factor. In the distributed
// case X is the local row block of a 1D distribution over `comm` and the only
// communication per repetition is one allreduce of the Gram matrix's upper
// triangle — n(n+1)/2 entries, half the wire volume of the full matrix the
// seed reduced — which is what makes CholeskyQR communication-avoiding
// compared to the one allreduce *per column* of Householder QR.
//
// The Gram matrix is formed with la::herk_upper (upper triangle only, the
// HERK flop saving) and never mirrored: POTRF and the TRSM back-substitution
// read only the upper triangle.
#pragma once

#include <cmath>
#include <optional>
#include <vector>

#include "comm/communicator.hpp"
#include "common/faultinject.hpp"
#include "la/gemm.hpp"
#include "la/norms.hpp"
#include "la/potrf.hpp"
#include "la/trsm.hpp"
#include "perf/tracker.hpp"

namespace chase::qr {

using comm::Communicator;
using la::ConstMatrixView;
using la::Index;
using la::Matrix;
using la::MatrixView;

namespace detail {

/// Record the analytic flop counts of one CholeskyQR repetition (what the
/// cuBLAS/cuSOLVER kernels of the paper's implementation would execute).
/// The HERK and TRSM on a tall block are kFactor work — priced at
/// MachineModel::factor_flops (which MachineModel::calibrate_factor can set
/// from the la.trsm/la.herk counters of a traced run) rather than at the
/// GEMM rate.
template <typename T>
void account_cholqr_flops(Index m_local, Index n) {
  if (auto* t = perf::thread_tracker()) {
    const double z = kIsComplex<T> ? 4.0 : 1.0;
    // HERK (Gram) + TRSM (back substitution): m n^2 each.
    t->add_flops(perf::FlopClass::kFactor,
                 2.0 * z * double(m_local) * double(n) * double(n));
    // Redundant POTRF of the n x n Gram matrix.
    t->add_flops(perf::FlopClass::kSmall,
                 z * double(n) * double(n) * double(n) / 3.0);
  }
}

/// Column-major upper-triangle pack: n(n+1)/2 entries, diagonal last per
/// column.
template <typename T>
void pack_upper(ConstMatrixView<T> a, T* buf) {
  const Index n = a.rows();
  Index idx = 0;
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i <= j; ++i) buf[idx++] = a(i, j);
  }
}

/// Inverse of pack_upper; the diagonal is forced real (the reduced imaginary
/// parts are exact zeros — every rank's Gram diagonal is a sum of squared
/// moduli — so this only strips representation noise, matching the seed's
/// post-mirror normalization).
template <typename T>
void unpack_upper(const T* buf, MatrixView<T> a) {
  const Index n = a.rows();
  Index idx = 0;
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < j; ++i) a(i, j) = buf[idx++];
    a(j, j) = T(real_part(buf[idx++]));
  }
}

/// Allreduce of the Gram matrix's upper triangle (no-op without a
/// communicator): pack, reduce n(n+1)/2 scalars, unpack.
template <typename T>
void all_reduce_upper(MatrixView<T> gram, const Communicator* comm) {
  if (comm == nullptr) return;
  const Index n = gram.rows();
  const Index packed = n * (n + 1) / 2;
  std::vector<T> tri(static_cast<std::size_t>(packed));
  pack_upper(gram.as_const(), tri.data());
  comm->all_reduce(tri.data(), packed);
  unpack_upper(tri.data(), gram);
}

}  // namespace detail

/// One CholeskyQR repetition: X <- X * chol(X^H X)^{-1}.
///
/// Returns the LAPACK-style info of the Cholesky factorization (0 on
/// success); on failure X is left partially unmodified and the caller is
/// expected to fall back (Algorithm 4 line 9).
template <typename T>
int cholqr_step(MatrixView<T> x, const Communicator* comm) {
  const Index n = x.cols();
  Matrix<T> gram(n, n);
  la::herk_upper(T(1), x.as_const(), T(0), gram.view());
  detail::all_reduce_upper(gram.view(), comm);
  // Simulated breakdown before the factorization: X is untouched (no trsm),
  // exactly like a real POTRF failure, so the recovery ladder restarts from
  // an intact X.
  if (fault::fired("potrf.breakdown")) return int(n);
  // Near-breakdown pivots mean kappa(X) exceeded what CholeskyQR can handle;
  // report failure so Algorithm 4's fallback engages.
  const int info =
      la::potrf_upper(gram.view(), RealType<T>(n) * unit_roundoff<T>());
  if (info != 0) return info;
  la::trsm_right_upper(gram.view().as_const(), x);
  detail::account_cholqr_flops<T>(x.rows(), n);
  return 0;
}

/// CholeskyQR with `repetitions` passes (Algorithm 3); repetitions == 2 is
/// CholeskyQR2, the variant with full O(u) orthogonality for kappa_2(X) up
/// to about u^{-1/2}.
template <typename T>
int cholqr(MatrixView<T> x, const Communicator* comm, int repetitions) {
  for (int rep = 0; rep < repetitions; ++rep) {
    const int info = cholqr_step(x, comm);
    if (info != 0) return info;
  }
  return 0;
}

/// Shifted CholeskyQR (the preconditioning pass of s-CholeskyQR2, [Fukaya et
/// al. 2020]): factor X^H X + s I with s = 11 (m n + n (n+1)) u ||X||_F^2,
/// then back-substitute. Handles kappa_2(X) up to about u^{-1}.
///
/// `m_global` is the global row count of the distributed X. Returns potrf
/// info; a nonzero value means even the shifted Gram matrix failed and the
/// caller must fall back to Householder QR.
template <typename T>
int shifted_cholqr_step(MatrixView<T> x, const Communicator* comm,
                        Index m_global) {
  using R = RealType<T>;
  const Index n = x.cols();
  Matrix<T> gram(n, n);
  la::herk_upper(T(1), x.as_const(), T(0), gram.view());
  R norm2 = la::frobenius_norm_squared(x.as_const());
  detail::all_reduce_upper(gram.view(), comm);
  if (comm != nullptr) {
    comm->all_reduce(&norm2, 1);
  }
  const R u = unit_roundoff<T>();
  const R shift =
      R(11) * (R(m_global) * R(n) + R(n) * R(n + 1)) * u * norm2;
  for (Index j = 0; j < n; ++j) gram(j, j) += T(shift);
  if (fault::fired("potrf.breakdown")) return int(n);
  const int info = la::potrf_upper(gram.view());
  if (info != 0) return info;
  la::trsm_right_upper(gram.view().as_const(), x);
  detail::account_cholqr_flops<T>(x.rows(), n);
  return 0;
}

}  // namespace chase::qr
