// Dense Hermitian eigensolver: Householder tridiagonalization followed by
// the implicit-shift QL iteration with accumulated transformations.
//
// This is the LAPACK HE(SY)EVD equivalent that ChASE calls redundantly on
// every rank to diagonalize the n_e x n_e Rayleigh-Ritz quotient (Algorithm 2
// line 18), and the core of the one-stage direct-solver baseline.
#pragma once

#include <cmath>
#include <numeric>
#include <vector>

#include "common/timer.hpp"
#include "la/blas2.hpp"
#include "la/factor/latrd.hpp"
#include "la/householder.hpp"
#include "la/matrix.hpp"
#include "la/trsm.hpp"

namespace chase::la {

/// Reduce the Hermitian matrix `a` (full storage, lower triangle referenced
/// and updated both triangles) to real symmetric tridiagonal form
/// A = Q T Q^H. On exit d/e hold the diagonal and subdiagonal of T and `q`
/// holds the unitary back-transform Q (zhetrd + zungtr, lower variant).
///
/// Above one kFactorBlock panel this runs the latrd panel reduction with a
/// rank-2k GEMM trailing update plus a compact-WY Q back-accumulation
/// (la/factor/latrd.hpp); a single panel or less takes the seed
/// per-reflector rank-2 updates, where blocking has nothing to lower.
/// Tracked calls record "la.hetrd.flops" / "la.hetrd.seconds" for the
/// machine-model factorization-rate calibration.
template <typename T>
void hetrd_lower(MatrixView<T> a, std::vector<RealType<T>>& d,
                 std::vector<RealType<T>>& e, MatrixView<T> q) {
  using R = RealType<T>;
  const Index n = a.rows();
  CHASE_CHECK(a.cols() == n && q.rows() == n && q.cols() == n);
  d.assign(std::size_t(n), R(0));
  e.assign(std::size_t(std::max<Index>(n - 1, 0)), R(0));
  if (n == 0) return;
  if (n == 1) {
    d[0] = real_part(a(0, 0));
    set_identity(q);
    return;
  }

  std::vector<T> taus(std::size_t(n - 1), T(0));
  const bool tracked = perf::thread_tracker() != nullptr;
  WallTimer timer;
  if (n > factor::kFactorBlock) {
    factor::blocked_hetrd_reduce(a, d, e, taus);
    factor::blocked_hetrd_form_q(a.as_const(), taus, q);
  } else {
    factor::naive_hetrd_reduce(a, d, e, taus);
    factor::naive_hetrd_form_q(a.as_const(), taus, q);
  }
  if (tracked) {
    // Reduction (4/3 n^3) + Q formation (4/3 n^3), x4 complex.
    detail::record_factor_call(
        "la.hetrd.flops", "la.hetrd.seconds",
        (kIsComplex<T> ? 4.0 : 1.0) * 8.0 / 3.0 * double(n) * double(n) *
            double(n),
        timer.seconds());
  }
}

/// Implicit-shift QL iteration on a real symmetric tridiagonal (d, e) with
/// rotations accumulated into the columns of z (EISPACK tql2). Returns false
/// if an eigenvalue failed to converge within the iteration cap.
template <typename T>
bool steql(std::vector<RealType<T>>& d, std::vector<RealType<T>>& e,
           MatrixView<T> z) {
  using R = RealType<T>;
  const Index n = Index(d.size());
  if (n <= 1) return true;
  // e needs a guard slot: e[n-1] is written when an l-iteration terminates
  // with no interior split (classic tql2 storage convention).
  CHASE_CHECK(Index(e.size()) >= n);
  const R eps = std::numeric_limits<R>::epsilon();
  constexpr int kMaxIter = 60;

  for (Index l = 0; l < n; ++l) {
    int iter = 0;
    while (true) {
      // Look for a negligible off-diagonal element to split the problem.
      Index m = l;
      for (; m < n - 1; ++m) {
        const R dd = std::abs(d[std::size_t(m)]) + std::abs(d[std::size_t(m + 1)]);
        if (std::abs(e[std::size_t(m)]) <= eps * dd) break;
      }
      if (m == l) break;
      if (iter++ == kMaxIter) return false;

      // Wilkinson-like shift from the 2x2 block at l.
      R g = (d[std::size_t(l + 1)] - d[std::size_t(l)]) /
            (R(2) * e[std::size_t(l)]);
      R r = std::hypot(g, R(1));
      g = d[std::size_t(m)] - d[std::size_t(l)] +
          e[std::size_t(l)] / (g + std::copysign(r, g));
      R s = R(1), c = R(1), p = R(0);
      bool underflow = false;

      for (Index i = m - 1; i >= l; --i) {
        const R f = s * e[std::size_t(i)];
        const R b = c * e[std::size_t(i)];
        r = std::hypot(f, g);
        e[std::size_t(i + 1)] = r;
        if (r == R(0)) {
          // Recover from underflow by restarting this l-iteration.
          d[std::size_t(i + 1)] -= p;
          e[std::size_t(m)] = R(0);
          underflow = true;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[std::size_t(i + 1)] - p;
        r = (d[std::size_t(i)] - g) * s + R(2) * c * b;
        p = s * r;
        d[std::size_t(i + 1)] = g + p;
        g = c * r - b;

        // Accumulate the (real) rotation into eigenvector columns i, i+1.
        T* zi = z.col(i);
        T* zi1 = z.col(i + 1);
        for (Index k = 0; k < z.rows(); ++k) {
          const T f2 = zi1[k];
          zi1[k] = T(s) * zi[k] + T(c) * f2;
          zi[k] = T(c) * zi[k] - T(s) * f2;
        }
      }
      if (underflow) continue;
      d[std::size_t(l)] -= p;
      e[std::size_t(l)] = g;
      e[std::size_t(m)] = R(0);
    }
  }
  return true;
}

/// Sort eigenpairs ascending in place (selection sort with column swaps; n
/// is small — the subspace size n_e — so the O(n^2) swap cost is negligible).
template <typename T>
void sort_eigenpairs(std::vector<RealType<T>>& w, MatrixView<T> z) {
  const Index n = Index(w.size());
  CHASE_CHECK(z.cols() == n);
  for (Index i = 0; i < n; ++i) {
    Index best = i;
    for (Index j = i + 1; j < n; ++j) {
      if (w[std::size_t(j)] < w[std::size_t(best)]) best = j;
    }
    if (best != i) {
      std::swap(w[std::size_t(i)], w[std::size_t(best)]);
      for (Index k = 0; k < z.rows(); ++k) std::swap(z(k, i), z(k, best));
    }
  }
}

/// Full Hermitian eigendecomposition: on exit w holds the eigenvalues in
/// ascending order and z the corresponding orthonormal eigenvectors; the
/// input matrix is destroyed. Throws on (exceedingly rare) QL non-convergence.
template <typename T>
void heevd(MatrixView<T> a, std::vector<RealType<T>>& w, MatrixView<T> z) {
  using R = RealType<T>;
  const Index n = a.rows();
  CHASE_CHECK(a.cols() == n && z.rows() == n && z.cols() == n);
  std::vector<R> d, e;
  hetrd_lower(a, d, e, z);
  e.push_back(R(0));  // tql2-style guard slot
  CHASE_CHECK_MSG(steql(d, e, z), "heevd: QL iteration failed to converge");
  w.assign(d.begin(), d.end());
  sort_eigenpairs(w, z);
}

}  // namespace chase::la
