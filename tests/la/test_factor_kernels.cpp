// Property sweep for the CHASE_FACTOR_KERNEL policy engine (src/la/factor/):
// every blocked factorization kernel must agree with the seed scalar oracle
// it replaced on every shape class the panel logic special-cases — empty,
// single, one-panel (<= kFactorBlock, where the policies are bitwise
// identical by the naive fallback), panel-edge remainders and multi-panel
// triangles — for all four scalar types. POTRF breakdowns must report the
// exact same info index under both policies (the QR escalation ladder keys
// off it), and the sequential solver must produce the same eigenpairs under
// either policy end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "core/sequential.hpp"
#include "gen/spectrum.hpp"
#include "la/factor/policy.hpp"
#include "la/gemm.hpp"
#include "la/heevd.hpp"
#include "la/norms.hpp"
#include "la/potrf.hpp"
#include "la/qr_blocked.hpp"
#include "la/trsm.hpp"
#include "tests/testing.hpp"

namespace chase::la {
namespace {

using chase::testing::naive_gemm;
using chase::testing::random_hermitian;
using chase::testing::random_matrix;
using chase::testing::tol;

constexpr FactorKernel kPolicies[] = {FactorKernel::kNaive,
                                      FactorKernel::kBlocked};

// One value per shape class: empty, single, one panel minus/exact/plus one,
// and several panels with a remainder.
constexpr Index kTriangleDims[] = {0, 1, 63, 64, 65, 194};
constexpr Index kRhsDims[] = {1, 5, 97};

/// Well-conditioned random upper (or lower) triangular matrix: unit-scale
/// diagonal, off-diagonal damped by 1/n so solves do not amplify rounding
/// differences beyond the componentwise tolerance.
template <typename T>
Matrix<T> random_triangular(Index n, bool upper, int seed) {
  using R = RealType<T>;
  auto a = random_matrix<T>(n, n, seed);
  const R damp = R(1) / R(std::max<Index>(n, 1));
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < n; ++i) {
      const bool keep = upper ? i < j : i > j;
      if (i == j) {
        a(i, j) = T(R(2) + real_part(a(i, j)));
      } else if (keep) {
        a(i, j) *= T(damp);
      } else {
        a(i, j) = T(0);
      }
    }
  }
  return a;
}

template <typename T>
class FactorKernelsTyped : public ::testing::Test {};
TYPED_TEST_SUITE(FactorKernelsTyped, chase::testing::ScalarTypes);

TYPED_TEST(FactorKernelsTyped, TrsmTrmmBlockedMatchesNaiveAcrossShapes) {
  using T = TypeParam;
  using R = RealType<T>;
  int seed = 0;
  for (Index n : kTriangleDims) {
    for (Index m : kRhsDims) {
      ++seed;
      const auto upper = random_triangular<T>(n, /*upper=*/true, 10 + seed);
      const auto lower = random_triangular<T>(n, /*upper=*/false, 20 + seed);
      const auto right = random_matrix<T>(m, n, 30 + seed);  // m x n, X R ops
      const auto left = random_matrix<T>(n, m, 40 + seed);   // n x m, L X ops
      const R t = tol<T>(R(100)) * R(std::max<Index>(n, 1));

      struct Case {
        const char* name;
        void (*run)(ConstMatrixView<T>, MatrixView<T>);
        const Matrix<T>* tri;
        const Matrix<T>* rhs;
      };
      const Case cases[] = {
          {"trsm_right_upper", &trsm_right_upper<T>, &upper, &right},
          {"trsm_left_lower", &trsm_left_lower<T>, &lower, &left},
          {"trsm_left_upper_conj", &trsm_left_upper_conj<T>, &upper, &left},
          {"trmm_right_upper", &trmm_right_upper<T>, &upper, &right},
          {"trmm_left_upper", &trmm_left_upper<T>, &upper, &left},
          {"trmm_left_upper_conj", &trmm_left_upper_conj<T>, &upper, &left},
      };
      for (const Case& c : cases) {
        Matrix<T> results[2];
        for (int p = 0; p < 2; ++p) {
          ScopedPolicy scoped(factor_kernel_policy, kPolicies[p]);
          results[p] = clone(c.rhs->cview());
          c.run(c.tri->cview(), results[p].view());
        }
        EXPECT_LE(max_abs_diff(results[0].cview(), results[1].cview()), t)
            << c.name << " n=" << n << " m=" << m;
      }
    }
  }
}

TYPED_TEST(FactorKernelsTyped, HerkUpperBlockedMatchesNaiveAcrossShapes) {
  using T = TypeParam;
  using R = RealType<T>;
  int seed = 0;
  for (Index n : kTriangleDims) {
    for (Index m : {Index(1), Index(37), Index(130)}) {
      ++seed;
      const auto x = random_matrix<T>(m, n, 50 + seed);
      const T alpha = (seed % 2 == 0) ? T(1) : T(R(-0.75));
      const T beta = (seed % 3 == 0) ? T(0) : T(R(0.5));
      const auto c0 = random_matrix<T>(n, n, 60 + seed);
      Matrix<T> results[2];
      for (int p = 0; p < 2; ++p) {
        ScopedPolicy scoped(factor_kernel_policy, kPolicies[p]);
        results[p] = clone(c0.cview());
        herk_upper(alpha, x.cview(), beta, results[p].view());
      }
      EXPECT_LE(max_abs_diff(results[0].cview(), results[1].cview()),
                tol<T>(R(100)) * R(std::max<Index>(m, 1)))
          << "n=" << n << " m=" << m;
      // Both kernels must leave the strict lower triangle untouched — the
      // contract that lets CholeskyQR skip the Hermitian mirror entirely.
      for (int p = 0; p < 2; ++p) {
        for (Index j = 0; j < n; ++j) {
          for (Index i = j + 1; i < n; ++i) {
            EXPECT_EQ(results[p](i, j), c0(i, j))
                << factor_kernel_name(kPolicies[p]) << " n=" << n;
          }
        }
      }
    }
  }
}

TYPED_TEST(FactorKernelsTyped, PotrfBlockedMatchesNaiveOnPosDef) {
  using T = TypeParam;
  using R = RealType<T>;
  for (Index n : kTriangleDims) {
    // Positive definite by construction: Gram of a tall random block plus a
    // diagonal boost.
    const auto x = random_matrix<T>(n + 20, n, 70 + int(n));
    Matrix<T> a0(n, n);
    naive_gemm(T(1), Op::kConjTrans, x.cview(), Op::kNoTrans, x.cview(), T(0),
               a0.view());
    for (Index j = 0; j < n; ++j) a0(j, j) += T(R(n + 1));
    Matrix<T> results[2];
    int infos[2] = {0, 0};
    for (int p = 0; p < 2; ++p) {
      ScopedPolicy scoped(factor_kernel_policy, kPolicies[p]);
      results[p] = clone(a0.cview());
      infos[p] = potrf_upper(results[p].view());
    }
    EXPECT_EQ(infos[0], 0) << "n=" << n;
    EXPECT_EQ(infos[1], 0) << "n=" << n;
    EXPECT_LE(max_abs_diff(results[0].cview(), results[1].cview()),
              tol<T>(R(100)) * R(std::max<Index>(n, 1)))
        << "n=" << n;
    // Strict lower triangle exactly zeroed under both policies.
    for (int p = 0; p < 2; ++p) {
      for (Index j = 0; j < n; ++j) {
        for (Index i = j + 1; i < n; ++i) {
          EXPECT_EQ(results[p](i, j), T(0))
              << factor_kernel_name(kPolicies[p]) << " n=" << n;
        }
      }
    }
  }
}

TYPED_TEST(FactorKernelsTyped, PotrfInfoIndexAgreesExactly) {
  using T = TypeParam;
  // Indefinite diagonal: breakdown at a first-panel index and at an index
  // deep inside a later panel (info > kFactorBlock exercises the blocked
  // kernel's j0 offset arithmetic).
  for (Index bad : {Index(2), Index(100)}) {
    const Index n = 150;
    Matrix<T> a0(n, n);
    for (Index j = 0; j < n; ++j) a0(j, j) = T(1);
    a0(bad, bad) = T(-1);
    int infos[2] = {0, 0};
    for (int p = 0; p < 2; ++p) {
      ScopedPolicy scoped(factor_kernel_policy, kPolicies[p]);
      auto a = clone(a0.cview());
      infos[p] = potrf_upper(a.view());
    }
    EXPECT_EQ(infos[0], int(bad) + 1);
    EXPECT_EQ(infos[1], infos[0]);
  }
}

TYPED_TEST(FactorKernelsTyped, PotrfPivotFloorBreakdownAgrees) {
  using T = TypeParam;
  using R = RealType<T>;
  // Gram matrix of a rank-deficient block (duplicated column): with the
  // CholeskyQR relative pivot floor both policies must report a breakdown,
  // at the same index.
  const Index n = 90;
  auto x = random_matrix<T>(n + 40, n, 80);
  for (Index i = 0; i < x.rows(); ++i) x(i, n - 1) = x(i, 70);
  Matrix<T> a0(n, n);
  naive_gemm(T(1), Op::kConjTrans, x.cview(), Op::kNoTrans, x.cview(), T(0),
             a0.view());
  const R rel_tol = R(n) * unit_roundoff<T>();
  int infos[2] = {0, 0};
  for (int p = 0; p < 2; ++p) {
    ScopedPolicy scoped(factor_kernel_policy, kPolicies[p]);
    auto a = clone(a0.cview());
    infos[p] = potrf_upper(a.view(), rel_tol);
  }
  EXPECT_GT(infos[0], 0);
  EXPECT_EQ(infos[1], infos[0]);
}

TYPED_TEST(FactorKernelsTyped, HetrdReconstructsUnderBothPolicies) {
  using T = TypeParam;
  using R = RealType<T>;
  for (Index n : {Index(1), Index(5), Index(64), Index(65), Index(150)}) {
    const auto a0 = random_hermitian<T>(n, 90 + int(n));
    std::vector<R> ds[2], es[2];
    Matrix<T> qs[2];
    for (int p = 0; p < 2; ++p) {
      ScopedPolicy scoped(factor_kernel_policy, kPolicies[p]);
      auto a = clone(a0.cview());
      qs[p] = Matrix<T>(n, n);
      hetrd_lower(a.view(), ds[p], es[p], qs[p].view());
    }
    const R t = tol<T>(R(100)) * R(n);
    // The tridiagonal data agrees across policies. Both reductions are
    // backward stable but sum trailing updates in different orders, so the
    // entrywise gap is bounded by c * n * u * ||A|| with ||A|| ~ sqrt(n) for
    // this ensemble — hence the extra sqrt(n) over the reconstruction bound.
    const R td = t * std::sqrt(R(n));
    for (Index i = 0; i < n; ++i) {
      EXPECT_NEAR(ds[0][std::size_t(i)], ds[1][std::size_t(i)], td)
          << "n=" << n << " i=" << i;
    }
    for (Index i = 0; i + 1 < n; ++i) {
      EXPECT_NEAR(es[0][std::size_t(i)], es[1][std::size_t(i)], td)
          << "n=" << n << " i=" << i;
    }
    // ...and each policy's (Q, T) reconstructs A: Q orthonormal and
    // Q T Q^H = A.
    for (int p = 0; p < 2; ++p) {
      EXPECT_LE(orthogonality_error(qs[p].cview()), t)
          << factor_kernel_name(kPolicies[p]) << " n=" << n;
      Matrix<T> tri(n, n);
      for (Index i = 0; i < n; ++i) {
        tri(i, i) = T(ds[p][std::size_t(i)]);
        if (i + 1 < n) {
          tri(i + 1, i) = T(es[p][std::size_t(i)]);
          tri(i, i + 1) = T(es[p][std::size_t(i)]);
        }
      }
      Matrix<T> qt(n, n), qtqh(n, n);
      naive_gemm(T(1), Op::kNoTrans, qs[p].cview(), Op::kNoTrans, tri.cview(),
                 T(0), qt.view());
      naive_gemm(T(1), Op::kNoTrans, qt.cview(), Op::kConjTrans,
                 qs[p].cview(), T(0), qtqh.view());
      EXPECT_LE(max_abs_diff(qtqh.cview(), a0.cview()), t)
          << factor_kernel_name(kPolicies[p]) << " n=" << n;
    }
  }
}

TYPED_TEST(FactorKernelsTyped, BlockedQrOrthonormalizesUnderBothPolicies) {
  using T = TypeParam;
  using R = RealType<T>;
  // householder_orthonormalize_blocked rides larft/larfb, which dispatch on
  // the factor policy; either way Q must be orthonormal and span X.
  const Index m = 200, n = 70;
  const auto x0 = random_matrix<T>(m, n, 110);
  for (FactorKernel kern : kPolicies) {
    ScopedPolicy scoped(factor_kernel_policy, kern);
    auto q = clone(x0.cview());
    householder_orthonormalize_blocked(q.view());
    const R t = tol<T>(R(100)) * R(m);
    EXPECT_LE(orthogonality_error(q.cview()), t) << factor_kernel_name(kern);
    // Span check: X = Q (Q^H X) to rounding.
    Matrix<T> r(n, n), qr(m, n);
    naive_gemm(T(1), Op::kConjTrans, q.cview(), Op::kNoTrans, x0.cview(),
               T(0), r.view());
    naive_gemm(T(1), Op::kNoTrans, q.cview(), Op::kNoTrans, r.cview(), T(0),
               qr.view());
    EXPECT_LE(max_abs_diff(qr.cview(), x0.cview()), t)
        << factor_kernel_name(kern);
  }
}

TEST(FactorPolicy, ParseAndNames) {
  EXPECT_EQ(parse_factor_kernel("naive"), FactorKernel::kNaive);
  EXPECT_EQ(parse_factor_kernel("blocked"), FactorKernel::kBlocked);
  EXPECT_FALSE(parse_factor_kernel("micro").has_value());
  EXPECT_FALSE(parse_factor_kernel("").has_value());
  for (FactorKernel kern : kPolicies) {
    EXPECT_EQ(parse_factor_kernel(factor_kernel_name(kern)), kern);
  }
}

TEST(FactorPolicy, ScopedOverrideRestores) {
  const FactorKernel before = factor_kernel_policy.get();
  {
    ScopedPolicy scoped(factor_kernel_policy, FactorKernel::kNaive);
    EXPECT_EQ(factor_kernel_policy.get(), FactorKernel::kNaive);
    {
      ScopedPolicy inner(factor_kernel_policy, FactorKernel::kBlocked);
      EXPECT_EQ(factor_kernel_policy.get(), FactorKernel::kBlocked);
    }
    EXPECT_EQ(factor_kernel_policy.get(), FactorKernel::kNaive);
  }
  EXPECT_EQ(factor_kernel_policy.get(), before);
}

// End-to-end policy equivalence: the sequential Algorithm 2 driver
// (CholeskyQR's HERK/POTRF/TRSM and the Rayleigh-Ritz HEEVD all ride the
// factor policy) must produce the same eigenpairs under both policies to
// solver tolerance.
template <typename T>
class FactorKernelsSolverTyped : public ::testing::Test {};
TYPED_TEST_SUITE(FactorKernelsSolverTyped, chase::testing::DoubleScalarTypes);

TYPED_TEST(FactorKernelsSolverTyped, SolverEigenpairsAgreeAcrossPolicies) {
  using T = TypeParam;
  const Index n = 120;
  auto eigs = gen::uniform_spectrum<double>(n, -2.0, 4.0);
  auto h = gen::hermitian_with_spectrum<T>(eigs, 3);

  core::ChaseConfig cfg;
  cfg.nev = 10;
  cfg.nex = 6;
  cfg.tol = 1e-10;

  std::vector<core::ChaseResult<T>> results;
  for (FactorKernel kern : kPolicies) {
    ScopedPolicy scoped(factor_kernel_policy, kern);
    results.push_back(core::solve_sequential<T>(h.cview(), cfg));
    ASSERT_TRUE(results.back().converged) << factor_kernel_name(kern);
  }
  const auto& ref = results.front();
  const auto& r = results.back();
  for (Index j = 0; j < cfg.nev; ++j) {
    EXPECT_NEAR(r.eigenvalues[std::size_t(j)], ref.eigenvalues[std::size_t(j)],
                1e-8)
        << "pair " << j;
    // Eigenvectors agree up to phase: |<v_ref, v>| == 1. The spectrum is
    // uniform, so the wanted pairs are simple and this is well-defined.
    T ip(0);
    for (Index i = 0; i < n; ++i) {
      ip += conjugate(ref.eigenvectors(i, j)) * r.eigenvectors(i, j);
    }
    EXPECT_NEAR(abs_value(ip), 1.0, 1e-7) << "pair " << j;
  }
}

}  // namespace
}  // namespace chase::la
