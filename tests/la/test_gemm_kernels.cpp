// Property sweep for the micro-kernel engine (src/la/gemm.hpp,
// gemm_micro.hpp, hemm.hpp): gemm() and the detail::gemm_naive oracle must
// agree with the test-local triple-loop reference on every shape class the
// engine special-cases — empty/degenerate dims, single vectors, one tile,
// tile-edge remainders and multi-panel blocks — for all op combinations and
// scalar types, and the Hermitian-aware hemm must match the oracle on a
// Hermitian operand.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <limits>

#include "la/gemm.hpp"
#include "la/hemm.hpp"
#include "la/norms.hpp"
#include "tests/testing.hpp"

namespace chase::la {
namespace {

using chase::testing::naive_gemm;
using chase::testing::random_hermitian;
using chase::testing::random_matrix;
using chase::testing::tol;

constexpr Op kOps[] = {Op::kNoTrans, Op::kTrans, Op::kConjTrans};

template <typename T>
class GemmKernelsTyped : public ::testing::Test {};
TYPED_TEST_SUITE(GemmKernelsTyped, chase::testing::ScalarTypes);

TYPED_TEST(GemmKernelsTyped, AllPoliciesMatchNaiveAcrossShapeSweep) {
  using T = TypeParam;
  using R = RealType<T>;
  // One value per shape class: empty, single, sub-tile, around one register
  // tile, and several tiles with a remainder.
  const Index dims[] = {0, 1, 5, 63, 64, 65, 192};
  int combo = 0;
  for (Index m : dims) {
    for (Index n : dims) {
      for (Index k : dims) {
        // Rotate through op and alpha/beta combinations deterministically so
        // the full sweep stays fast while every pairing is exercised many
        // times across the shape grid.
        const Op opa = kOps[combo % 3];
        const Op opb = kOps[(combo / 3) % 3];
        const T alpha = (combo % 4 == 0) ? T(1) : T(R(0.75));
        const T beta = (combo % 2 == 0) ? T(0) : T(R(-0.5));
        ++combo;
        auto a = (opa == Op::kNoTrans) ? random_matrix<T>(m, k, 100 + combo)
                                       : random_matrix<T>(k, m, 100 + combo);
        auto b = (opb == Op::kNoTrans) ? random_matrix<T>(k, n, 200 + combo)
                                       : random_matrix<T>(n, k, 200 + combo);
        auto ref = random_matrix<T>(m, n, 300 + combo);
        auto got = clone(ref.cview());
        naive_gemm(alpha, opa, a.cview(), opb, b.cview(), beta, ref.view());
        const R t = tol<T>(R(30)) * R(std::max<Index>(k, 1));
        auto c = clone(got.cview());
        gemm(alpha, opa, a.cview(), opb, b.cview(), beta, c.view());
        EXPECT_LE(max_abs_diff(c.cview(), ref.cview()), t)
            << "gemm m=" << m << " n=" << n << " k=" << k
            << " opa=" << int(opa) << " opb=" << int(opb);
        auto oracle = clone(got.cview());
        detail::gemm_naive(alpha, opa, a.cview(), opb, b.cview(), beta,
                           oracle.view());
        EXPECT_LE(max_abs_diff(oracle.cview(), ref.cview()), t)
            << "gemm_naive m=" << m << " n=" << n << " k=" << k
            << " opa=" << int(opa) << " opb=" << int(opb);
      }
    }
  }
}

TYPED_TEST(GemmKernelsTyped, MicroBetaZeroOverwritesNaN) {
  using T = TypeParam;
  auto a = random_matrix<T>(65, 63, 1);
  auto b = random_matrix<T>(63, 65, 2);
  Matrix<T> c(65, 65), ref(65, 65);
  for (Index j = 0; j < 65; ++j) {
    for (Index i = 0; i < 65; ++i) {
      c(i, j) = T(std::numeric_limits<RealType<T>>::quiet_NaN());
    }
  }
  gemm(T(1), a.cview(), b.cview(), T(0), c.view());
  naive_gemm(T(1), Op::kNoTrans, a.cview(), Op::kNoTrans, b.cview(), T(0),
             ref.view());
  EXPECT_LE(max_abs_diff(c.cview(), ref.cview()),
            tol<T>(RealType<T>(4000)));
}

TYPED_TEST(GemmKernelsTyped, HemmMatchesGemmOnHermitianOperand) {
  using T = TypeParam;
  using R = RealType<T>;
  // hemm reads only the upper triangle; equality with the full-storage
  // oracle holds to rounding (not bitwise: the two kernels sum in different
  // orders), so the comparison is tolerance-based.
  const Index sizes[] = {1, 5, 64, 192, 200};
  const Index col_counts[] = {1, 7, 64, 481};
  for (Index n : sizes) {
    auto h = random_hermitian<T>(n, 40 + n);
    for (Index ncols : col_counts) {
      auto b = random_matrix<T>(n, ncols, 50 + ncols);
      const T alpha = T(R(1.25));
      const T beta = T(R(-0.5));
      auto ref = random_matrix<T>(n, ncols, 60);
      auto c = clone(ref.cview());
      detail::gemm_naive(alpha, Op::kNoTrans, h.cview(), Op::kNoTrans,
                         b.cview(), beta, ref.view());
      hemm(alpha, h.cview(), b.cview(), beta, c.view());
      EXPECT_LE(max_abs_diff(c.cview(), ref.cview()), tol<T>(R(30)) * R(n))
          << "n=" << n << " ncols=" << ncols;
    }
  }
}

TYPED_TEST(GemmKernelsTyped, HemmReadsOnlyUpperTriangleUnderMicro) {
  using T = TypeParam;
  using R = RealType<T>;
  // Scribble NaN over the strict lower triangle: hemm must still produce
  // the correct product from the upper triangle alone.
  const Index n = 130;
  auto h = random_hermitian<T>(n, 7);
  auto ref_h = clone(h.cview());
  for (Index j = 0; j < n; ++j) {
    for (Index i = j + 1; i < n; ++i) {
      h(i, j) = T(std::numeric_limits<R>::quiet_NaN());
    }
  }
  auto b = random_matrix<T>(n, 33, 8);
  Matrix<T> c(n, 33), ref(n, 33);
  hemm(T(1), h.cview(), b.cview(), T(0), c.view());
  naive_gemm(T(1), Op::kNoTrans, ref_h.cview(), Op::kNoTrans, b.cview(), T(0),
             ref.view());
  EXPECT_LE(max_abs_diff(c.cview(), ref.cview()), tol<T>(R(30)) * R(n));
}

TYPED_TEST(GemmKernelsTyped, GramMatchesExplicitProductUnderAllPolicies) {
  using T = TypeParam;
  using R = RealType<T>;
  auto x = random_matrix<T>(137, 61, 9);
  Matrix<T> ref(61, 61);
  naive_gemm(T(1), Op::kConjTrans, x.cview(), Op::kNoTrans, x.cview(), T(0),
             ref.view());
  Matrix<T> c(61, 61);
  gram(x.cview(), c.view());
  EXPECT_LE(max_abs_diff(c.cview(), ref.cview()), tol<T>(R(30)) * R(137));
  // The mirrored result must be exactly Hermitian (POTRF's precondition).
  for (Index j = 0; j < 61; ++j) {
    for (Index i = 0; i < j; ++i) {
      EXPECT_EQ(c(j, i), conjugate(c(i, j)));
    }
  }
}

}  // namespace
}  // namespace chase::la
