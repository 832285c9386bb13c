// Mixed-precision pipeline: promotion-policy triggers in isolation, the
// CHASE_PRECISION policy plumbing, and end-to-end mixed solves (sequential,
// distributed v1.4, legacy LMS) converging to the fp64 eigenpairs with the
// fp32 filter demonstrably engaged.
#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "core/legacy_lms.hpp"
#include "core/precision.hpp"
#include "core/sequential.hpp"
#include "gen/spectrum.hpp"
#include "perf/tracker.hpp"
#include "tests/testing.hpp"

namespace chase::core {
namespace {

// ---------------------------------------------------------------------------
// PromotionPolicy in isolation: the three triggers, one at a time.

TEST(PromotionPolicy, FloorPromotesOnlyColumnsBelowFloor) {
  engine::PromotionConfig cfg;
  cfg.resid_floor = 1e-5;
  engine::PromotionPolicy p(cfg);
  p.reset(4);
  p.observe(0, 4, {1e-3, 1e-6, 1e-3, 1e-3});
  EXPECT_FALSE(p.column_fp64(0));
  EXPECT_TRUE(p.column_fp64(1));
  EXPECT_FALSE(p.column_fp64(2));
  EXPECT_FALSE(p.column_fp64(3));
  EXPECT_EQ(p.columns_promoted(), 1);
  EXPECT_FALSE(p.subspace_fp64());
}

TEST(PromotionPolicy, StallPromotesAfterConsecutiveStalledIterations) {
  engine::PromotionConfig cfg;
  cfg.resid_floor = 1e-12;  // keep the floor out of the way
  cfg.stall_ratio = 0.85;
  cfg.column_stall_limit = 2;
  engine::PromotionPolicy p(cfg);
  p.reset(2);
  // Column 0 stalls twice in a row; column 1 keeps contracting.
  p.observe(0, 2, {1.0, 1.0});
  p.observe(0, 2, {0.99, 0.5});
  EXPECT_FALSE(p.column_fp64(0)) << "one stall is not enough";
  p.observe(0, 2, {0.985, 0.25});
  EXPECT_TRUE(p.column_fp64(0));
  EXPECT_FALSE(p.column_fp64(1));
  EXPECT_EQ(p.columns_promoted(), 1);
}

TEST(PromotionPolicy, ImprovingColumnResetsItsStallCount) {
  engine::PromotionConfig cfg;
  cfg.resid_floor = 1e-12;
  cfg.stall_ratio = 0.85;
  cfg.column_stall_limit = 2;
  engine::PromotionPolicy p(cfg);
  p.reset(1);
  p.observe(0, 1, {1.0});
  p.observe(0, 1, {0.99});   // stall 1
  p.observe(0, 1, {0.1});    // real progress: counter resets
  p.observe(0, 1, {0.099});  // stall 1 again, not 2
  EXPECT_FALSE(p.column_fp64(0));
  p.observe(0, 1, {0.0985});  // stall 2
  EXPECT_TRUE(p.column_fp64(0));
}

TEST(PromotionPolicy, SubspaceLimitZeroFallsBackImmediately) {
  engine::PromotionConfig cfg;
  cfg.subspace_stall_limit = 0;  // the deterministic-test hook
  engine::PromotionPolicy p(cfg);
  p.reset(3);
  EXPECT_FALSE(p.subspace_fp64());
  p.observe(0, 3, {1.0, 1.0, 1.0});
  EXPECT_TRUE(p.subspace_fp64());
  EXPECT_EQ(p.subspace_promotions(), 1);
  // The subspace flag covers every column, promoted or not.
  EXPECT_TRUE(p.column_fp64(0));
  EXPECT_TRUE(p.column_fp64(2));
}

TEST(PromotionPolicy, SubspaceFallsBackAfterStagnationStreak) {
  engine::PromotionConfig cfg;
  cfg.resid_floor = 1e-12;
  cfg.stall_ratio = 0.85;
  cfg.column_stall_limit = 1000;  // isolate the subspace trigger
  cfg.subspace_stall_limit = 2;
  engine::PromotionPolicy p(cfg);
  p.reset(2);
  p.observe(0, 2, {1.0, 1.0});  // first observation: baseline
  EXPECT_FALSE(p.subspace_fp64());
  p.observe(0, 2, {0.99, 0.99});  // no lock progress, best stalled: streak 1
  EXPECT_FALSE(p.subspace_fp64());
  p.observe(0, 2, {0.985, 0.985});  // streak 2: fall back
  EXPECT_TRUE(p.subspace_fp64());
  EXPECT_EQ(p.subspace_promotions(), 1);
}

TEST(PromotionPolicy, LockingProgressClearsSubspaceStreak) {
  engine::PromotionConfig cfg;
  cfg.resid_floor = 1e-12;
  cfg.column_stall_limit = 1000;
  cfg.subspace_stall_limit = 2;
  engine::PromotionPolicy p(cfg);
  p.reset(4);
  p.observe(0, 4, {1.0, 1.0, 1.0, 1.0});
  p.observe(0, 4, {0.99, 0.99, 0.99, 0.99});  // streak 1
  p.observe(1, 3, {0.0, 0.985, 0.985, 0.985});  // a column locked: streak resets
  p.observe(1, 3, {0.0, 0.98, 0.98, 0.98});     // streak 1 again
  EXPECT_FALSE(p.subspace_fp64());
}

TEST(PromotionPolicy, ResetClearsAllState) {
  engine::PromotionConfig cfg;
  cfg.subspace_stall_limit = 0;
  engine::PromotionPolicy p(cfg);
  p.reset(2);
  p.observe(0, 2, {1e-9, 1e-9});  // floor + immediate subspace fallback
  EXPECT_TRUE(p.subspace_fp64());
  EXPECT_GT(p.columns_promoted(), 0);
  p.reset(2);
  EXPECT_FALSE(p.subspace_fp64());
  EXPECT_FALSE(p.column_fp64(0));
  EXPECT_EQ(p.columns_promoted(), 0);
  EXPECT_EQ(p.subspace_promotions(), 0);
}

// ---------------------------------------------------------------------------
// Policy plumbing.

TEST(PrecisionPolicy, ParseAndName) {
  EXPECT_EQ(parse_precision("double"), Precision::kDouble);
  EXPECT_EQ(parse_precision("mixed"), Precision::kMixed);
  EXPECT_FALSE(parse_precision("single").has_value());
  EXPECT_FALSE(parse_precision("").has_value());
  EXPECT_EQ(precision_name(Precision::kDouble), "double");
  EXPECT_EQ(precision_name(Precision::kMixed), "mixed");
}

TEST(PrecisionPolicy, ScopedOverrideRestores) {
  const Precision before = precision_policy.get();
  {
    ScopedPolicy outer(precision_policy, Precision::kMixed);
    EXPECT_EQ(precision_policy.get(), Precision::kMixed);
    {
      ScopedPolicy inner(precision_policy, Precision::kDouble);
      EXPECT_EQ(precision_policy.get(), Precision::kDouble);
    }
    EXPECT_EQ(precision_policy.get(), Precision::kMixed);
  }
  EXPECT_EQ(precision_policy.get(), before);
}

// ---------------------------------------------------------------------------
// End-to-end mixed solves.

template <typename T>
la::Matrix<T> test_matrix(la::Index n) {
  return gen::hermitian_with_spectrum<T>(gen::dft_like_spectrum<double>(n, 7),
                                         7);
}

ChaseConfig small_config() {
  ChaseConfig cfg;
  cfg.nev = 8;
  cfg.nex = 6;
  cfg.tol = 1e-9;
  return cfg;
}

template <typename T>
class MixedSolve : public ::testing::Test {};
TYPED_TEST_SUITE(MixedSolve, chase::testing::DoubleScalarTypes);

TYPED_TEST(MixedSolve, SequentialMatchesDoublePrecision) {
  using T = TypeParam;
  const la::Index n = 96;
  auto h = test_matrix<T>(n);
  auto cfg = small_config();

  ChaseResult<T> ref = [&] {
    ScopedPolicy sp(precision_policy, Precision::kDouble);
    return solve_sequential<T>(h.cview(), cfg);
  }();
  ASSERT_TRUE(ref.converged);

  perf::Tracker t;
  perf::set_thread_tracker(&t);
  ChaseResult<T> mixed = [&] {
    ScopedPolicy sp(precision_policy, Precision::kMixed);
    return solve_sequential<T>(h.cview(), cfg);
  }();
  perf::set_thread_tracker(nullptr);

  ASSERT_TRUE(mixed.converged);
  for (la::Index j = 0; j < cfg.nev; ++j) {
    EXPECT_NEAR(mixed.eigenvalues[std::size_t(j)],
                ref.eigenvalues[std::size_t(j)], 1e-7)
        << "pair " << j;
  }
  // The fp32 filter actually ran, and locked pairs were refined.
  EXPECT_GT(t.counter("precision.filter.cols.fp32"), 0.0);
  EXPECT_GT(t.counter("precision.refine.pairs"), 0.0);
}

TEST(MixedSolve, DistributedV14MatchesSequentialDouble) {
  using T = std::complex<double>;
  const la::Index n = 96;
  auto h = test_matrix<T>(n);
  auto cfg = small_config();

  ChaseResult<T> seq = [&] {
    ScopedPolicy sp(precision_policy, Precision::kDouble);
    return solve_sequential<T>(h.cview(), cfg);
  }();
  ASSERT_TRUE(seq.converged);

  ScopedPolicy sp(precision_policy, Precision::kMixed);
  std::vector<perf::Tracker> trackers(4);
  comm::Team team(4);
  team.run(
      [&](comm::Communicator& world) {
        comm::Grid2d grid(world, 2, 2);
        auto map = dist::IndexMap::block(n, 2);
        dist::DistHermitianMatrix<T> hd(grid, map, map);
        hd.fill_from_global(h.cview());
        auto r = solve(hd, cfg);
        ASSERT_TRUE(r.converged);
        for (la::Index j = 0; j < cfg.nev; ++j) {
          EXPECT_NEAR(r.eigenvalues[std::size_t(j)],
                      seq.eigenvalues[std::size_t(j)], 1e-7)
              << "pair " << j;
        }
      },
      &trackers);
  for (const auto& t : trackers) {
    EXPECT_GT(t.counter("precision.filter.cols.fp32"), 0.0);
    EXPECT_GT(t.counter("precision.refine.pairs"), 0.0);
  }
}

TEST(MixedSolve, LegacyLmsMatchesSequentialDouble) {
  using T = std::complex<double>;
  const la::Index n = 80;
  auto h = test_matrix<T>(n);
  auto cfg = small_config();

  ChaseResult<T> seq = [&] {
    ScopedPolicy sp(precision_policy, Precision::kDouble);
    return solve_sequential<T>(h.cview(), cfg);
  }();
  ASSERT_TRUE(seq.converged);

  ScopedPolicy sp(precision_policy, Precision::kMixed);
  std::vector<perf::Tracker> trackers(4);
  comm::Team team(4);
  team.run(
      [&](comm::Communicator& world) {
        comm::Grid2d grid(world, 2, 2);
        auto map = dist::IndexMap::block(n, 2);
        dist::DistHermitianMatrix<T> hd(grid, map, map);
        hd.fill_from_global(h.cview());
        auto r = solve_lms(hd, cfg);
        ASSERT_TRUE(r.converged);
        for (la::Index j = 0; j < cfg.nev; ++j) {
          EXPECT_NEAR(r.eigenvalues[std::size_t(j)],
                      seq.eigenvalues[std::size_t(j)], 1e-7)
              << "pair " << j;
        }
      },
      &trackers);
  for (const auto& t : trackers) {
    EXPECT_GT(t.counter("precision.filter.cols.fp32"), 0.0);
    EXPECT_GT(t.counter("precision.refine.pairs"), 0.0);
  }
}

TEST(MixedSolve, PerColumnFallbackEngagesDeterministically) {
  // A floor above every reachable residual promotes each active column the
  // first time it is observed, so from iteration 2 on the filter runs the
  // promoted columns in fp64 — while the subspace trigger stays quiet.
  using T = double;
  const la::Index n = 96;
  auto h = test_matrix<T>(n);
  auto cfg = small_config();

  engine::PromotionConfig pc;
  pc.resid_floor = 1e9;
  pc.subspace_stall_limit = 1000;
  ScopedPromotionConfig spc(pc);
  ScopedPolicy sp(precision_policy, Precision::kMixed);

  perf::Tracker t;
  perf::set_thread_tracker(&t);
  auto r = solve_sequential<T>(h.cview(), cfg);
  perf::set_thread_tracker(nullptr);

  ASSERT_TRUE(r.converged);
  EXPECT_GT(t.counter("precision.promote.column"), 0.0);
  EXPECT_GT(t.counter("precision.filter.cols.fp64"), 0.0);
  EXPECT_GT(t.counter("precision.filter.cols.fp32"), 0.0)
      << "iteration 1 runs before any residual is observed";
  EXPECT_EQ(t.counter("precision.promote.subspace"), 0.0);
}

TEST(MixedSolve, SubspaceFallbackEngagesDeterministically) {
  // subspace_stall_limit <= 0 falls back at the first observation: the whole
  // panel filters in fp64 afterwards without any per-column promotions.
  using T = double;
  const la::Index n = 96;
  auto h = test_matrix<T>(n);
  auto cfg = small_config();

  engine::PromotionConfig pc;
  pc.resid_floor = 0.0;  // keep the per-column floor out of the way
  pc.column_stall_limit = 1000;
  pc.subspace_stall_limit = 0;
  ScopedPromotionConfig spc(pc);
  ScopedPolicy sp(precision_policy, Precision::kMixed);

  perf::Tracker t;
  perf::set_thread_tracker(&t);
  auto r = solve_sequential<T>(h.cview(), cfg);
  perf::set_thread_tracker(nullptr);

  ASSERT_TRUE(r.converged);
  EXPECT_GE(t.counter("precision.promote.subspace"), 1.0);
  EXPECT_GT(t.counter("precision.filter.cols.fp64"), 0.0);
  EXPECT_EQ(t.counter("precision.promote.column"), 0.0);
}

}  // namespace
}  // namespace chase::core
