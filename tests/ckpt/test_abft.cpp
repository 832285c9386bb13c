// ABFT corruption sentinels: the Fletcher-checksummed allreduce must detect
// and replay injected transport corruption (allreduce.corrupt, p2p.corrupt),
// poison the team when corruption persists past the replay budget, and the
// checksum-column lane must localize HEMM payload damage — all without
// perturbing a clean solve's numerics.
#include "coll/abft.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <complex>
#include <limits>
#include <vector>

#include "coll/engine.hpp"
#include "comm/communicator.hpp"
#include "common/faultinject.hpp"
#include "core/sequential.hpp"
#include "gen/spectrum.hpp"
#include "tests/testing.hpp"

namespace chase::coll {
namespace {

TEST(AbftUnit, ColumnMismatchFlagsCorruptedColumnOnly) {
  la::Matrix<double> m(6, 3);
  for (Index j = 0; j < 3; ++j) {
    for (Index i = 0; i < 6; ++i) m(i, j) = double(i + 7 * j);
  }
  std::vector<double> chk;
  column_checksums(m.cview(), chk);
  EXPECT_EQ(column_mismatch(m.cview(), chk), -1);

  m(2, 1) += 0.5;  // breaks sum-then-reduce == reduce-then-sum for column 1
  EXPECT_EQ(column_mismatch(m.cview(), chk), 1);
  m(2, 1) -= 0.5;

  m(4, 2) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(column_mismatch(m.cview(), chk), 2);  // NaN counts as mismatch
}

TEST(AbftUnit, BufferFiniteSeesComplexAndIntegral) {
  std::vector<double> x{1.0, 2.0, 3.0};
  EXPECT_TRUE(buffer_finite(x.data(), 3));
  x[1] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(buffer_finite(x.data(), 3));

  std::vector<std::complex<double>> z{{1.0, 2.0}};
  EXPECT_TRUE(buffer_finite(z.data(), 1));
  z[0] = {0.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_FALSE(buffer_finite(z.data(), 1));

  std::vector<int> k{1, 2};
  EXPECT_TRUE(buffer_finite(k.data(), 2));  // integral: always finite
}

TEST(Abft, CheckedAllReduceRepairsInjectedCorruption) {
  ScopedPolicy abft(abft_policy, true);
  // Every rank's first allreduce result gets one NaN element; the suspicious
  // bit trips even though the corruption is rank-uniform, and the replay
  // (budget now exhausted) returns the true sums everywhere.
  fault::Scoped corrupt("allreduce.corrupt", /*rank=*/-1, /*times=*/1);
  std::atomic<int> ok{0};
  comm::Team team(4);
  team.run([&](comm::Communicator& world) {
    std::vector<double> x(8, double(world.rank() + 1));
    checked_all_reduce(world, x.data(), 8);
    bool good = true;
    for (double v : x) good = good && v == 10.0;  // 1+2+3+4, exact
    if (good) ++ok;
  });
  EXPECT_EQ(ok.load(), 4);
  EXPECT_EQ(fault::fire_count("allreduce.corrupt"), 4);  // once per rank
}

TEST(Abft, PersistentCorruptionPoisonsTeam) {
  ScopedPolicy abft(abft_policy, true);
  fault::Scoped corrupt("allreduce.corrupt", /*rank=*/-1, /*times=*/-1);
  comm::Team team(4);
  try {
    team.run([&](comm::Communicator& world) {
      std::vector<double> x(8, double(world.rank() + 1));
      checked_all_reduce(world, x.data(), 8);
    });
    FAIL() << "expected TeamAborted";
  } catch (const comm::TeamAborted& aborted) {
    EXPECT_EQ(aborted.error().site, "abft.allreduce");
  }
}

TEST(Abft, P2pCorruptionDetectedByChecksummedBlockReduce) {
  ScopedPolicy abft(abft_policy, true);
  // route through the p2p channels
  ScopedPolicy ring(algorithm_policy, Algorithm::kRing);
  // Rank 0's first chunk send has its leading bytes flipped to 0xFF — a NaN
  // pattern for double payloads — modelling transport corruption under the
  // reduction. The block replays and comes out exact.
  fault::Scoped corrupt("p2p.corrupt", /*rank=*/0, /*times=*/1);
  std::atomic<int> ok{0};
  comm::Team team(2);
  team.run([&](comm::Communicator& world) {
    la::Matrix<double> block(16, 3);
    for (Index j = 0; j < 3; ++j) {
      for (Index i = 0; i < 16; ++i) {
        block(i, j) = double((world.rank() + 1) * (i + 1 + 16 * j));
      }
    }
    checked_block_reduce(world, block.view());
    bool good = true;
    for (Index j = 0; j < 3; ++j) {
      for (Index i = 0; i < 16; ++i) {
        good = good && block(i, j) == double(3 * (i + 1 + 16 * j));
      }
    }
    if (good) ++ok;
  });
  EXPECT_EQ(ok.load(), 2);
  EXPECT_EQ(fault::fire_count("p2p.corrupt"), 1);
}

TEST(Abft, DisabledPathIsPlainAllReduce) {
  // ABFT off: checked_all_reduce must not save/verify/replay — a corrupted
  // result passes through untouched (which is exactly the failure mode the
  // sentinels exist to close).
  ScopedPolicy abft(abft_policy, false);
  fault::Scoped corrupt("allreduce.corrupt", /*rank=*/-1, /*times=*/1);
  std::atomic<int> nan_seen{0};
  comm::Team team(2);
  team.run([&](comm::Communicator& world) {
    std::vector<double> x(4, double(world.rank() + 1));
    checked_all_reduce(world, x.data(), 4);
    for (double v : x) {
      if (std::isnan(v)) ++nan_seen;
    }
  });
  EXPECT_GT(nan_seen.load(), 0);
}

TEST(Abft, SolveWithAbftRidesOutInjectedCorruption) {
  using T = double;
  const Index n = 64;
  auto h = gen::hermitian_with_spectrum<T>(gen::dft_like_spectrum<double>(n, 71),
                                           71);
  core::ChaseConfig cfg;
  cfg.nev = 8;
  cfg.nex = 6;
  cfg.tol = 1e-9;

  auto clean = core::solve_sequential<T>(h.cview(), cfg);
  ASSERT_TRUE(clean.converged);

  ScopedPolicy abft(abft_policy, true);
  // Corrupt every rank's first allreduce of outer iteration 2 — with ABFT on
  // that is the filter's checked block reduction, so the sentinel repairs it
  // in place and the solve finishes as if nothing happened.
  fault::Scoped corrupt("allreduce.corrupt", /*rank=*/-1, /*times=*/1,
                        /*skip=*/0, /*iter=*/2);
  std::vector<double> eigs;
  comm::Team team(4);
  team.run([&](comm::Communicator& world) {
    comm::Grid2d grid(world, 2, 2);
    auto map = dist::IndexMap::block(n, 2);
    dist::DistHermitianMatrix<T> hd(grid, map, map);
    hd.fill_from_global(h.cview());
    auto r = core::solve(hd, cfg);
    ASSERT_TRUE(r.converged);
    if (world.rank() == 0) eigs = r.eigenvalues;
  });
  EXPECT_EQ(fault::fire_count("allreduce.corrupt"), 4);
  ASSERT_EQ(eigs.size(), clean.eigenvalues.size());
  for (std::size_t j = 0; j < eigs.size(); ++j) {
    EXPECT_NEAR(eigs[j], clean.eigenvalues[j], 1e-7) << "pair " << j;
  }
}

}  // namespace
}  // namespace chase::coll
