#include "perf/tracker.hpp"

#include <gtest/gtest.h>

#include "comm/communicator.hpp"
#include "perf/cost_model.hpp"
#include "perf/machine.hpp"

namespace chase::perf {
namespace {

TEST(Tracker, RegionsAccumulateFlops) {
  Tracker t;
  t.set_region(Region::kFilter);
  t.add_flops(FlopClass::kGemm, 1e9);
  t.set_region(Region::kQr);
  t.add_flops(FlopClass::kPanel, 2e9);
  t.add_flops(FlopClass::kSmall, 5e6);
  t.flush();
  EXPECT_DOUBLE_EQ(
      t.costs(Region::kFilter).flops[std::size_t(int(FlopClass::kGemm))], 1e9);
  EXPECT_DOUBLE_EQ(
      t.costs(Region::kQr).flops[std::size_t(int(FlopClass::kPanel))], 2e9);
  EXPECT_DOUBLE_EQ(
      t.costs(Region::kQr).flops[std::size_t(int(FlopClass::kSmall))], 5e6);
}

TEST(Tracker, RegionScopeRestores) {
  Tracker t;
  set_thread_tracker(&t);
  t.set_region(Region::kFilter);
  {
    RegionScope scope(Region::kQr);
    EXPECT_EQ(t.region(), Region::kQr);
  }
  EXPECT_EQ(t.region(), Region::kFilter);
  set_thread_tracker(nullptr);
}

TEST(Tracker, CollectivesRecordedWithRegion) {
  Tracker t;
  t.set_region(Region::kRayleighRitz);
  t.begin_collective();
  t.end_collective(CollKind::kAllReduce, 4096, 8);
  t.flush();
  ASSERT_EQ(t.collectives().size(), 1u);
  EXPECT_EQ(t.collectives()[0].region, Region::kRayleighRitz);
  EXPECT_EQ(t.collectives()[0].bytes, 4096u);
  EXPECT_EQ(t.collectives()[0].nranks, 8);
  EXPECT_EQ(t.costs(Region::kRayleighRitz).coll_count, 1u);
}

TEST(Tracker, CommunicatorRecordsEventsPerBackend) {
  // STD backend must bracket each collective with two staging copies;
  // NCCL must record none.
  for (Backend b : {Backend::kStdGpu, Backend::kNcclGpu}) {
    const int p = 4;
    std::vector<Tracker> trackers(p);
    comm::Team team(p, b);
    team.run(
        [&](comm::Communicator& comm) {
          thread_tracker()->set_region(Region::kQr);
          double x = 1.0;
          comm.all_reduce(&x, 1);
        },
        &trackers);
    const auto& t = trackers[0];
    EXPECT_EQ(t.collectives().size(), 1u);
    const std::size_t expect_copies = b == Backend::kStdGpu ? 2u : 0u;
    EXPECT_EQ(t.memcpys().size(), expect_copies) << backend_name(b);
    if (b == Backend::kStdGpu) {
      EXPECT_FALSE(t.memcpys()[0].to_device);
      EXPECT_TRUE(t.memcpys()[1].to_device);
    }
  }
}

// A tracker is constructed on the launching thread but installed on a rank
// thread; the thread CPU clocks of the two are unrelated, so every bucket
// must be measured from the install, never from the construction.
TEST(Tracker, RankThreadBucketsNeverNegative) {
  const double t0 = thread_cpu_seconds();
  while (thread_cpu_seconds() - t0 < 0.05) {
  }
  const int p = 4;
  std::vector<Tracker> trackers(p);
  comm::Team team(p);
  team.run(
      [&](comm::Communicator& comm) {
        double x = 1.0;
        comm.all_reduce(&x, 1);
        thread_tracker()->set_region(Region::kFilter);
        comm.all_reduce(&x, 1);
      },
      &trackers);
  for (int r = 0; r < p; ++r) {
    for (int g = 0; g < kRegionCount; ++g) {
      const RegionCosts& c = trackers[std::size_t(r)].costs(Region(g));
      EXPECT_GE(c.compute_seconds, 0.0)
          << "rank " << r << " " << region_name(Region(g));
      EXPECT_GE(c.comm_cpu_seconds, 0.0)
          << "rank " << r << " " << region_name(Region(g));
    }
  }
}

TEST(Machine, MpiAllreducePowerOfTwoAdvantage) {
  MachineModel m;
  const std::size_t bytes = 1 << 20;
  // The paper observes dips at power-of-two rank counts (Fig. 3a).
  EXPECT_LT(m.mpi_allreduce_seconds(bytes, 16),
            m.mpi_allreduce_seconds(bytes, 15));
  EXPECT_LT(m.mpi_allreduce_seconds(bytes, 16),
            m.mpi_allreduce_seconds(bytes, 17));
}

TEST(Machine, NcclBeatsStagedMpiForLargePayloads) {
  MachineModel m;
  const std::size_t bytes = std::size_t(64) << 20;
  const int p = 16;
  const double mpi = m.mpi_allreduce_seconds(bytes, p) +
                     2 * m.memcpy_seconds(bytes);  // staging both ways
  const double nccl = m.nccl_allreduce_seconds(bytes, p);
  EXPECT_LT(nccl, mpi);
}

TEST(Machine, CollectiveCostsGrowWithRanksAndBytes) {
  MachineModel m;
  EXPECT_LT(m.mpi_allreduce_seconds(1024, 4), m.mpi_allreduce_seconds(1024, 64));
  EXPECT_LT(m.nccl_allreduce_seconds(1 << 10, 8),
            m.nccl_allreduce_seconds(1 << 24, 8));
  EXPECT_EQ(m.mpi_allreduce_seconds(1024, 1), 0.0);
}

TEST(CostModel, PriceTrackerSplitsBuckets) {
  Tracker t;
  t.set_region(Region::kFilter);
  t.add_flops(FlopClass::kGemm, 17.0e12);  // exactly 1 second of GEMM
  t.begin_collective();
  t.end_collective(CollKind::kAllReduce, 1 << 20, 4);
  t.record_memcpy(1 << 20, false);
  t.flush();

  MachineModel m;
  auto costs = price_tracker(m, Backend::kStdGpu, t);
  const auto& filter = costs[std::size_t(int(Region::kFilter))];
  EXPECT_NEAR(filter.compute, 1.0, 1e-9);
  EXPECT_GT(filter.comm, 0.0);
  EXPECT_GT(filter.movement, 0.0);
  EXPECT_DOUBLE_EQ(filter.total(),
                   filter.compute + filter.comm + filter.movement);
}

TEST(CostModel, SumCosts) {
  KernelCosts k{};
  k[std::size_t(int(Region::kFilter))] = {1.0, 2.0, 3.0};
  k[std::size_t(int(Region::kQr))] = {0.5, 0.0, 0.0};
  auto total = sum_costs(k);
  EXPECT_DOUBLE_EQ(total.compute, 1.5);
  EXPECT_DOUBLE_EQ(total.comm, 2.0);
  EXPECT_DOUBLE_EQ(total.movement, 3.0);
}

}  // namespace
}  // namespace chase::perf
