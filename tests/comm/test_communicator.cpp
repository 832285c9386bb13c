#include "comm/communicator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <complex>
#include <numeric>
#include <vector>

namespace chase::comm {
namespace {

TEST(Team, RunsEveryRankExactlyOnce) {
  const int p = 5;
  std::vector<std::atomic<int>> hits(p);
  Team team(p);
  team.run([&](Communicator& comm) {
    hits[std::size_t(comm.rank())].fetch_add(1);
    EXPECT_EQ(comm.size(), p);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Team, SingleRankWorld) {
  Team team(1);
  team.run([](Communicator& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    double x = 3.0;
    comm.all_reduce(&x, 1);
    EXPECT_EQ(x, 3.0);
    comm.barrier();
  });
}

TEST(Team, RethrowsRankException) {
  Team team(3);
  EXPECT_THROW(
      team.run([](Communicator&) { throw Error("symmetric failure"); }),
      Error);
}

TEST(Collectives, AllReduceSum) {
  for (int p : {2, 3, 4, 7, 8}) {
    Team team(p);
    team.run([&](Communicator& comm) {
      std::vector<double> x = {double(comm.rank()), 1.0,
                               double(comm.rank() * comm.rank())};
      comm.all_reduce(x.data(), 3);
      double s0 = 0, s2 = 0;
      for (int r = 0; r < p; ++r) {
        s0 += r;
        s2 += double(r) * r;
      }
      EXPECT_DOUBLE_EQ(x[0], s0);
      EXPECT_DOUBLE_EQ(x[1], double(p));
      EXPECT_DOUBLE_EQ(x[2], s2);
    });
  }
}

TEST(Collectives, AllReduceComplexSum) {
  const int p = 4;
  Team team(p);
  team.run([&](Communicator& comm) {
    std::complex<double> z(double(comm.rank()), -double(comm.rank()));
    comm.all_reduce(&z, 1);
    EXPECT_DOUBLE_EQ(z.real(), 6.0);
    EXPECT_DOUBLE_EQ(z.imag(), -6.0);
  });
}

TEST(Collectives, AllReduceMaxMin) {
  const int p = 6;
  Team team(p);
  team.run([&](Communicator& comm) {
    double mx = double(comm.rank());
    double mn = double(comm.rank());
    comm.all_reduce(&mx, 1, Reduction::kMax);
    comm.all_reduce(&mn, 1, Reduction::kMin);
    EXPECT_DOUBLE_EQ(mx, double(p - 1));
    EXPECT_DOUBLE_EQ(mn, 0.0);
  });
}

TEST(Collectives, AllReduceDeterministicAcrossRanks) {
  // Floating-point reduction must produce bit-identical results on all ranks
  // (otherwise SPMD control flow can diverge).
  const int p = 7;
  std::vector<double> results(static_cast<std::size_t>(p));
  Team team(p);
  team.run([&](Communicator& comm) {
    double x = 0.1 * double(comm.rank() + 1);
    comm.all_reduce(&x, 1);
    results[std::size_t(comm.rank())] = x;
  });
  for (int r = 1; r < p; ++r) {
    EXPECT_EQ(results[std::size_t(r)], results[0]);  // bitwise
  }
}

TEST(Collectives, Broadcast) {
  const int p = 5;
  Team team(p);
  team.run([&](Communicator& comm) {
    for (int root = 0; root < p; ++root) {
      std::vector<int> x(4, comm.rank() == root ? root + 100 : -1);
      comm.broadcast(x.data(), 4, root);
      for (int v : x) EXPECT_EQ(v, root + 100);
    }
  });
}

TEST(Collectives, AllGather) {
  const int p = 4;
  Team team(p);
  team.run([&](Communicator& comm) {
    std::vector<double> mine = {double(comm.rank()), double(10 * comm.rank())};
    std::vector<double> all(std::size_t(2 * p), -1.0);
    comm.all_gather(mine.data(), 2, all.data());
    for (int r = 0; r < p; ++r) {
      EXPECT_DOUBLE_EQ(all[std::size_t(2 * r)], double(r));
      EXPECT_DOUBLE_EQ(all[std::size_t(2 * r + 1)], double(10 * r));
    }
  });
}

TEST(Collectives, AllGatherV) {
  // Rank r contributes r+1 values; verify placement by explicit displs.
  const int p = 4;
  Team team(p);
  team.run([&](Communicator& comm) {
    const int r = comm.rank();
    std::vector<Index> counts = {1, 2, 3, 4};
    std::vector<Index> displs = {0, 1, 3, 6};
    std::vector<double> mine(std::size_t(r + 1), double(r));
    std::vector<double> all(10, -1.0);
    comm.all_gather_v(mine.data(), r + 1, all.data(), counts, displs);
    Index pos = 0;
    for (int s = 0; s < p; ++s) {
      for (Index i = 0; i < counts[std::size_t(s)]; ++i) {
        EXPECT_DOUBLE_EQ(all[std::size_t(pos++)], double(s));
      }
    }
  });
}

TEST(Collectives, BackToBackCollectivesDoNotInterfere) {
  const int p = 4;
  Team team(p);
  team.run([&](Communicator& comm) {
    for (int it = 0; it < 50; ++it) {
      double x = 1.0;
      comm.all_reduce(&x, 1);
      EXPECT_DOUBLE_EQ(x, double(p));
      double y = comm.rank() == 0 ? double(it) : -1.0;
      comm.broadcast(&y, 1, 0);
      EXPECT_DOUBLE_EQ(y, double(it));
    }
  });
}

TEST(ChunkChannel, SizeMismatchPoisonsTeam) {
  Team team(2);
  try {
    team.run([](Communicator& comm) {
      unsigned char buf[16] = {};
      if (comm.rank() == 0) {
        comm.send_chunk(1, /*tag=*/7, buf, 8);
      } else {
        comm.recv_chunk(0, /*tag=*/7, buf, 16);
      }
    });
    FAIL() << "an 8-byte chunk received as 16 bytes must poison the team";
  } catch (const TeamAborted& e) {
    EXPECT_EQ(e.error().site, "p2p.mismatch") << e.what();
    EXPECT_EQ(e.error().rank, 1);
  }
}

TEST(ChunkChannel, ReceiveMatchesTagOutOfOrder) {
  Team team(2);
  team.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      const double two = 2.0;
      const double one = 1.0;
      comm.send_chunk(1, /*tag=*/2, &two, sizeof two);
      comm.send_chunk(1, /*tag=*/1, &one, sizeof one);
    } else {
      double first = 0.0;
      double second = 0.0;
      comm.recv_chunk(0, /*tag=*/1, &first, sizeof first);
      comm.recv_chunk(0, /*tag=*/2, &second, sizeof second);
      EXPECT_EQ(first, 1.0);
      EXPECT_EQ(second, 2.0);
    }
  });
}

TEST(Split, PartitionsByColor) {
  const int p = 6;
  Team team(p);
  team.run([&](Communicator& comm) {
    // Even ranks one group, odd ranks the other; key preserves rank order.
    Communicator sub = comm.split(comm.rank() % 2, comm.rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), comm.rank() / 2);
    // The sub-communicator must be functional.
    double x = 1.0;
    sub.all_reduce(&x, 1);
    EXPECT_DOUBLE_EQ(x, 3.0);
  });
}

TEST(Split, KeyControlsOrdering) {
  const int p = 4;
  Team team(p);
  team.run([&](Communicator& comm) {
    // Reverse ordering via descending keys.
    Communicator sub = comm.split(0, p - comm.rank());
    EXPECT_EQ(sub.size(), p);
    EXPECT_EQ(sub.rank(), p - 1 - comm.rank());
  });
}

TEST(Split, RepeatedSplitsAreIndependent) {
  const int p = 4;
  Team team(p);
  team.run([&](Communicator& comm) {
    for (int it = 0; it < 10; ++it) {
      Communicator sub = comm.split(comm.rank() / 2, comm.rank());
      double x = 1.0;
      sub.all_reduce(&x, 1);
      EXPECT_DOUBLE_EQ(x, 2.0);
    }
  });
}

TEST(Grid2d, SquareGridCoordinates) {
  const int p = 2, q = 3;
  Team team(p * q);
  team.run([&](Communicator& comm) {
    Grid2d grid(comm, p, q);
    EXPECT_EQ(grid.my_row(), comm.rank() / q);
    EXPECT_EQ(grid.my_col(), comm.rank() % q);
    EXPECT_EQ(grid.col_comm().size(), p);
    EXPECT_EQ(grid.row_comm().size(), q);
    EXPECT_EQ(grid.col_comm().rank(), grid.my_row());
    EXPECT_EQ(grid.row_comm().rank(), grid.my_col());
  });
}

TEST(Grid2d, RowAndColumnCommunicatorsReduceIndependently) {
  const int p = 2, q = 2;
  Team team(p * q);
  team.run([&](Communicator& comm) {
    Grid2d grid(comm, p, q);
    // Sum of grid-column indices along a row communicator: 0 + 1 = 1.
    double x = double(grid.my_col());
    grid.row_comm().all_reduce(&x, 1);
    EXPECT_DOUBLE_EQ(x, 1.0);
    // Sum of grid-row indices along a column communicator: 0 + 1 = 1.
    double y = double(grid.my_row());
    grid.col_comm().all_reduce(&y, 1);
    EXPECT_DOUBLE_EQ(y, 1.0);
  });
}

TEST(Grid2d, NearlySquareFactorization) {
  EXPECT_EQ(Grid2d::nearly_square(1), (std::pair<int, int>{1, 1}));
  EXPECT_EQ(Grid2d::nearly_square(4), (std::pair<int, int>{2, 2}));
  EXPECT_EQ(Grid2d::nearly_square(6), (std::pair<int, int>{2, 3}));
  EXPECT_EQ(Grid2d::nearly_square(7), (std::pair<int, int>{1, 7}));
  EXPECT_EQ(Grid2d::nearly_square(12), (std::pair<int, int>{3, 4}));
  EXPECT_EQ(Grid2d::nearly_square(900), (std::pair<int, int>{30, 30}));
}

TEST(Grid2d, ShapeMismatchThrows) {
  Team team(4);
  EXPECT_THROW(team.run([](Communicator& comm) { Grid2d grid(comm, 3, 2); }),
               Error);
}

}  // namespace
}  // namespace chase::comm
