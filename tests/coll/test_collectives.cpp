// Property suite for the src/coll algorithmic collective engine.
//
// The contract under test: every algorithm (ring / tree / auto policies over
// the chunk channels) produces *bitwise identical* results to the naive
// publish-and-sync reference, across team sizes, payload sizes (including 0
// and non-chunk-aligned counts), real and complex scalars, and chunk sizes
// small enough to force multi-chunk pipelines. Plus: the all_gather_v edge
// cases, the distributed-HEMM integration, the p2p fault-injection sites,
// and a tsan-targeted concurrent-teams stress test.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "coll/engine.hpp"
#include "comm/communicator.hpp"
#include "comm/topology.hpp"
#include "common/rng.hpp"
#include "dist/dist_matrix.hpp"
#include "perf/tracker.hpp"
#include "perf/tuned.hpp"

namespace chase {
namespace {

using comm::Communicator;
using comm::Reduction;
using comm::Team;
using la::Index;

constexpr int kTeamSizes[] = {1, 2, 3, 4, 5, 8};
constexpr Index kCounts[] = {0, 1, 7, 64, 1023};
constexpr coll::Algorithm kPolicies[] = {
    coll::Algorithm::kNaive, coll::Algorithm::kRing, coll::Algorithm::kTree,
    coll::Algorithm::kAuto};

template <typename T>
std::vector<T> rank_payload(int rank, Index count, std::uint64_t salt) {
  Rng rng(salt, std::uint64_t(rank) + 1);
  std::vector<T> out((std::size_t(count)));
  for (auto& v : out) v = rng.gaussian<T>();
  return out;
}

template <typename T>
bool bitwise_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Sequential rank-ordered reference — the exact arithmetic the naive
/// all_reduce performs, computed without any communicator.
template <typename T>
std::vector<T> reference_allreduce(int p, Index count, Reduction op,
                                   std::uint64_t salt) {
  std::vector<T> acc = rank_payload<T>(0, count, salt);
  for (int r = 1; r < p; ++r) {
    const std::vector<T> x = rank_payload<T>(r, count, salt);
    for (Index i = 0; i < count; ++i) {
      comm::detail::reduce_assign(op, acc[std::size_t(i)], x[std::size_t(i)]);
    }
  }
  return acc;
}

template <typename T>
void sweep_allreduce() {
  for (const coll::Algorithm algo : kPolicies) {
    ScopedPolicy policy(coll::algorithm_policy, algo);
    // 48 bytes forces multi-chunk pipelines at the larger counts; the
    // default exercises the single-chunk fast path.
    for (const std::size_t chunk : {std::size_t(48), std::size_t(64) << 10}) {
      ScopedPolicy chunk_scope(coll::chunk_bytes_policy, chunk);
      for (const int p : kTeamSizes) {
        for (const Index count : kCounts) {
          const std::uint64_t salt =
              std::uint64_t(p) * 1000003u + std::uint64_t(count);
          const std::vector<T> want =
              reference_allreduce<T>(p, count, Reduction::kSum, salt);
          std::vector<std::vector<T>> got((std::size_t(p)));
          Team team(p);
          team.run([&](Communicator& comm) {
            std::vector<T> x = rank_payload<T>(comm.rank(), count, salt);
            comm.all_reduce(x.data(), count);
            got[std::size_t(comm.rank())] = std::move(x);
          });
          for (int r = 0; r < p; ++r) {
            EXPECT_TRUE(bitwise_equal(got[std::size_t(r)], want))
                << "allreduce algo=" << coll::algorithm_name(algo)
                << " chunk=" << chunk << " p=" << p << " count=" << count
                << " rank=" << r;
          }
        }
      }
    }
  }
}

TEST(CollSweep, AllReduceBitwiseReal) { sweep_allreduce<double>(); }
TEST(CollSweep, AllReduceBitwiseComplex) {
  sweep_allreduce<std::complex<double>>();
}

TEST(CollSweep, AllReduceMaxMin) {
  for (const coll::Algorithm algo : kPolicies) {
    ScopedPolicy policy(coll::algorithm_policy, algo);
    ScopedPolicy chunk_scope(coll::chunk_bytes_policy, 48);
    for (const int p : {3, 8}) {
      for (const Reduction op : {Reduction::kMax, Reduction::kMin}) {
        const std::uint64_t salt = 77;
        const Index count = 129;
        const std::vector<double> want =
            reference_allreduce<double>(p, count, op, salt);
        Team team(p);
        team.run([&](Communicator& comm) {
          std::vector<double> x =
              rank_payload<double>(comm.rank(), count, salt);
          comm.all_reduce(x.data(), count, op);
          EXPECT_TRUE(bitwise_equal(x, want))
              << coll::algorithm_name(algo) << " p=" << p;
        });
      }
    }
  }
}

template <typename T>
void sweep_allgather() {
  for (const coll::Algorithm algo : kPolicies) {
    ScopedPolicy policy(coll::algorithm_policy, algo);
    for (const std::size_t chunk : {std::size_t(48), std::size_t(64) << 10}) {
      ScopedPolicy chunk_scope(coll::chunk_bytes_policy, chunk);
      for (const int p : kTeamSizes) {
        for (const Index count : kCounts) {
          const std::uint64_t salt =
              std::uint64_t(p) * 911u + std::uint64_t(count);
          std::vector<T> want;
          for (int r = 0; r < p; ++r) {
            const auto x = rank_payload<T>(r, count, salt);
            want.insert(want.end(), x.begin(), x.end());
          }
          Team team(p);
          team.run([&](Communicator& comm) {
            const std::vector<T> x =
                rank_payload<T>(comm.rank(), count, salt);
            std::vector<T> recv(std::size_t(p) * std::size_t(count), T(42));
            comm.all_gather(x.data(), count, recv.data());
            EXPECT_TRUE(bitwise_equal(recv, want))
                << "allgather algo=" << coll::algorithm_name(algo)
                << " chunk=" << chunk << " p=" << p << " count=" << count
                << " rank=" << comm.rank();
          });
        }
      }
    }
  }
}

TEST(CollSweep, AllGatherBitwiseReal) { sweep_allgather<double>(); }
TEST(CollSweep, AllGatherBitwiseComplex) {
  sweep_allgather<std::complex<double>>();
}

template <typename T>
void sweep_broadcast() {
  for (const coll::Algorithm algo : kPolicies) {
    ScopedPolicy policy(coll::algorithm_policy, algo);
    for (const std::size_t chunk : {std::size_t(48), std::size_t(64) << 10}) {
      ScopedPolicy chunk_scope(coll::chunk_bytes_policy, chunk);
      for (const int p : kTeamSizes) {
        for (const Index count : kCounts) {
          for (const int root : {0, p - 1}) {
            const std::uint64_t salt =
                std::uint64_t(p) * 131u + std::uint64_t(count);
            const std::vector<T> want = rank_payload<T>(root, count, salt);
            Team team(p);
            team.run([&](Communicator& comm) {
              std::vector<T> x =
                  rank_payload<T>(comm.rank(), count, salt);
              comm.broadcast(x.data(), count, root);
              EXPECT_TRUE(bitwise_equal(x, want))
                  << "broadcast algo=" << coll::algorithm_name(algo)
                  << " chunk=" << chunk << " p=" << p << " count=" << count
                  << " root=" << root << " rank=" << comm.rank();
            });
          }
        }
      }
    }
  }
}

TEST(CollSweep, BroadcastBitwiseReal) { sweep_broadcast<double>(); }
TEST(CollSweep, BroadcastBitwiseComplex) {
  sweep_broadcast<std::complex<double>>();
}

TEST(CollSweep, AllGatherVVariedCountsAndHoles) {
  for (const coll::Algorithm algo : kPolicies) {
    ScopedPolicy policy(coll::algorithm_policy, algo);
    ScopedPolicy chunk_scope(coll::chunk_bytes_policy, 48);
    for (const int p : {1, 3, 5, 8}) {
      // Mixed zero/nonzero counts plus a one-element hole between ranges:
      // rank r contributes r+1 elements if r is even, nothing otherwise.
      std::vector<Index> counts((std::size_t(p)));
      std::vector<Index> displs((std::size_t(p)));
      Index off = 0;
      for (int r = 0; r < p; ++r) {
        counts[std::size_t(r)] = r % 2 == 0 ? Index(r) + 1 : 0;
        displs[std::size_t(r)] = off;
        off += counts[std::size_t(r)] + 1;  // hole stays untouched
      }
      const Index total = off;
      std::vector<double> want(std::size_t(total), -7.0);
      for (int r = 0; r < p; ++r) {
        const auto x = rank_payload<double>(r, counts[std::size_t(r)], 5);
        std::copy(x.begin(), x.end(),
                  want.begin() + std::ptrdiff_t(displs[std::size_t(r)]));
      }
      Team team(p);
      team.run([&](Communicator& comm) {
        const Index mine = counts[std::size_t(comm.rank())];
        const auto x = rank_payload<double>(comm.rank(), mine, 5);
        std::vector<double> recv(std::size_t(total), -7.0);
        // Zero-count ranks may legally pass a null send buffer.
        comm.all_gather_v(mine > 0 ? x.data() : nullptr, mine, recv.data(),
                          counts, displs);
        EXPECT_TRUE(bitwise_equal(recv, want))
            << "allgatherv algo=" << coll::algorithm_name(algo) << " p=" << p
            << " rank=" << comm.rank();
      });
    }
  }
}

TEST(CollEdge, AllGatherVOverlappingDisplsRejected) {
  for (const coll::Algorithm algo :
       {coll::Algorithm::kNaive, coll::Algorithm::kRing}) {
    ScopedPolicy policy(coll::algorithm_policy, algo);
    Team team(3);
    try {
      team.run([&](Communicator& comm) {
        const std::vector<Index> counts = {2, 2, 2};
        const std::vector<Index> displs = {0, 1, 4};  // rank 1 overlaps rank 0
        std::vector<double> x = {1.0, 2.0};
        std::vector<double> recv(6, 0.0);
        comm.all_gather_v(x.data(), 2, recv.data(), counts, displs);
      });
      FAIL() << "overlapping displs must poison the team";
    } catch (const comm::TeamAborted& e) {
      EXPECT_EQ(e.error().site, "allgatherv.overlap");
    }
  }
}

// One apply is one local multiply and one allreduce under every policy (the
// v1.4 scheme): the output is bitwise identical across policies and each
// rank records exactly one allreduce event for its apply.
TEST(CollIntegration, DistApplyOneReductionPerApply) {
  const Index n = 70;
  const Index ncols = 9;
  auto element = [](Index i, Index j) {
    return 1.0 / double(1 + std::abs(int(i - j)));
  };
  std::vector<std::vector<std::vector<double>>> outs;  // [policy][rank]
  for (const coll::Algorithm algo : kPolicies) {
    ScopedPolicy policy(coll::algorithm_policy, algo);
    const int p = 4;
    std::vector<perf::Tracker> trackers((std::size_t(p)));
    std::vector<std::vector<double>> got((std::size_t(p)));
    Team team(p);
    team.run(
        [&](Communicator& comm) {
          comm::Grid2d grid(comm, 2, 2);
          dist::IndexMap rmap = dist::IndexMap::block(n, grid.nprow());
          dist::IndexMap cmap = dist::IndexMap::block(n, grid.npcol());
          dist::DistHermitianMatrix<double> h(grid, rmap, cmap);
          h.fill(element);
          const Index xr = rmap.local_size(grid.my_row());
          const Index yr = cmap.local_size(grid.my_col());
          la::Matrix<double> x(xr, ncols), y(yr, ncols);
          for (Index j = 0; j < ncols; ++j) {
            for (Index i = 0; i < xr; ++i) {
              x(i, j) = element(i + 13 * j, j + 1);
            }
          }
          h.apply_c2b(1.0, x.view().as_const(), 0.0, y.view());
          std::vector<double> flat(std::size_t(yr) * std::size_t(ncols));
          std::copy_n(y.data(), flat.size(), flat.data());
          got[std::size_t(comm.rank())] = std::move(flat);
        },
        &trackers);
    for (std::size_t r = 0; r < trackers.size(); ++r) {
      const auto& events = trackers[r].collectives();
      const auto allreduces = std::count_if(
          events.begin(), events.end(), [](const perf::CollectiveEvent& e) {
            return e.kind == perf::CollKind::kAllReduce;
          });
      EXPECT_EQ(allreduces, 1)
          << "policy " << coll::algorithm_name(algo) << " rank " << r;
    }
    outs.push_back(std::move(got));
  }
  for (std::size_t a = 1; a < outs.size(); ++a) {
    for (std::size_t r = 0; r < outs[a].size(); ++r) {
      EXPECT_TRUE(bitwise_equal(outs[a][r], outs[0][r]))
          << "policy " << coll::algorithm_name(kPolicies[a]) << " rank " << r;
    }
  }
}

/// Tuned tables that map every allreduce size class to `algo`.
perf::TunedTables allreduce_tables(coll::Algorithm algo) {
  perf::TunedTables t;
  for (int& a : t.coll_algo[int(perf::CollKind::kAllReduce)]) a = int(algo);
  return t;
}

// A matrix applied again after the installed tables changed must run the
// newly selected routine, not the one its previous apply used: every
// reduction selects its routine per call. chunk_bytes stays unset in both
// tables, so nothing but the table entry changes between the two applies.
TEST(CollIntegration, DistApplyFollowsTunedTableSwitch) {
  struct ClearTables {
    ~ClearTables() { perf::clear_tuned_tables(); }
  } clear_tables;
  const Index n = 70;
  const Index ncols = 9;
  auto element = [](Index i, Index j) {
    return 1.0 / double(1 + std::abs(int(i - j)));
  };
  const int p = 4;
  std::vector<perf::Tracker> trackers((std::size_t(p)));
  Team team(p);
  team.run(
      [&](Communicator& comm) {
        comm::Grid2d grid(comm, 2, 2);
        dist::IndexMap rmap = dist::IndexMap::block(n, grid.nprow());
        dist::IndexMap cmap = dist::IndexMap::block(n, grid.npcol());
        dist::DistHermitianMatrix<double> h(grid, rmap, cmap);
        h.fill(element);
        const Index xr = rmap.local_size(grid.my_row());
        const Index yr = cmap.local_size(grid.my_col());
        la::Matrix<double> x(xr, ncols), y_tree(yr, ncols), y_ring(yr, ncols);
        for (Index j = 0; j < ncols; ++j) {
          for (Index i = 0; i < xr; ++i) x(i, j) = element(i + 13 * j, j + 1);
        }
        const auto install = [&](coll::Algorithm algo) {
          comm.barrier();
          if (comm.rank() == 0) perf::set_tuned_tables(allreduce_tables(algo));
          comm.barrier();
        };
        const auto calls = [](const char* routine) {
          return perf::thread_tracker()->counter(std::string("coll.") +
                                                 routine + ".calls");
        };

        install(coll::Algorithm::kTree);
        h.apply_c2b(1.0, x.view().as_const(), 0.0, y_tree.view());
        EXPECT_EQ(calls("rabenseifner_allreduce"), 1.0)
            << "rank " << comm.rank();

        install(coll::Algorithm::kRing);
        const double ring_before = calls("ring_allreduce");
        const double rab_before = calls("rabenseifner_allreduce");
        h.apply_c2b(1.0, x.view().as_const(), 0.0, y_ring.view());
        EXPECT_EQ(calls("ring_allreduce") - ring_before, 1.0)
            << "rank " << comm.rank();
        EXPECT_EQ(calls("rabenseifner_allreduce") - rab_before, 0.0)
            << "rank " << comm.rank();
        EXPECT_EQ(0, std::memcmp(y_tree.data(), y_ring.data(),
                                 std::size_t(yr) * std::size_t(ncols) *
                                     sizeof(double)))
            << "rank " << comm.rank();
      },
      &trackers);
}

// Per-routine traffic accounting: every chunk a rank sends or receives is one
// step, and its payload counts toward bytes. 1023 doubles in 48-byte (six
// element) chunks make 171 chunks per full payload, cut unevenly by the
// Rabenseifner segments and the Bruck rounds. The per-rank figures are the
// ones the poll-driven routines recorded; the routines' traffic must not
// change when their control flow does.
TEST(CollAccounting, PerRoutineStepsAndBytes) {
  enum class Op { kAllReduce, kAllGather, kBroadcast };
  struct Case {
    const char* topo;  // CHASE_TOPO spec of the 4-rank team
    coll::Algorithm policy;
    Op op;
    const char* routine;
    double steps[4];
    double bytes[4];
  };
  const Case cases[] = {
      {"flat", coll::Algorithm::kRing, Op::kAllReduce, "ring_allreduce",
       {513, 684, 513, 342},
       {24552, 32736, 24552, 16368}},
      {"flat", coll::Algorithm::kTree, Op::kAllReduce,
       "rabenseifner_allreduce",
       {516, 516, 516, 516},
       {24560, 24560, 24560, 24528}},
      {"flat", coll::Algorithm::kRing, Op::kAllGather, "ring_allgather",
       {1026, 1026, 1026, 1026},
       {49104, 49104, 49104, 49104}},
      {"flat", coll::Algorithm::kTree, Op::kAllGather, "bruck_allgather",
       {1024, 1024, 1024, 1024},
       {49104, 49104, 49104, 49104}},
      {"flat", coll::Algorithm::kRing, Op::kBroadcast, "binomial_broadcast",
       {342, 171, 342, 171},
       {16368, 8184, 16368, 8184}},
      {"2x2", coll::Algorithm::kHier, Op::kAllReduce, "hier_allreduce",
       {342, 684, 513, 513},
       {16368, 32736, 24552, 24552}},
      {"2x2", coll::Algorithm::kHier, Op::kBroadcast, "hier_broadcast",
       {342, 171, 171, 342},
       {16368, 8184, 8184, 16368}},
  };
  const int p = 4;
  const Index count = 1023;
  ScopedPolicy chunk_scope(coll::chunk_bytes_policy, 48);
  for (const Case& c : cases) {
    comm::ScopedTopology topo(comm::parse_topology("CHASE_TOPO", c.topo));
    ScopedPolicy policy(coll::algorithm_policy, c.policy);
    std::vector<perf::Tracker> trackers((std::size_t(p)));
    Team team(p);
    team.run(
        [&](Communicator& comm) {
          std::vector<double> x =
              rank_payload<double>(comm.rank(), count, 19);
          std::vector<double> recv(std::size_t(p) * std::size_t(count));
          switch (c.op) {
            case Op::kAllReduce:
              comm.all_reduce(x.data(), count);
              break;
            case Op::kAllGather:
              comm.all_gather(x.data(), count, recv.data());
              break;
            case Op::kBroadcast:
              comm.broadcast(x.data(), count, /*root=*/0);
              break;
          }
        },
        &trackers);
    const std::string prefix = std::string("coll.") + c.routine;
    for (int r = 0; r < p; ++r) {
      const perf::Tracker& t = trackers[std::size_t(r)];
      EXPECT_EQ(t.counter(prefix + ".calls"), 1.0)
          << c.routine << " rank " << r;
      EXPECT_EQ(t.counter(prefix + ".steps"), c.steps[r])
          << c.routine << " rank " << r;
      EXPECT_EQ(t.counter(prefix + ".bytes"), c.bytes[r])
          << c.routine << " rank " << r;
    }
  }
}

TEST(CollFault, P2pCorruptPropagatesNaN) {
  ScopedPolicy policy(coll::algorithm_policy, coll::Algorithm::kRing);
  ScopedPolicy chunk_scope(coll::chunk_bytes_policy, std::size_t(64) << 10);
  fault::Scoped site("p2p.corrupt", /*rank=*/0, /*times=*/1);
  const int p = 4;
  Team team(p);
  team.run([&](Communicator& comm) {
    std::vector<double> x(33, double(comm.rank() + 1));
    comm.all_reduce(x.data(), Index(x.size()));
    // Rank 0's first reduce-chain chunk was corrupted in flight with 0xFF
    // bytes (a NaN), which the rank-ordered chain folds into every rank's
    // leading element.
    EXPECT_TRUE(std::isnan(x[0])) << "rank " << comm.rank();
  });
}

TEST(CollFault, P2pStallTripsWatchdog) {
  ScopedPolicy policy(coll::algorithm_policy, coll::Algorithm::kRing);
  ScopedPolicy timeout(comm::watchdog_policy, std::chrono::milliseconds(200));
  fault::Scoped site("p2p.stall", /*rank=*/1, /*times=*/1);
  Team team(3);
  try {
    team.run([&](Communicator& comm) {
      std::vector<double> x(17, double(comm.rank()));
      comm.all_reduce(x.data(), Index(x.size()));
    });
    FAIL() << "a stalled sender must poison the team";
  } catch (const comm::TeamAborted& e) {
    EXPECT_EQ(e.error().site, "p2p.watchdog") << e.what();
    // The diagnosis names the sender the blocked receive waited for.
    EXPECT_NE(std::string(e.what()).find("while waiting for rank"),
              std::string::npos)
        << e.what();
  }
}

TEST(CollFault, RankDieOnChannelPathAborts) {
  ScopedPolicy policy(coll::algorithm_policy, coll::Algorithm::kTree);
  fault::Scoped site("rank.die", /*rank=*/1, /*times=*/1);
  Team team(4);
  try {
    team.run([&](Communicator& comm) {
      std::vector<double> x(65, 1.0);
      comm.all_reduce(x.data(), Index(x.size()));
    });
    FAIL() << "injected rank death must abort the team";
  } catch (const comm::TeamAborted& e) {
    EXPECT_EQ(e.error().rank, 1);
    EXPECT_EQ(e.error().site, "rank.die");
  }
}

// tsan target: several teams of threads hammer the chunk channels and split
// communicators concurrently. Any missing synchronization in Mailbox/CommState
// shows up here under -fsanitize=thread (ctest -L coll on the tsan preset).
// Across the ring, tree and auto policies every flat chunk-channel routine
// runs: both allreduces, both allgathers and the binomial broadcast.
TEST(CollStress, ConcurrentTeams) {
  ScopedPolicy chunk_scope(coll::chunk_bytes_policy, 64);
  for (const coll::Algorithm algo :
       {coll::Algorithm::kRing, coll::Algorithm::kTree,
        coll::Algorithm::kAuto}) {
    ScopedPolicy policy(coll::algorithm_policy, algo);
    const int nteams = 4;
    std::vector<std::thread> drivers;
    drivers.reserve(nteams);
    for (int d = 0; d < nteams; ++d) {
      drivers.emplace_back([d] {
        const int p = 2 + d % 3;
        Team team(p);
        team.run([&](Communicator& comm) {
          for (int iter = 0; iter < 20; ++iter) {
            const Index count = 1 + 17 * ((iter + d) % 5);
            std::vector<double> x(std::size_t(count),
                                  double(comm.rank() + iter));
            comm.all_reduce(x.data(), count);
            std::vector<double> s(x);
            comm.all_reduce(s.data(), count);
            std::vector<double> g(std::size_t(count) * std::size_t(p));
            comm.all_gather(x.data(), count, g.data());
            std::vector<double> b((std::size_t(count)), double(iter));
            comm.broadcast(b.data(), count, iter % comm.size());
            Communicator half = comm.split(comm.rank() % 2, comm.rank());
            double v = double(comm.rank());
            half.all_reduce(&v, 1);
          }
        });
      });
    }
    for (auto& t : drivers) t.join();
  }
}

}  // namespace
}  // namespace chase
