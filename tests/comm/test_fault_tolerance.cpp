// Collective-safe error propagation: the poisoned-barrier protocol, the
// barrier watchdog, the fault-injection registry, and the split()
// generation-keyed child cache.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <complex>
#include <cstdlib>
#include <limits>
#include <vector>

#include "comm/communicator.hpp"
#include "common/faultinject.hpp"

namespace chase::comm {
namespace {

// Keep watchdog-sensitive tests snappy: long enough that healthy ranks never
// trip it, short enough that a genuinely dead rank is detected quickly.
constexpr auto kTestTimeout = std::chrono::milliseconds(2000);

TEST(FaultInject, ArmFireDisarm) {
  fault::Scoped armed("unit.site", /*rank=*/-1, /*times=*/2);
  EXPECT_TRUE(fault::fired("unit.site"));
  EXPECT_TRUE(fault::fired("unit.site"));
  EXPECT_FALSE(fault::fired("unit.site"));  // budget exhausted
  EXPECT_FALSE(fault::fired("other.site"));
  EXPECT_EQ(fault::fire_count("unit.site"), 2);
}

TEST(FaultInject, RankFilterAndPerRankBudgets) {
  fault::Scoped armed("unit.site", /*rank=*/1, /*times=*/1);
  fault::set_thread_rank(0);
  EXPECT_FALSE(fault::fired("unit.site"));
  fault::set_thread_rank(1);
  EXPECT_TRUE(fault::fired("unit.site"));
  EXPECT_FALSE(fault::fired("unit.site"));
  fault::set_thread_rank(0);
}

TEST(FaultInject, WildcardRankFiresIndependentlyPerRank) {
  // rank -1 with times=1 must fire exactly once on EVERY rank — that is what
  // keeps SPMD control flow collective-consistent under injection.
  fault::Scoped armed("unit.site", /*rank=*/-1, /*times=*/1);
  for (int r = 0; r < 4; ++r) {
    fault::set_thread_rank(r);
    EXPECT_TRUE(fault::fired("unit.site")) << "rank " << r;
    EXPECT_FALSE(fault::fired("unit.site")) << "rank " << r;
  }
  fault::set_thread_rank(0);
  EXPECT_EQ(fault::fire_count("unit.site"), 4);
}

TEST(FaultTolerance, RankDieInCollectiveIsReportedNotDeadlocked) {
  // The acceptance scenario: rank 2 of a 4-rank team dies entering a
  // collective. Siblings must unblock (no deadlock), the process must
  // survive (no abort), and Team::run must rethrow the originating rank's
  // error with the site name.
  ScopedPolicy fast(watchdog_policy, kTestTimeout);
  fault::Scoped armed("rank.die", /*rank=*/2, /*times=*/1);
  Team team(4);
  try {
    team.run([](Communicator& comm) {
      double x = 1.0;
      comm.all_reduce(&x, 1);  // rank 2 dies here; others must not hang
      comm.barrier();
      comm.all_reduce(&x, 1);
    });
    FAIL() << "expected TeamAborted";
  } catch (const TeamAborted& e) {
    EXPECT_EQ(e.error().rank, 2);
    EXPECT_EQ(e.error().site, "rank.die");
    EXPECT_NE(std::string(e.what()).find("rank 2"), std::string::npos);
  }
}

TEST(FaultTolerance, SubsequentTeamRunsCleanly) {
  // After an aborted team, fresh Teams in the same process must work — both
  // a brand-new Team object and a second run() of the same Team.
  ScopedPolicy fast(watchdog_policy, kTestTimeout);
  Team team(4);
  {
    fault::Scoped armed("rank.die", /*rank=*/2, /*times=*/1);
    EXPECT_THROW(team.run([](Communicator& comm) { comm.barrier(); }),
                 TeamAborted);
  }
  std::atomic<int> sum{0};
  team.run([&](Communicator& comm) {
    int x = comm.rank();
    comm.all_reduce(&x, 1);
    sum.fetch_add(x);
  });
  EXPECT_EQ(sum.load(), 4 * 6);  // every rank sees 0+1+2+3

  Team fresh(3);
  std::atomic<int> hits{0};
  fresh.run([&](Communicator& comm) {
    comm.barrier();
    hits.fetch_add(1);
  });
  EXPECT_EQ(hits.load(), 3);
}

TEST(FaultTolerance, RankExceptionCarriesOriginalMessage) {
  ScopedPolicy fast(watchdog_policy, kTestTimeout);
  Team team(3);
  try {
    team.run([](Communicator& comm) {
      if (comm.rank() == 1) throw Error("disk on fire");
      comm.barrier();
    });
    FAIL() << "expected TeamAborted";
  } catch (const TeamAborted& e) {
    EXPECT_EQ(e.error().rank, 1);
    EXPECT_NE(e.error().message.find("disk on fire"), std::string::npos);
  }
}

TEST(FaultTolerance, SilentDeathOutsideCollectiveTripsWatchdog) {
  // A rank that returns early without throwing never records anything; the
  // longest-waiting sibling's watchdog must detect it instead of hanging.
  ScopedPolicy fast(watchdog_policy, std::chrono::milliseconds(300));
  Team team(3);
  try {
    team.run([](Communicator& comm) {
      if (comm.rank() == 0) return;  // dies silently
      comm.barrier();
    });
    FAIL() << "expected TeamAborted";
  } catch (const TeamAborted& e) {
    EXPECT_EQ(e.error().site, "barrier.watchdog");
  }
}

TEST(FaultTolerance, PoisonCrossesSplitCommunicators) {
  // Death inside a child communicator must unblock ranks waiting on the
  // parent (and vice versa): the whole communicator tree shares one
  // ErrorState.
  ScopedPolicy fast(watchdog_policy, kTestTimeout);
  // skip=1 lets rank 3 survive the rank.die check at split() entry so the
  // death lands inside the *child* collective.
  fault::Scoped armed("rank.die", /*rank=*/3, /*times=*/1, /*skip=*/1);
  Team team(4);
  try {
    team.run([](Communicator& comm) {
      Communicator half = comm.split(comm.rank() / 2, comm.rank());
      double x = 1.0;
      if (comm.rank() == 3) {
        half.all_reduce(&x, 1);  // dies in the child collective
      } else {
        comm.barrier();  // waits on the parent
      }
    });
    FAIL() << "expected TeamAborted";
  } catch (const TeamAborted& e) {
    EXPECT_EQ(e.error().rank, 3);
    EXPECT_EQ(e.error().site, "rank.die");
  }
}

TEST(FaultTolerance, CollectiveMismatchIsDiagnosedNotFatal) {
  // Divergent SPMD control flow (one rank calls broadcast while the others
  // call all_reduce) used to abort the process; now it must poison the team
  // with a diagnosable error.
  ScopedPolicy fast(watchdog_policy, kTestTimeout);
  Team team(3);
  try {
    team.run([](Communicator& comm) {
      double x = 1.0;
      if (comm.rank() == 2) {
        comm.broadcast(&x, 1, 0);
      } else {
        comm.all_reduce(&x, 1);
      }
    });
    FAIL() << "expected TeamAborted";
  } catch (const TeamAborted& e) {
    EXPECT_EQ(e.error().site, "collective.mismatch");
  }
}

TEST(FaultTolerance, AllReduceCorruptInjectsNaN) {
  fault::Scoped armed("allreduce.corrupt", /*rank=*/-1, /*times=*/1);
  Team team(4);
  std::vector<double> results(4, 0.0);
  team.run([&](Communicator& comm) {
    std::vector<double> x = {1.0, 2.0};
    comm.all_reduce(x.data(), 2);
    results[std::size_t(comm.rank())] = x[0];
    EXPECT_DOUBLE_EQ(x[1], 8.0);  // only element 0 is corrupted
  });
  for (double r : results) EXPECT_TRUE(std::isnan(r));
}

TEST(FaultTolerance, EnvArmsSites) {
  // The env plumbing: site[@rank][:times] entries, comma separated. The
  // registry singleton already consumed the process env, so parse through a
  // fresh Registry via its public surface: arm programmatically with the
  // same syntax semantics is covered above; here check load_env parsing.
  fault::detail::Registry reg;
  EXPECT_TRUE(reg.sites.empty());
  // Simulate: parsing is exercised through a locally-set env + load_env.
  ::setenv("CHASE_FAULT_INJECT", "potrf.breakdown@1:3,filter.nan", 1);
  reg.load_env();
  ::unsetenv("CHASE_FAULT_INJECT");
  ASSERT_EQ(reg.sites.size(), 2u);
  EXPECT_EQ(reg.sites[0].name, "potrf.breakdown");
  EXPECT_EQ(reg.sites[0].rank, 1);
  EXPECT_EQ(reg.sites[0].times, 3);
  EXPECT_EQ(reg.sites[1].name, "filter.nan");
  EXPECT_EQ(reg.sites[1].rank, -1);
  EXPECT_EQ(reg.sites[1].times, 1);
}

TEST(Split, SameColorAcrossCallsGetsFreshState) {
  // Regression: split_children used to be keyed by color alone, so a second
  // split() with the same color could observe a stale child CommState. With
  // generation keying the two children must be distinct, correctly sized,
  // and independently functional.
  Team team(4);
  team.run([](Communicator& comm) {
    // First split: pairs {0,1} and {2,3}.
    Communicator a = comm.split(comm.rank() / 2, comm.rank());
    // Second split, same colors but different membership: {0,3} and {1,2}.
    const int color2 = (comm.rank() == 0 || comm.rank() == 3) ? 0 : 1;
    Communicator b = comm.split(color2, comm.rank());
    EXPECT_EQ(a.size(), 2);
    EXPECT_EQ(b.size(), 2);
    double xa = 1.0, xb = double(comm.rank());
    a.all_reduce(&xa, 1);
    b.all_reduce(&xb, 1);
    EXPECT_DOUBLE_EQ(xa, 2.0);
    EXPECT_DOUBLE_EQ(xb, 3.0);  // {0,3} and {1,2} both sum to 3
    // Both stay usable after further splits.
    Communicator c = comm.split(0, comm.rank());
    EXPECT_EQ(c.size(), 4);
    double xc = 1.0;
    c.all_reduce(&xc, 1);
    EXPECT_DOUBLE_EQ(xc, 4.0);
    a.barrier();
    b.barrier();
  });
}

TEST(AllGatherAccounting, RecordsTotalGatheredBytes) {
  // The Figure 2/3 communication-volume model prices the *total* gathered
  // payload; the event must record size()*count*sizeof(T), not the local
  // contribution.
  const int p = 4;
  std::vector<perf::Tracker> trackers(p);
  Team team(p);
  team.run(
      [&](Communicator& comm) {
        std::vector<double> mine(3, double(comm.rank()));
        std::vector<double> all(std::size_t(3 * p));
        comm.all_gather(mine.data(), 3, all.data());

        std::vector<Index> counts = {1, 2, 3, 4};
        std::vector<Index> displs = {0, 1, 3, 6};
        std::vector<double> vmine(std::size_t(comm.rank() + 1), 1.0);
        std::vector<double> vall(10);
        comm.all_gather_v(vmine.data(), comm.rank() + 1, vall.data(), counts,
                          displs);
      },
      &trackers);
  for (int r = 0; r < p; ++r) {
    const auto& colls = trackers[std::size_t(r)].collectives();
    ASSERT_EQ(colls.size(), 2u) << "rank " << r;
    EXPECT_EQ(colls[0].bytes, std::size_t(p) * 3 * sizeof(double));
    EXPECT_EQ(colls[1].bytes, std::size_t(10) * sizeof(double));
  }
}

TEST(Counters, BumpAndMergeMax) {
  perf::Tracker a, b;
  a.bump("qr.hhqr_fallback");
  a.bump("qr.hhqr_fallback");
  b.bump("qr.hhqr_fallback");
  b.bump("filter.nan_recovery", 3);
  EXPECT_DOUBLE_EQ(a.counter("qr.hhqr_fallback"), 2.0);
  EXPECT_DOUBLE_EQ(a.counter("nope"), 0.0);
  a.merge_max_times(b);
  EXPECT_DOUBLE_EQ(a.counter("qr.hhqr_fallback"), 2.0);   // max(2, 1)
  EXPECT_DOUBLE_EQ(a.counter("filter.nan_recovery"), 3.0);  // adopted
}

}  // namespace
}  // namespace chase::comm
