// The solve-start runtime contract: precedence (override > profile >
// default), provenance counters, CHASE_PROFILE / CHASE_TUNE_REPLAY
// resolution, and the no-profile = pre-autotuner bitwise guarantee.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "coll/engine.hpp"
#include "core/sequential.hpp"
#include "perf/tracker.hpp"
#include "perf/tuned.hpp"
#include "tests/testing.hpp"
#include "tune/profile.hpp"
#include "tune/runtime.hpp"
#include "tune/tuner.hpp"

namespace chase::tune {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

class RuntimeTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("CHASE_PROFILE");
    ::unsetenv("CHASE_TUNE_REPLAY");
    perf::set_thread_tracker(nullptr);
    reset_runtime_for_testing();
  }
};

// A profile for this machine that flips every domain away from the
// defaults so a tuned decision is distinguishable from a default one.
MachineProfile contrarian_profile() {
  MachineProfile p;
  p.fingerprint = local_fingerprint();
  for (int k = 0; k < perf::kCollKindCount; ++k) {
    for (int c = 0; c < perf::kMsgClassCount; ++c) {
      p.tables.coll_algo[k][c] = int(coll::Algorithm::kTree);
    }
  }
  p.tables.chunk_bytes = 128 << 10;
  return p;
}

TEST_F(RuntimeTest, CollPrecedenceOverrideProfileDefault) {
  const coll::Algorithm fallback =
      coll::algorithm_for(perf::CollKind::kAllReduce, 4096);
  ASSERT_TRUE(install_profile(contrarian_profile()));
  EXPECT_EQ(coll::algorithm_for(perf::CollKind::kAllReduce, 4096),
            coll::Algorithm::kTree);
  {
    ScopedPolicy pin(coll::algorithm_policy, coll::Algorithm::kRing);
    EXPECT_EQ(coll::algorithm_for(perf::CollKind::kAllReduce, 4096),
              coll::Algorithm::kRing);
  }
  EXPECT_EQ(coll::algorithm_for(perf::CollKind::kAllReduce, 4096),
            coll::Algorithm::kTree);
  uninstall_profile();
  EXPECT_EQ(coll::algorithm_for(perf::CollKind::kAllReduce, 4096), fallback);
}

TEST_F(RuntimeTest, ChunkPrecedenceOverrideProfileDefault) {
  const std::size_t fallback = coll::chunk_bytes();
  ASSERT_TRUE(install_profile(contrarian_profile()));
  EXPECT_EQ(coll::chunk_bytes(), std::size_t(128) << 10);
  {
    ScopedPolicy pin(coll::chunk_bytes_policy, std::size_t(32) << 10);
    EXPECT_EQ(coll::chunk_bytes(), std::size_t(32) << 10);
  }
  EXPECT_EQ(coll::chunk_bytes(), std::size_t(128) << 10);
  uninstall_profile();
  EXPECT_EQ(coll::chunk_bytes(), fallback);
}

TEST_F(RuntimeTest, ProvenanceCountersNameTheSource) {
  perf::Tracker tracker;
  perf::set_thread_tracker(&tracker);

  // Two tunable domains: the collective algorithm and the chunk size.
  record_provenance();  // no profile, no overrides
  EXPECT_EQ(tracker.counter("tune.source.default"), 2.0);
  EXPECT_EQ(tracker.counter("tune.source.profile"), 0.0);
  EXPECT_EQ(tracker.counter("tune.source.env"), 0.0);

  ASSERT_TRUE(install_profile(contrarian_profile()));
  record_provenance();  // both domains now come from the profile
  EXPECT_EQ(tracker.counter("tune.source.profile"), 2.0);
  EXPECT_EQ(tracker.counter("tune.source.default"), 2.0);

  {
    ScopedPolicy pin(coll::algorithm_policy, coll::Algorithm::kRing);
    record_provenance();  // algorithm pinned, chunk size still profiled
  }
  EXPECT_EQ(tracker.counter("tune.source.env"), 1.0);
  EXPECT_EQ(tracker.counter("tune.source.profile"), 3.0);
}

TEST_F(RuntimeTest, ChaseProfileEnvInstallsAtResolve) {
  MachineProfile p = contrarian_profile();
  const std::string path = temp_path("chase_profile_env.json");
  ASSERT_TRUE(save_profile(p, path));
  ::setenv("CHASE_PROFILE", path.c_str(), 1);
  reset_runtime_for_testing();
  ensure_profile_from_env();
  const perf::TunedTables* t = perf::tuned_tables();
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->coll_algo[0][0], int(coll::Algorithm::kTree));
  // Idempotent: a second resolve does not re-read the env.
  ensure_profile_from_env();
  EXPECT_EQ(perf::tuned_tables(), t);
  std::remove(path.c_str());
}

TEST_F(RuntimeTest, RejectedProfileFallsBackToDefaultsAndCounts) {
  const std::string path = temp_path("chase_profile_corrupt.json");
  std::ofstream(path) << "{{{ definitely not a profile";
  ::setenv("CHASE_PROFILE", path.c_str(), 1);
  reset_runtime_for_testing();
  perf::Tracker tracker;
  perf::set_thread_tracker(&tracker);
  ensure_profile_from_env();
  perf::set_thread_tracker(nullptr);
  EXPECT_EQ(tracker.counter("tune.profile.rejected"), 1.0);
  EXPECT_EQ(perf::tuned_tables(), nullptr);
  // The solver still runs on defaults after a rejected profile.
  const auto h = testing::random_hermitian<double>(64, 11);
  core::ChaseConfig cfg;
  cfg.nev = 8;
  cfg.nex = 4;
  EXPECT_TRUE(core::solve_sequential<double>(h.view(), cfg).converged);
  std::remove(path.c_str());
}

TEST_F(RuntimeTest, ReplayDerivesTablesFromMeasurementLog) {
  // Stored tables say tree everywhere; the measurement log says the ring
  // wins small allreduces. Replay must trust the log, not the tables.
  MachineProfile p = contrarian_profile();
  p.measurements.push_back({"coll.allreduce.b16384.p4.tree", 2e-5, "s"});
  p.measurements.push_back({"coll.allreduce.b16384.p4.ring", 1e-5, "s"});
  p.measurements.push_back({"gemm.d.n768.micro", 4e9, "flop/s"});
  const std::string path = temp_path("chase_profile_replay.json");
  ASSERT_TRUE(save_profile(p, path));
  ::setenv("CHASE_TUNE_REPLAY", path.c_str(), 1);
  reset_runtime_for_testing();
  ensure_profile_from_env();
  const perf::TunedTables* t = perf::tuned_tables();
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->coll_algo[int(perf::CollKind::kAllReduce)]
                        [int(perf::MsgClass::kSmallMsg)],
            int(coll::Algorithm::kRing));
  // The trailing gemm rate row derives nothing.
  EXPECT_TRUE(*t == derive_selections(std::vector<RawMeasurement>(
                        p.measurements.begin(), p.measurements.end() - 1)));
  // Classes the log never measured are unset under replay, even though the
  // stored tables had entries — selections are a pure function of the log.
  EXPECT_EQ(t->coll_algo[int(perf::CollKind::kBroadcast)]
                        [int(perf::MsgClass::kSmallMsg)],
            -1);
  EXPECT_EQ(t->chunk_bytes, 0);
  std::remove(path.c_str());
}

TEST_F(RuntimeTest, ProfileLessSolveMatchesPinnedDefaultsBitwise) {
  // The autotuner contract: a process with no profile and no overrides is
  // bitwise identical to one that explicitly pins the built-in defaults of
  // every profile-tunable domain.
  const auto h = testing::random_hermitian<double>(96, 7);
  core::ChaseConfig cfg;
  cfg.nev = 12;
  cfg.nex = 6;

  const auto plain = core::solve_sequential<double>(h.view(), cfg);
  ASSERT_TRUE(plain.converged);

  core::ChaseResult<double> pinned;
  {
    ScopedPolicy algo_pin(coll::algorithm_policy,
                          coll::algorithm_policy.get());
    ScopedPolicy chunk_pin(coll::chunk_bytes_policy,
                           coll::chunk_bytes_policy.get());
    pinned = core::solve_sequential<double>(h.view(), cfg);
  }
  ASSERT_TRUE(pinned.converged);

  ASSERT_EQ(plain.eigenvalues.size(), pinned.eigenvalues.size());
  for (std::size_t i = 0; i < plain.eigenvalues.size(); ++i) {
    EXPECT_EQ(plain.eigenvalues[i], pinned.eigenvalues[i]) << "i=" << i;
  }
  ASSERT_EQ(plain.eigenvectors.rows(), pinned.eigenvectors.rows());
  ASSERT_EQ(plain.eigenvectors.cols(), pinned.eigenvectors.cols());
  for (la::Index j = 0; j < plain.eigenvectors.cols(); ++j) {
    for (la::Index i = 0; i < plain.eigenvectors.rows(); ++i) {
      EXPECT_EQ(plain.eigenvectors(i, j), pinned.eigenvectors(i, j));
    }
  }
}

}  // namespace
}  // namespace chase::tune
