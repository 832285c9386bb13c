// Checkpoint/restart property suite: snapshot wire-format round trips,
// corruption rejection, sink double-buffer fallback, and the headline
// guarantee — a solve interrupted at an iteration boundary and resumed from
// its snapshot finishes bitwise-identical to an uninterrupted run, for the
// sequential, distributed v1.4, and legacy LMS drivers.
#include "ckpt/engine.hpp"

#include <gtest/gtest.h>

#include <complex>
#include <cstdio>
#include <filesystem>
#include <mutex>

#include "ckpt/restart.hpp"
#include "ckpt/sink.hpp"
#include "ckpt/snapshot.hpp"
#include "core/legacy_lms.hpp"
#include "core/sequence.hpp"
#include "core/sequential.hpp"
#include "gen/spectrum.hpp"
#include "tests/testing.hpp"

namespace chase::ckpt {
namespace {

template <typename T>
Snapshot<T> sample_snapshot(Index n, Index ne) {
  using R = RealType<T>;
  Snapshot<T> s;
  s.n = n;
  s.ne = ne;
  s.iter = 7;
  s.locked = ne / 2;
  s.nan_recoveries = 1;
  s.matvecs = 12345;
  s.seed = 2023;
  s.rng_stream = 5;
  s.b_sup = 3.5;
  s.mu_1 = -1.25;
  s.mu_ne = 0.75;
  Rng rng(99);
  for (Index j = 0; j < ne; ++j) {
    s.ritz.push_back(R(j) / R(10) - R(1));
    s.resid.push_back(R(1) / R(j + 2));
    s.degs.push_back(int(10 + 2 * j));
  }
  s.v.resize(n, ne);
  for (Index j = 0; j < ne; ++j) {
    for (Index i = 0; i < n; ++i) s.v(i, j) = rng.gaussian<T>();
  }
  return s;
}

template <typename T>
class SnapshotTyped : public ::testing::Test {};
using ::testing::Types;
TYPED_TEST_SUITE(SnapshotTyped, chase::testing::ScalarTypes, );

TYPED_TEST(SnapshotTyped, EncodeDecodeRoundTripsBitwise) {
  using T = TypeParam;
  auto s = sample_snapshot<T>(17, 6);
  std::vector<unsigned char> blob;
  encode(s, blob);
  Snapshot<T> d;
  ASSERT_TRUE(decode(blob, d));
  EXPECT_EQ(d.n, s.n);
  EXPECT_EQ(d.ne, s.ne);
  EXPECT_EQ(d.iter, s.iter);
  EXPECT_EQ(d.locked, s.locked);
  EXPECT_EQ(d.nan_recoveries, s.nan_recoveries);
  EXPECT_EQ(d.matvecs, s.matvecs);
  EXPECT_EQ(d.seed, s.seed);
  EXPECT_EQ(d.rng_stream, s.rng_stream);
  EXPECT_EQ(d.b_sup, s.b_sup);
  EXPECT_EQ(d.mu_1, s.mu_1);
  EXPECT_EQ(d.mu_ne, s.mu_ne);
  EXPECT_EQ(d.ritz, s.ritz);
  EXPECT_EQ(d.resid, s.resid);
  EXPECT_EQ(d.degs, s.degs);
  for (Index j = 0; j < s.ne; ++j) {
    for (Index i = 0; i < s.n; ++i) EXPECT_EQ(d.v(i, j), s.v(i, j));
  }
}

TYPED_TEST(SnapshotTyped, DecodeRejectsCorruption) {
  using T = TypeParam;
  auto s = sample_snapshot<T>(9, 4);
  std::vector<unsigned char> blob;
  encode(s, blob);
  Snapshot<T> d;

  // Any single flipped byte must fail the CRC.
  for (std::size_t pos : {std::size_t(0), blob.size() / 2, blob.size() - 1}) {
    auto bad = blob;
    bad[pos] ^= 0x40;
    EXPECT_FALSE(decode(bad, d)) << "flip at " << pos;
  }
  // Truncation and trailing garbage are corruption too.
  auto cut = blob;
  cut.resize(cut.size() - 5);
  EXPECT_FALSE(decode(cut, d));
  EXPECT_FALSE(decode(std::vector<unsigned char>{}, d));
}

TEST(Snapshot, DecodeRejectsScalarMismatch) {
  auto s = sample_snapshot<double>(9, 4);
  std::vector<unsigned char> blob;
  encode(s, blob);
  Snapshot<float> wrong;
  EXPECT_FALSE(decode(blob, wrong));  // tag mismatch, CRC intact
  Snapshot<std::complex<double>> wrong_z;
  EXPECT_FALSE(decode(blob, wrong_z));
}

TEST(MemorySinkTest, DoubleBufferKeepsTwoNewestAndFallsBack) {
  MemorySink sink;
  auto s1 = sample_snapshot<double>(8, 3);
  std::vector<unsigned char> b1, b2, b3;
  s1.iter = 1;
  encode(s1, b1);
  s1.iter = 2;
  encode(s1, b2);
  s1.iter = 3;
  encode(s1, b3);
  sink.store(b1, 1);
  sink.store(b2, 2);
  sink.store(b3, 3);  // evicts iter 1 (two slots)
  auto all = sink.load_all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], b3);  // newest first
  EXPECT_EQ(all[1], b2);

  // Corrupt the newest in place: load_last_good falls back to the older one.
  auto bad = b3;
  bad[bad.size() / 2] ^= 0xFF;
  sink.store(bad, 4);
  Snapshot<double> got;
  ASSERT_TRUE(load_last_good(sink, got));
  EXPECT_EQ(got.iter, 3);  // blob b3 (stored at "iter 3" payload)
}

TEST(FileSinkTest, RoundTripPruneAndCorruptFallback) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "chase_ckpt_test_filesink";
  fs::remove_all(dir);
  {
    FileSink sink(dir.string());
    auto s = sample_snapshot<double>(8, 3);
    std::vector<unsigned char> blob;
    for (long it : {1, 2, 3}) {
      s.iter = it;
      encode(s, blob);
      sink.store(blob, it);
    }
    // Pruned to the newest two generations on disk.
    std::size_t files = 0;
    for (const auto& e : fs::directory_iterator(dir)) {
      (void)e;
      ++files;
    }
    EXPECT_EQ(files, 2u);

    Snapshot<double> got;
    ASSERT_TRUE(load_last_good(sink, got));
    EXPECT_EQ(got.iter, 3);

    // Corrupt the newest file on disk: the loader falls back to iter 2.
    const fs::path newest = dir / "chase_ckpt_3.bin";
    ASSERT_TRUE(fs::exists(newest));
    std::FILE* f = std::fopen(newest.string().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 10, SEEK_SET);
    std::fputc(0x5A, f);
    std::fclose(f);
    ASSERT_TRUE(load_last_good(sink, got));
    EXPECT_EQ(got.iter, 2);
  }
  fs::remove_all(dir);
}

TEST(CheckpointPolicy, ScopedIntervalOverridesEnvironment) {
  ScopedPolicy scoped(interval_policy, 4);
  EXPECT_EQ(interval_policy.get(), 4);
  CheckpointEngine<double> engine(nullptr);
  EXPECT_FALSE(engine.enabled());  // no sink
  MemorySink sink;
  CheckpointEngine<double> with_sink(&sink);
  EXPECT_TRUE(with_sink.enabled());
  EXPECT_EQ(with_sink.interval(), 4);
  EXPECT_TRUE(with_sink.due(8));
  EXPECT_FALSE(with_sink.due(9));
}

// ---- bitwise resume-vs-uninterrupted properties ----

template <typename T>
la::Matrix<T> test_hamiltonian(Index n, std::uint64_t seed) {
  return gen::hermitian_with_spectrum<T>(
      gen::dft_like_spectrum<double>(n, unsigned(seed)), unsigned(seed));
}

core::ChaseConfig small_cfg() {
  core::ChaseConfig cfg;
  cfg.nev = 8;
  cfg.nex = 6;
  cfg.tol = 1e-9;
  return cfg;
}

template <typename T>
void expect_bitwise_equal(const core::ChaseResult<T>& a,
                          const core::ChaseResult<T>& b) {
  ASSERT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.matvecs, b.matvecs);
  ASSERT_EQ(a.eigenvalues.size(), b.eigenvalues.size());
  for (std::size_t j = 0; j < a.eigenvalues.size(); ++j) {
    EXPECT_EQ(a.eigenvalues[j], b.eigenvalues[j]) << "eigenvalue " << j;
  }
  ASSERT_EQ(a.eigenvectors.rows(), b.eigenvectors.rows());
  ASSERT_EQ(a.eigenvectors.cols(), b.eigenvectors.cols());
  for (Index j = 0; j < a.eigenvectors.cols(); ++j) {
    for (Index i = 0; i < a.eigenvectors.rows(); ++i) {
      ASSERT_EQ(a.eigenvectors(i, j), b.eigenvectors(i, j))
          << "eigenvector entry (" << i << ", " << j << ")";
    }
  }
}

template <typename T>
class ResumeTyped : public ::testing::Test {};
TYPED_TEST_SUITE(ResumeTyped, chase::testing::DoubleScalarTypes, );

TYPED_TEST(ResumeTyped, SequentialResumeIsBitwiseEqualToUninterrupted) {
  using T = TypeParam;
  const Index n = 120;
  auto h = test_hamiltonian<T>(n, 51);
  auto cfg = small_cfg();

  auto clean = core::solve_sequential<T>(h.cview(), cfg);
  ASSERT_TRUE(clean.converged);

  // Interrupt: cap the run at 3 iterations while checkpointing every one.
  MemorySink sink;
  {
    CheckpointEngine<T> engine(&sink, /*interval=*/1);
    SolveCkpt<T> ck;
    ck.engine = &engine;
    auto cut_cfg = cfg;
    cut_cfg.max_iterations = 3;
    auto cut = core::solve_sequential<T>(h.cview(), cut_cfg, nullptr, {}, ck);
    ASSERT_FALSE(cut.converged);
    EXPECT_EQ(engine.captures(), 3);
  }

  // Resume from the newest snapshot and run to convergence.
  Snapshot<T> snap;
  ASSERT_TRUE(load_last_good(sink, snap));
  EXPECT_EQ(snap.iter, 3);
  SolveCkpt<T> ck;
  ck.resume = &snap;
  auto resumed = core::solve_sequential<T>(h.cview(), cfg, nullptr, {}, ck);
  expect_bitwise_equal(resumed, clean);
}

TYPED_TEST(ResumeTyped, DistributedResumeIsBitwiseEqualToUninterrupted) {
  using T = TypeParam;
  const Index n = 96;
  auto h = test_hamiltonian<T>(n, 52);
  auto cfg = small_cfg();

  // One distributed solve on a 2x2 grid; optional checkpoint/resume wiring.
  const auto run = [&](const core::ChaseConfig& run_cfg, MemorySink* sink,
                       const Snapshot<T>* resume) {
    core::ChaseResult<T> out;
    std::mutex m;
    comm::Team team(4);
    team.run([&](comm::Communicator& world) {
      comm::Grid2d grid(world, 2, 2);
      auto map = dist::IndexMap::block(n, 2);
      dist::DistHermitianMatrix<T> hd(grid, map, map);
      hd.fill_from_global(h.cview());
      CheckpointEngine<T> engine(sink, /*interval=*/1);
      SolveCkpt<T> ck;
      if (sink != nullptr) ck.engine = &engine;
      ck.resume = resume;
      auto r = core::solve(hd, run_cfg,
                           static_cast<core::ChaseObserver<T>*>(nullptr),
                           la::ConstMatrixView<T>{}, ck);
      la::Matrix<T> vfull(n, Index(run_cfg.nev));
      dist::gather_rows<T>(grid.col_comm(), map,
                           r.eigenvectors.view().as_const(), vfull.view());
      if (world.rank() == 0) {
        std::lock_guard<std::mutex> lock(m);
        out = std::move(r);
        out.eigenvectors = std::move(vfull);
      }
    });
    return out;
  };

  auto clean = run(cfg, nullptr, nullptr);
  ASSERT_TRUE(clean.converged);

  MemorySink sink;
  auto cut_cfg = cfg;
  cut_cfg.max_iterations = 2;
  auto cut = run(cut_cfg, &sink, nullptr);
  ASSERT_FALSE(cut.converged);

  Snapshot<T> snap;
  ASSERT_TRUE(load_last_good(sink, snap));
  EXPECT_EQ(snap.iter, 2);
  auto resumed = run(cfg, nullptr, &snap);
  expect_bitwise_equal(resumed, clean);
}

TYPED_TEST(ResumeTyped, LegacyLmsResumeIsBitwiseEqualToUninterrupted) {
  using T = TypeParam;
  const Index n = 80;
  auto h = test_hamiltonian<T>(n, 53);
  auto cfg = small_cfg();

  const auto run = [&](const core::ChaseConfig& run_cfg, MemorySink* sink,
                       const Snapshot<T>* resume) {
    core::ChaseResult<T> out;
    std::mutex m;
    comm::Team team(2);
    team.run([&](comm::Communicator& world) {
      comm::Grid2d grid(world, 1, 2);
      auto rmap = dist::IndexMap::block(n, 1);
      auto cmap = dist::IndexMap::block(n, 2);
      dist::DistHermitianMatrix<T> hd(grid, rmap, cmap);
      hd.fill_from_global(h.cview());
      CheckpointEngine<T> engine(sink, /*interval=*/1);
      SolveCkpt<T> ck;
      if (sink != nullptr) ck.engine = &engine;
      ck.resume = resume;
      auto r = core::solve_lms(hd, run_cfg,
                               static_cast<core::ChaseObserver<T>*>(nullptr),
                               ck);
      if (world.rank() == 0) {
        std::lock_guard<std::mutex> lock(m);
        out = std::move(r);
      }
    });
    return out;
  };

  auto clean = run(cfg, nullptr, nullptr);
  ASSERT_TRUE(clean.converged);

  MemorySink sink;
  auto cut_cfg = cfg;
  cut_cfg.max_iterations = 2;
  (void)run(cut_cfg, &sink, nullptr);

  Snapshot<T> snap;
  ASSERT_TRUE(load_last_good(sink, snap));
  auto resumed = run(cfg, nullptr, &snap);
  expect_bitwise_equal(resumed, clean);
}

TEST(SequenceResume, ReseedsFromRestoredStreamNotGlobalSeed) {
  using T = double;
  const Index n = 90;
  auto h = test_hamiltonian<T>(n, 54);
  auto cfg = small_cfg();

  comm::Communicator self;
  comm::Grid2d grid(self, 1, 1);
  auto map = dist::IndexMap::block(n, 1);
  dist::DistHermitianMatrix<T> hd(grid, map, map);
  hd.fill_from_global(h.cview());

  // Uninterrupted two-problem sequence (same H twice keeps it simple; the
  // second problem draws from stream 1 regardless).
  core::ChaseSequence<T> seq(cfg);
  auto r1 = seq.solve_next(hd);
  ASSERT_TRUE(r1.converged);
  EXPECT_EQ(seq.stream(), 1u);
  auto r2 = seq.solve_next(hd);
  ASSERT_TRUE(r2.converged);
  EXPECT_EQ(seq.stream(), 2u);

  // Interrupt problem 2 of a fresh sequence mid-solve, checkpointing.
  MemorySink sink;
  core::ChaseSequence<T> cut_seq(cfg);
  (void)cut_seq.solve_next(hd);
  {
    auto cut_cfg = cfg;
    cut_cfg.max_iterations = 2;
    core::ChaseSequence<T> inner(cut_cfg, 10);
    inner.set_stream(cut_seq.stream());
    CheckpointEngine<T> engine(&sink, 1);
    SolveCkpt<T> ck;
    ck.engine = &engine;
    // Mimic the first sequence's warm-start state (same converged guess).
    auto warm = inner.solve_next(hd, nullptr, ck);
    (void)warm;
  }

  // Resume: a *fresh* driver restores the stream from the snapshot.
  Snapshot<T> snap;
  ASSERT_TRUE(load_last_good(sink, snap));
  EXPECT_EQ(snap.rng_stream, 1u);  // problem 2's stream, not the global seed
  core::ChaseSequence<T> resumed_seq(cfg);
  SolveCkpt<T> ck;
  ck.resume = &snap;
  auto resumed = resumed_seq.solve_next(hd, nullptr, ck);
  ASSERT_TRUE(resumed.converged);
  EXPECT_EQ(resumed_seq.stream(), 2u);  // restored 1, advanced past problem 2
  // Bitwise equality with the uninterrupted problem 2 requires the same
  // warm-start guess, which the interrupted driver had; the resumed solve
  // skipped seeding entirely, so its trajectory is the snapshot's. The
  // eigenvalues must agree to convergence tolerance either way.
  for (std::size_t j = 0; j < r2.eigenvalues.size(); ++j) {
    EXPECT_NEAR(resumed.eigenvalues[j], r2.eigenvalues[j], 1e-7);
  }
}

}  // namespace
}  // namespace chase::ckpt
