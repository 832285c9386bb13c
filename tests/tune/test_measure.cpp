// The shared warmup+repeat harness and the CHASE_TUNE_* option knobs.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/env.hpp"
#include "tune/measure.hpp"
#include "tune/tuner.hpp"

namespace chase::tune {
namespace {

TEST(Measure, RunsWarmupPlusItersAndCountsThem) {
  int calls = 0;
  const Measurement m = measure(2, 3, [&] { ++calls; });
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(m.iters, 3);
  EXPECT_GE(m.mean, m.best);
  EXPECT_NEAR(m.total, m.mean * 3, 1e-12);
}

TEST(Measure, ClampsDegenerateCounts) {
  int calls = 0;
  const Measurement m = measure(-3, 0, [&] { ++calls; });
  EXPECT_EQ(calls, 1);  // no warmup, one timed run
  EXPECT_EQ(m.iters, 1);
  EXPECT_GE(m.best, 0.0);
}

TEST(Measure, BestIsMinimumOverRepeats) {
  // A workload whose first timed run is much slower than the rest: best
  // must track the fast runs, mean must sit in between.
  int run = 0;
  const Measurement m = measure(0, 4, [&] {
    volatile double sink = 0;
    const int work = run++ == 0 ? 2'000'000 : 2'000;
    for (int i = 0; i < work; ++i) sink = sink + i;
  });
  EXPECT_LT(m.best, m.mean);
}

TEST(Measure, RateIsWorkOverBest) {
  const double rate = measured_rate(1e6, 0, 3, [] {
    volatile double sink = 0;
    for (int i = 0; i < 10'000; ++i) sink = sink + i;
  });
  EXPECT_GT(rate, 0.0);
}

class TuneEnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("CHASE_TUNE_REPS");
    ::unsetenv("CHASE_TUNE_WARMUP");
    ::unsetenv("CHASE_TUNE_RANKS");
    ::unsetenv("CHASE_TUNE_QUICK");
  }
};

TEST_F(TuneEnvTest, DefaultsWhenUnset) {
  const TuneOptions o = options_from_env();
  EXPECT_EQ(o.repeats, 3);
  EXPECT_EQ(o.warmup, 1);
  EXPECT_EQ(o.coll_ranks, 4);
  EXPECT_FALSE(o.quick);
}

TEST_F(TuneEnvTest, ReadsTypedKnobs) {
  ::setenv("CHASE_TUNE_REPS", "7", 1);
  ::setenv("CHASE_TUNE_WARMUP", "0", 1);
  ::setenv("CHASE_TUNE_RANKS", "8", 1);
  ::setenv("CHASE_TUNE_QUICK", "1", 1);
  const TuneOptions o = options_from_env();
  EXPECT_EQ(o.repeats, 7);
  EXPECT_EQ(o.warmup, 0);
  EXPECT_EQ(o.coll_ranks, 8);
  EXPECT_TRUE(o.quick);
}

TEST_F(TuneEnvTest, InvalidValuesThrowNamingTheVariable) {
  ::setenv("CHASE_TUNE_REPS", "0", 1);
  EXPECT_THROW(options_from_env(), env::ConfigError);
  ::setenv("CHASE_TUNE_REPS", "soon", 1);
  EXPECT_THROW(options_from_env(), env::ConfigError);
  ::unsetenv("CHASE_TUNE_REPS");

  ::setenv("CHASE_TUNE_WARMUP", "-1", 1);
  EXPECT_THROW(options_from_env(), env::ConfigError);
  ::unsetenv("CHASE_TUNE_WARMUP");

  ::setenv("CHASE_TUNE_QUICK", "banana", 1);
  EXPECT_THROW(options_from_env(), env::ConfigError);
}

TEST_F(TuneEnvTest, WithDefaultsFillsOneSizePerClass) {
  TuneOptions o;
  const TuneOptions full = o.with_defaults();
  // One payload per message class for the collectives, and the chunk
  // candidates the pipelining sweep races.
  EXPECT_EQ(full.coll_bytes.size(), 3u);
  EXPECT_EQ(full.chunk_candidates.size(), 3u);
  o.quick = true;
  const TuneOptions quick = o.with_defaults();
  EXPECT_EQ(quick.coll_bytes.size(), 3u);
  EXPECT_LT(quick.coll_bytes.back(), full.coll_bytes.back());
  // Explicit lists are preserved untouched.
  o.coll_bytes = {4096, 8192};
  o.chunk_candidates = {std::size_t(32) << 10};
  const TuneOptions given = o.with_defaults();
  EXPECT_EQ(given.coll_bytes.size(), 2u);
  EXPECT_EQ(given.chunk_candidates.size(), 1u);
}

}  // namespace
}  // namespace chase::tune
