// Policy<V>, the one runtime-knob mechanism: first-use environment reads on
// a local knob, and the ScopedPolicy restore contract (nested guards restore
// the outer pin, a guard over an unpinned knob restores "not overridden")
// on every shipped CHASE_* knob.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>

#include "ckpt/policy.hpp"
#include "coll/abft.hpp"
#include "coll/engine.hpp"
#include "comm/rank_error.hpp"
#include "common/env.hpp"
#include "common/policy.hpp"
#include "core/precision.hpp"
#include "perf/tracker.hpp"
#include "tune/runtime.hpp"

namespace chase {
namespace {

constexpr const char* kKnob = "CHASE_TEST_POLICY_KNOB";

std::optional<int> read_test_knob(const char* var) {
  if (const auto v = env::positive_env(var)) return int(*v);
  return std::nullopt;
}

class LocalPolicy : public ::testing::Test {
 protected:
  void TearDown() override { ::unsetenv(kKnob); }
};

TEST_F(LocalPolicy, UnsetVariableMeansBuiltInDefault) {
  ::unsetenv(kKnob);
  Policy<int> p{kKnob, 3, read_test_knob};
  EXPECT_FALSE(p.overridden());
  EXPECT_EQ(p.pinned(), std::nullopt);
  EXPECT_EQ(p.get(), 3);
  p.pin(8);
  EXPECT_TRUE(p.overridden());
  EXPECT_EQ(p.get(), 8);
  EXPECT_EQ(p.fallback(), 3);
}

TEST_F(LocalPolicy, EnvironmentIsReadOnceAtFirstUse) {
  ::setenv(kKnob, "7", 1);
  Policy<int> p{kKnob, 3, read_test_knob};
  ::setenv(kKnob, "9", 1);  // constructing the policy read nothing
  EXPECT_TRUE(p.overridden());
  EXPECT_EQ(p.get(), 9);
  ::setenv(kKnob, "11", 1);  // the first use above froze the value
  EXPECT_EQ(p.get(), 9);
  {
    ScopedPolicy guard(p, 4);
    EXPECT_EQ(p.get(), 4);
  }
  EXPECT_EQ(p.get(), 9);  // the environment pin is the restored raw slot
}

TEST_F(LocalPolicy, RejectedTextThrowsAtEveryUseUntilFixed) {
  ::setenv(kKnob, "banana", 1);
  Policy<int> p{kKnob, 3, read_test_knob};
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      (void)p.get();
      FAIL() << "banana accepted";
    } catch (const env::ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(kKnob), std::string::npos);
    }
  }
  ::unsetenv(kKnob);
  EXPECT_EQ(p.get(), 3);
}

// Outer pin, inner pin, unwind: the inner value shows, then the outer one
// again, then the state from before both guards.
template <typename V>
void expect_nested_restore(Policy<V>& p, V outer, V inner) {
  const bool was_overridden = p.overridden();
  const V before = p.get();
  {
    ScopedPolicy outer_guard(p, outer);
    EXPECT_EQ(p.get(), outer) << p.var();
    {
      ScopedPolicy inner_guard(p, inner);
      EXPECT_EQ(p.get(), inner) << p.var();
      EXPECT_TRUE(p.overridden()) << p.var();
    }
    EXPECT_EQ(p.get(), outer) << p.var();
    EXPECT_TRUE(p.overridden()) << p.var();
  }
  EXPECT_EQ(p.get(), before) << p.var();
  EXPECT_EQ(p.overridden(), was_overridden) << p.var();
}

TEST(Policy, NestedGuardsRestoreTheOuterValueForEveryKnob) {
  expect_nested_restore(coll::algorithm_policy, coll::Algorithm::kRing,
                        coll::Algorithm::kTree);
  expect_nested_restore(coll::chunk_bytes_policy, std::size_t(4096),
                        std::size_t(48));
  expect_nested_restore(core::precision_policy, core::Precision::kMixed,
                        core::Precision::kDouble);
  expect_nested_restore(coll::abft_policy, true, false);
  expect_nested_restore(ckpt::interval_policy, 3, 5);
  expect_nested_restore(comm::watchdog_policy, std::chrono::milliseconds(500),
                        std::chrono::milliseconds(200));
}

TEST(Policy, GuardOverUnpinnedKnobRestoresNotOverridden) {
  {
    ScopedPolicy algo(coll::algorithm_policy, coll::Algorithm::kRing);
    ScopedPolicy chunk(coll::chunk_bytes_policy, std::size_t(4096));
    ScopedPolicy precision(core::precision_policy, core::Precision::kMixed);
    ScopedPolicy abft(coll::abft_policy, true);
    ScopedPolicy interval(ckpt::interval_policy, 2);
    ScopedPolicy watchdog(comm::watchdog_policy, std::chrono::milliseconds(9));
  }
  EXPECT_FALSE(coll::algorithm_policy.overridden());
  EXPECT_FALSE(coll::chunk_bytes_policy.overridden());
  EXPECT_FALSE(core::precision_policy.overridden());
  EXPECT_FALSE(coll::abft_policy.overridden());
  EXPECT_FALSE(ckpt::interval_policy.overridden());
  EXPECT_FALSE(comm::watchdog_policy.overridden());

  EXPECT_EQ(coll::algorithm_policy.get(), coll::Algorithm::kNaive);
  EXPECT_EQ(coll::chunk_bytes_policy.get(), std::size_t(64) << 10);
  EXPECT_EQ(core::precision_policy.get(), core::Precision::kDouble);
  EXPECT_FALSE(coll::abft_policy.get());
  EXPECT_EQ(ckpt::interval_policy.get(), 0);
  EXPECT_EQ(comm::watchdog_policy.get(), std::chrono::milliseconds(120000));

  perf::Tracker tracker;
  perf::set_thread_tracker(&tracker);
  tune::record_provenance();
  perf::set_thread_tracker(nullptr);
  EXPECT_EQ(tracker.counter("tune.source.env"), 0.0);
  EXPECT_EQ(tracker.counter("tune.source.default"), 2.0);
}

}  // namespace
}  // namespace chase
