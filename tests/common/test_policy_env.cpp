// Every enum and boolean CHASE_* knob rejects unknown text at its first read
// with an env::ConfigError naming the variable and the text. ctest runs this
// binary with a misspelled value in each variable (ENVIRONMENT property,
// tests/common/CMakeLists.txt).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "coll/abft.hpp"
#include "coll/engine.hpp"
#include "common/env.hpp"
#include "common/policy.hpp"
#include "core/precision.hpp"
#include "la/factor/policy.hpp"
#include "la/gemm_policy.hpp"

namespace chase {
namespace {

template <typename V>
void expect_rejected(const Policy<V>& p, const std::string& text) {
  const char* set = std::getenv(p.var());
  ASSERT_NE(set, nullptr) << p.var() << " unset: run this test through ctest";
  ASSERT_EQ(std::string(set), text);
  try {
    (void)p.get();
    FAIL() << p.var() << "=" << text << " was accepted";
  } catch (const env::ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(p.var()), std::string::npos) << what;
    EXPECT_NE(what.find("\"" + text + "\""), std::string::npos) << what;
  }
}

TEST(PolicyEnv, GemmKernelTypoIsRejected) {
  expect_rejected(la::gemm_kernel_policy, "mcro");
}

TEST(PolicyEnv, FactorKernelTypoIsRejected) {
  expect_rejected(la::factor_kernel_policy, "blokced");
}

TEST(PolicyEnv, PrecisionTypoIsRejected) {
  expect_rejected(core::precision_policy, "mixd");
}

TEST(PolicyEnv, AbftTypoIsRejected) {
  expect_rejected(coll::abft_policy, "of");
}

TEST(PolicyEnv, CollAlgoTypoIsRejected) {
  expect_rejected(coll::algorithm_policy, "rign");
}

}  // namespace
}  // namespace chase
