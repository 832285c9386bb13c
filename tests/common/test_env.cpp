// Validated parsing of the CHASE_* environment knobs: garbage must become a
// typed ConfigError naming the variable, never a silent 0 or default.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "common/env.hpp"

namespace chase::env {
namespace {

TEST(PositiveInt, ParsesPlainValues) {
  EXPECT_EQ(positive_int("X", "1"), 1);
  EXPECT_EQ(positive_int("X", "42"), 42);
  EXPECT_EQ(positive_int("X", "1048576"), 1048576);
  // strtoll semantics: leading whitespace and an explicit '+' are fine.
  EXPECT_EQ(positive_int("X", " 7"), 7);
  EXPECT_EQ(positive_int("X", "+7"), 7);
  // Trailing whitespace is tolerated (a quoted export often carries one).
  EXPECT_EQ(positive_int("X", "7 "), 7);
}

TEST(PositiveInt, RejectsZeroAndNegative) {
  EXPECT_THROW(positive_int("CHASE_CKPT_INTERVAL", "0"), ConfigError);
  EXPECT_THROW(positive_int("CHASE_CKPT_INTERVAL", "-3"), ConfigError);
}

TEST(PositiveInt, RejectsGarbage) {
  EXPECT_THROW(positive_int("X", "abc"), ConfigError);
  EXPECT_THROW(positive_int("X", "12abc"), ConfigError);   // trailing junk
  EXPECT_THROW(positive_int("X", "64kb"), ConfigError);    // the classic typo
  EXPECT_THROW(positive_int("X", "1.5"), ConfigError);
  EXPECT_THROW(positive_int("X", ""), ConfigError);
  EXPECT_THROW(positive_int("X", "  "), ConfigError);
}

TEST(PositiveInt, RejectsOverflow) {
  EXPECT_THROW(positive_int("X", "99999999999999999999999"), ConfigError);
}

TEST(PositiveInt, ErrorNamesVariableAndText) {
  try {
    positive_int("CHASE_COLL_CHUNK_BYTES", "64kb");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CHASE_COLL_CHUNK_BYTES"), std::string::npos) << what;
    EXPECT_NE(what.find("64kb"), std::string::npos) << what;
  }
}

TEST(PositiveInt, IsAChaseError) {
  // The collective-safe propagation (poisoned barriers) catches
  // chase::Error; ConfigError must ride that path.
  EXPECT_THROW(positive_int("X", "bogus"), chase::Error);
}

TEST(PositiveEnv, UnsetAndEmptyAreNullopt) {
  ::unsetenv("CHASE_TEST_ENV_KNOB");
  EXPECT_FALSE(positive_env("CHASE_TEST_ENV_KNOB").has_value());
  ::setenv("CHASE_TEST_ENV_KNOB", "", 1);
  EXPECT_FALSE(positive_env("CHASE_TEST_ENV_KNOB").has_value());
  ::unsetenv("CHASE_TEST_ENV_KNOB");
}

TEST(PositiveEnv, SetValueParses) {
  ::setenv("CHASE_TEST_ENV_KNOB", "65536", 1);
  auto v = positive_env("CHASE_TEST_ENV_KNOB");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 65536);
  ::unsetenv("CHASE_TEST_ENV_KNOB");
}

TEST(PositiveEnv, SetGarbageThrows) {
  ::setenv("CHASE_TEST_ENV_KNOB", "soon", 1);
  EXPECT_THROW(positive_env("CHASE_TEST_ENV_KNOB"), ConfigError);
  ::setenv("CHASE_TEST_ENV_KNOB", "0", 1);
  EXPECT_THROW(positive_env("CHASE_TEST_ENV_KNOB"), ConfigError);
  ::unsetenv("CHASE_TEST_ENV_KNOB");
}

TEST(TextEnv, UnsetEmptyAndWhitespaceAreNullopt) {
  ::unsetenv("CHASE_TEST_ENV_TEXT");
  EXPECT_FALSE(text_env("CHASE_TEST_ENV_TEXT").has_value());
  ::setenv("CHASE_TEST_ENV_TEXT", "", 1);
  EXPECT_FALSE(text_env("CHASE_TEST_ENV_TEXT").has_value());
  ::setenv("CHASE_TEST_ENV_TEXT", "   ", 1);
  EXPECT_FALSE(text_env("CHASE_TEST_ENV_TEXT").has_value());
  ::unsetenv("CHASE_TEST_ENV_TEXT");
}

TEST(TextEnv, TrimsSurroundingWhitespace) {
  ::setenv("CHASE_TEST_ENV_TEXT", "  2x4@inter_us=30 ", 1);
  auto v = text_env("CHASE_TEST_ENV_TEXT");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "2x4@inter_us=30");
  ::unsetenv("CHASE_TEST_ENV_TEXT");
}

TEST(BooleanEnv, AcceptsEverySpellingAndTreatsEmptyAsUnset) {
  constexpr const char* kVar = "CHASE_TEST_ENV_BOOL";
  ::unsetenv(kVar);
  EXPECT_EQ(boolean_env(kVar), std::nullopt);
  ::setenv(kVar, "", 1);
  EXPECT_EQ(boolean_env(kVar), std::nullopt);
  for (const char* on : {"1", "true", "yes", "on", " on "}) {
    ::setenv(kVar, on, 1);
    EXPECT_EQ(boolean_env(kVar), true) << on;
  }
  for (const char* off : {"0", "false", "no", "off"}) {
    ::setenv(kVar, off, 1);
    EXPECT_EQ(boolean_env(kVar), false) << off;
  }
  ::unsetenv(kVar);
}

TEST(BooleanEnv, RejectsAnythingElseNamingTheVariable) {
  constexpr const char* kVar = "CHASE_TEST_ENV_BOOL";
  for (const char* bad : {"of", "2", "TRUE", "enabled"}) {
    ::setenv(kVar, bad, 1);
    try {
      (void)boolean_env(kVar);
      ADD_FAILURE() << bad << " accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(kVar), std::string::npos);
    }
  }
  ::unsetenv(kVar);
}

TEST(SplitList, SplitsAndTrimsTokens) {
  const auto toks = split_list(" a , b,c ", ',');
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0], "a");
  EXPECT_EQ(toks[1], "b");
  EXPECT_EQ(toks[2], "c");
}

TEST(SplitList, PreservesEmptyTokens) {
  // ",," must yield three empties so spec parsers can reject the malformed
  // entry by name instead of silently skipping it.
  const auto toks = split_list(",,");
  ASSERT_EQ(toks.size(), 3u);
  for (const auto& t : toks) EXPECT_TRUE(t.empty());
}

TEST(SplitList, AlternateSeparator) {
  const auto toks = split_list("2x4@inter_mbps=800@inter_us=30", '@');
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0], "2x4");
  EXPECT_EQ(toks[2], "inter_us=30");
}

TEST(RangedInt, AcceptsBoundsInclusive) {
  EXPECT_EQ(ranged_int("X", "0", 0, 8), 0);
  EXPECT_EQ(ranged_int("X", "8", 0, 8), 8);
  EXPECT_EQ(ranged_int("X", "-4", -8, 8), -4);
}

TEST(RangedInt, RejectsOutOfRangeAndGarbage) {
  EXPECT_THROW(ranged_int("X", "9", 0, 8), ConfigError);
  EXPECT_THROW(ranged_int("X", "-1", 0, 8), ConfigError);
  EXPECT_THROW(ranged_int("X", "", 0, 8), ConfigError);
  EXPECT_THROW(ranged_int("X", "2x", 0, 8), ConfigError);
  EXPECT_THROW(ranged_int("X", "fast", 0, 8), ConfigError);
}

TEST(RangedInt, ErrorNamesVariableTokenAndRange) {
  try {
    ranged_int("CHASE_TOPO", "4097", 0, 4096);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CHASE_TOPO"), std::string::npos) << what;
    EXPECT_NE(what.find("4097"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace chase::env
