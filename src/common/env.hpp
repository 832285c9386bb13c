// Validated parsing of the CHASE_* environment knobs.
//
// The runtime knobs (CHASE_COLL_CHUNK_BYTES, CHASE_CKPT_INTERVAL,
// CHASE_WATCHDOG_MS, ...) used to be read with atoll/atoi, which silently
// parse garbage to 0 and then fall back to the default — a misspelled value
// like "64kb" or an accidental "0" was indistinguishable from "unset". All
// numeric knobs now go through env::positive_env: a set-but-invalid value
// (non-numeric, trailing junk, zero, negative, overflow) throws ConfigError
// naming the variable and the offending text, so a misconfigured process
// fails loudly at the first use of the knob instead of quietly running with
// defaults.
//
// Enum and boolean knobs (CHASE_COLL_ALGO, CHASE_ABFT, ...) go through
// choice_env/boolean_env under the same contract: unknown text throws.
//
// Structured knobs (CHASE_TOPO's "2x4@inter_mbps=800" spec,
// CHASE_FAULT_INJECT's "site@rank@iter=k:times,..." list) build on the same
// contract through split_list/ranged_int: every token of a set variable must
// parse, and every failure names the variable and the offending token.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"

namespace chase::env {

/// Typed configuration error: a CHASE_* variable is set to a value that
/// cannot mean what the operator intended. Derives from chase::Error so the
/// collective-safe propagation (poisoned barriers, TeamAborted) applies
/// unchanged when the first read happens inside a rank thread.
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error(what) {}
};

/// Throw ConfigError for variable `name` set to `text`, with `why` and the
/// expectation spelled out: NAME="text": why (expected <expected>).
[[noreturn]] void reject(const char* name, std::string_view text,
                         const std::string& why, const std::string& expected);

/// Parse `text` as a strictly positive integer. Throws ConfigError (naming
/// `name`) on empty text, non-numeric text, trailing junk ("64kb"), zero,
/// negative values, or overflow.
long long positive_int(const char* name, const char* text);

/// getenv(name) through positive_int. Unset returns nullopt; set-but-empty
/// counts as unset (the conventional way to neutralize an exported knob);
/// anything else must parse as a strictly positive integer or ConfigError
/// is thrown.
std::optional<long long> positive_env(const char* name);

/// getenv(name) as text. Unset and set-but-empty both return nullopt;
/// surrounding whitespace is trimmed.
std::optional<std::string> text_env(const char* name);

/// getenv(name) as a boolean: 1|true|yes|on and 0|false|no|off. Unset and
/// set-but-empty return nullopt; any other text throws ConfigError naming
/// the variable.
std::optional<bool> boolean_env(const char* name);

/// getenv(name) as one of a fixed set of names: `parse` maps the trimmed
/// text to a value. Unset and set-but-empty return nullopt; text `parse`
/// rejects throws ConfigError naming the variable and listing `expected`.
template <typename V>
std::optional<V> choice_env(const char* name,
                            std::optional<V> (*parse)(std::string_view),
                            const char* expected) {
  const std::optional<std::string> text = text_env(name);
  if (!text) return std::nullopt;
  if (const std::optional<V> v = parse(*text)) return v;
  reject(name, *text, "unknown value", expected);
}

/// Split `text` on `sep`, trimming surrounding whitespace from each token.
/// Empty tokens are preserved (",," yields three empties) so spec parsers
/// can reject them with a message naming the variable instead of silently
/// skipping a malformed entry.
std::vector<std::string> split_list(std::string_view text, char sep = ',');

/// Parse `token` (one element of variable `name`) as an integer in
/// [lo, hi]. Throws ConfigError naming the variable, the token, and the
/// accepted range on empty/non-numeric/trailing-junk/overflow/out-of-range
/// input.
long long ranged_int(const char* name, std::string_view token, long long lo,
                     long long hi);

}  // namespace chase::env
