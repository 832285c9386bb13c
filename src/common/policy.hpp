// One runtime knob: a process-global value with an environment override.
//
// Every CHASE_* policy knob (collective algorithm and chunk size, precision,
// ABFT, checkpoint interval, watchdog timeout) is one Policy<V>:
//
//   * a built-in default — a constant in the knob's definition;
//   * one std::atomic override slot, filled from the knob's environment
//     variable at first use (through the knob's reader, which throws
//     env::ConfigError naming the variable on text it does not recognise)
//     or by pin();
//   * get() = the override when one is pinned, else the default.
//
// Domains with a machine-profile table (coll::algorithm_for,
// coll::chunk_bytes) read pinned() first, then their table, then
// fallback(): env/pin > profile > built-in default (DESIGN.md §15).
//
// The hot read is one relaxed atomic load; the environment is consulted
// only while the slot still holds the "unread" sentinel. pin() and
// ScopedPolicy never read it, so they cannot throw. ScopedPolicy saves and
// restores the raw slot, so nested guards restore the outer pin and a guard
// over an unpinned knob restores "not overridden".
//
// Policies are process-global: pin them on the main thread before spawning
// rank threads (Team::run), never from inside an SPMD region.
#pragma once

#include <atomic>
#include <climits>
#include <optional>
#include <type_traits>

namespace chase {

template <typename V>
class ScopedPolicy;

template <typename V>
class Policy {
 public:
  /// Reads and parses the knob's variable: nullopt when unset, ConfigError
  /// on unrecognised text.
  using Reader = std::optional<V> (*)(const char* var);

  constexpr Policy(const char* var, V fallback, Reader read)
      : var_(var), fallback_(fallback), read_(read) {}
  Policy(const Policy&) = delete;
  Policy& operator=(const Policy&) = delete;

  /// The pinned override, else the built-in default.
  V get() const { return pinned().value_or(fallback_); }

  /// The pinned override (environment or pin()); nullopt when none.
  std::optional<V> pinned() const {
    const long long raw = raw_slot();
    if (raw == kNone) return std::nullopt;
    return static_cast<V>(raw);
  }

  bool overridden() const { return raw_slot() != kNone; }

  /// Pin an explicit override process-wide (beats the environment and any
  /// machine profile).
  void pin(V v) { slot_.store(encode(v), std::memory_order_relaxed); }

  constexpr V fallback() const { return fallback_; }
  constexpr const char* var() const { return var_; }

 private:
  friend class ScopedPolicy<V>;

  static constexpr long long kUnread = LLONG_MIN;
  static constexpr long long kNone = LLONG_MIN + 1;

  static constexpr long long encode(V v) {
    if constexpr (requires { v.count(); }) {
      return static_cast<long long>(v.count());
    } else {
      return static_cast<long long>(v);
    }
  }

  long long raw_slot() const {
    const long long raw = slot_.load(std::memory_order_relaxed);
    return raw != kUnread ? raw : read_env();
  }

  // First read: parse the environment and publish it unless a concurrent
  // first read or pin() got there first. A ConfigError leaves the slot
  // unread, so every later use reports the same error.
  [[gnu::noinline]] long long read_env() const {
    const std::optional<V> v = read_(var_);
    long long raw = v ? encode(*v) : kNone;
    long long seen = kUnread;
    if (!slot_.compare_exchange_strong(seen, raw, std::memory_order_relaxed)) {
      raw = seen;
    }
    return raw;
  }

  const char* var_;
  V fallback_;
  Reader read_;
  mutable std::atomic<long long> slot_{kUnread};
};

/// Pins `policy` to a value for one scope, then restores the exact previous
/// slot state (another pin, or "not overridden").
template <typename V>
class ScopedPolicy {
 public:
  ScopedPolicy(Policy<V>& policy, std::type_identity_t<V> v)
      : policy_(policy), prev_(policy.slot_.load(std::memory_order_relaxed)) {
    policy_.pin(v);
  }
  ~ScopedPolicy() { policy_.slot_.store(prev_, std::memory_order_relaxed); }
  ScopedPolicy(const ScopedPolicy&) = delete;
  ScopedPolicy& operator=(const ScopedPolicy&) = delete;

 private:
  Policy<V>& policy_;
  long long prev_;
};

}  // namespace chase
