// Collective-safe error propagation across the ranks of a Team.
//
// The problem: in an SPMD region an invariant violation on one rank used to
// be unrecoverable — throwing would leave sibling ranks blocked forever in a
// barrier, so every such site called std::abort() and killed the process.
//
// The mechanism here makes failure a first-class, recoverable event:
//
//   * every communicator tree (a Team's world plus all of its split
//     children) shares one ErrorState — the per-team error slot;
//   * the first rank to fail records a RankError (rank / site / message)
//     and *poisons* the state;
//   * every barrier arrival and wait checks the poison flag ("poisoned
//     barrier"): sibling ranks unblock at their next synchronization point
//     and raise TeamAborted locally instead of waiting for a peer that will
//     never arrive;
//   * barrier waits carry a watchdog timeout, so a rank that dies *outside*
//     any collective (and therefore never records anything) is still
//     detected: the longest-waiting sibling records a barrier.watchdog
//     error and poisons the team;
//   * Team::run joins all rank threads, then rethrows the *originating*
//     rank's error as TeamAborted with full context. The process survives
//     and a fresh Team can run afterwards.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/policy.hpp"

namespace chase::comm {

/// What went wrong, where, and on which rank — the context Team::run
/// rethrows after joining the team.
struct RankError {
  int rank = -1;
  std::string site;     // e.g. "rank.die", "barrier.watchdog", "rank.exception"
  std::string message;  // human-readable detail (original what() for exceptions)
};

/// Raised on every rank of a poisoned team: on sibling ranks when they hit
/// their next synchronization point, and from Team::run after join. Derives
/// from Error so existing catch sites keep working.
class TeamAborted : public Error {
 public:
  explicit TeamAborted(RankError e) : Error(format(e)), error_(std::move(e)) {}
  const RankError& error() const { return error_; }

  static std::string format(const RankError& e) {
    std::ostringstream os;
    os << "team aborted: rank " << e.rank << " failed at '" << e.site << "'";
    if (!e.message.empty()) os << ": " << e.message;
    return os.str();
  }

 private:
  RankError error_;
};

/// Per-team error slot shared by a world communicator and all communicators
/// split from it. First recorded error wins; recording poisons the team and
/// wakes every barrier registered with the state.
class ErrorState {
 public:
  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }

  /// Record `e` if no error is recorded yet (first failure wins), poison the
  /// team either way, and wake all registered barrier waiters. Returns true
  /// if this call installed the error.
  bool record(RankError e) {
    std::lock_guard<std::mutex> lock(mutex_);
    const bool installed = !error_.has_value();
    if (installed) error_ = std::move(e);
    poisoned_.store(true, std::memory_order_release);
    for (auto* cv : waiters_) cv->notify_all();
    return installed;
  }

  /// The originating error; only meaningful once poisoned.
  RankError error() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return error_.value_or(RankError{-1, "unknown", "team poisoned"});
  }

  /// Throw TeamAborted carrying the originating error.
  [[noreturn]] void raise() const { throw TeamAborted(error()); }

  /// Barriers register their condition variable so a poisoning rank can wake
  /// waiters on *any* communicator of the team immediately (waiters also
  /// poll, so a missed notification only costs one poll interval).
  void register_waiter(std::condition_variable* cv) {
    std::lock_guard<std::mutex> lock(mutex_);
    waiters_.push_back(cv);
  }
  void unregister_waiter(std::condition_variable* cv) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::erase(waiters_, cv);
  }

 private:
  mutable std::mutex mutex_;
  std::optional<RankError> error_;
  std::atomic<bool> poisoned_{false};
  std::vector<std::condition_variable*> waiters_;
};

/// Watchdog timeout for barrier waits: CHASE_WATCHDOG_MS (or its original
/// name CHASE_BARRIER_TIMEOUT_MS). The default, 120 s, is deliberately
/// generous (legitimate waits cover whatever imbalanced compute siblings are
/// doing); fault-tolerance tests lower it with ScopedPolicy.
extern Policy<std::chrono::milliseconds> watchdog_policy;

}  // namespace chase::comm
