#include "tune/runtime.hpp"

#include <mutex>
#include <string>

#include "coll/engine.hpp"
#include "common/env.hpp"
#include "perf/tracker.hpp"
#include "perf/tuned.hpp"
#include "tune/profile.hpp"
#include "tune/tuner.hpp"

namespace chase::tune {

namespace {

struct RuntimeState {
  std::mutex mu;
  bool resolved = false;
};

RuntimeState& state() {
  static RuntimeState s;
  return s;
}

void bump(const char* counter) {
  if (auto* t = perf::thread_tracker()) t->bump(counter, 1.0);
}

void load_and_install(const std::string& path, bool replay) {
  std::string error;
  auto profile = load_profile(path, &error);
  if (!profile) {
    bump("tune.profile.rejected");
    return;
  }
  if (replay) {
    // Deterministic replay: selections are a pure function of the recorded
    // measurement log, so re-deriving them here reproduces exactly what the
    // tuner persisted — without re-benchmarking.
    profile->tables = derive_selections(profile->measurements);
  }
  if (!install_profile(*profile)) {
    // install_profile bumped tune.profile.rejected (fingerprint mismatch).
    return;
  }
}

// One provenance bump for a policy domain: explicit override > profile
// entry > default.
void bump_domain(bool overridden, bool profiled) {
  if (overridden) {
    bump("tune.source.env");
  } else if (profiled) {
    bump("tune.source.profile");
  } else {
    bump("tune.source.default");
  }
}

bool any_coll_entry(const perf::TunedTables& t) {
  for (const auto& row : t.coll_algo) {
    for (const int v : row) {
      if (v >= 0) return true;
    }
  }
  return false;
}

}  // namespace

void ensure_profile_from_env() {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.resolved) return;
  s.resolved = true;
  if (const auto replay = env::text_env("CHASE_TUNE_REPLAY")) {
    load_and_install(*replay, /*replay=*/true);
  } else if (const auto path = env::text_env("CHASE_PROFILE")) {
    load_and_install(*path, /*replay=*/false);
  }
}

void record_provenance() {
  if (perf::thread_tracker() == nullptr) return;
  const perf::TunedTables* t = perf::tuned_tables();
  bump_domain(coll::algorithm_policy.overridden(),
              t != nullptr && any_coll_entry(*t));
  bump_domain(coll::chunk_bytes_policy.overridden(),
              t != nullptr && t->chunk_bytes > 0);
}

void resolve_at_solve_start() {
  ensure_profile_from_env();
  record_provenance();
}

void reset_runtime_for_testing() {
  auto& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.resolved = false;
  uninstall_profile();
}

}  // namespace chase::tune
