// Solve-start profile resolution and provenance (DESIGN.md §15).
//
// core::solve / core::solve_lms call resolve_at_solve_start() on entry:
//
//   1. Once per process, the CHASE_PROFILE / CHASE_TUNE_REPLAY env knobs are
//      resolved: the named profile is loaded, schema/fingerprint-checked and
//      installed (tune::install_profile). A rejected profile — unreadable,
//      corrupt, wrong version, wrong machine — bumps "tune.profile.rejected"
//      and the process falls back to built-in defaults; it never aborts a
//      solve. CHASE_TUNE_REPLAY additionally re-derives the dispatch tables
//      from the profile's recorded measurement log (tune::derive_selections)
//      instead of trusting the stored tables — the deterministic-replay
//      contract.
//   2. Per solve, per tunable policy domain (coll / chunk), one
//      provenance counter is bumped on the calling thread's tracker:
//      "tune.source.env" when an explicit override is pinned,
//      "tune.source.profile" when a loaded profile supplies the entry,
//      "tune.source.default" otherwise — so a perf report always says where
//      the policies that shaped it came from.
#pragma once

namespace chase::tune {

/// Process-once env resolution (step 1 above). Idempotent and thread-safe;
/// exposed separately so the C API and tests can force it.
void ensure_profile_from_env();

/// Bump the per-domain provenance counters on the calling thread's tracker
/// (no-op without a tracker).
void record_provenance();

/// Both steps; called by the solver drivers at solve start.
void resolve_at_solve_start();

/// Test hook: forget that env resolution ran (so the next
/// ensure_profile_from_env() re-reads CHASE_PROFILE / CHASE_TUNE_REPLAY)
/// and uninstall any loaded profile.
void reset_runtime_for_testing();

}  // namespace chase::tune
