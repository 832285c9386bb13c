// The micro-benchmark driver behind `chase_tune` (DESIGN.md §15).
//
// run_tuning() probes every implementation choice the runtime dispatches
// on — collective algorithms per message-size class and the pipelining
// chunk size — through the shared tune::measure warmup+repeat harness.
// Every probe lands in the profile's raw measurement log, and the tables
// are derived from that log.
//
// derive_selections() is a *pure function* of the measurement log (argmin
// seconds per class, first-measured wins ties, and the tuner emits probes
// in enum order). That is what makes CHASE_TUNE_REPLAY deterministic:
// replaying a persisted profile re-derives bit-identical tables from the
// recorded numbers without re-benchmarking.
#pragma once

#include <cstddef>
#include <vector>

#include "tune/profile.hpp"

namespace chase::tune {

struct TuneOptions {
  int warmup = 1;   // untimed runs per probe (CHASE_TUNE_WARMUP)
  int repeats = 3;  // timed runs per probe, best-of (CHASE_TUNE_REPS)
  int coll_ranks = 4;  // in-process team size for collective probes
                       // (CHASE_TUNE_RANKS)
  bool quick = false;  // CHASE_TUNE_QUICK=1: smaller representative sizes

  // Probe sizes; filled by with_defaults() from `quick` when left empty:
  // one representative payload per message class, three chunk sizes.
  std::vector<std::size_t> coll_bytes;
  std::vector<std::size_t> chunk_candidates;

  /// Copy with the empty size lists replaced by the built-in (quick or
  /// full) representative sizes.
  TuneOptions with_defaults() const;
};

/// TuneOptions from the CHASE_TUNE_* env knobs (typed: a set-but-invalid
/// value throws env::ConfigError naming the variable).
TuneOptions options_from_env();

/// Probe the machine and return a complete profile: local fingerprint, raw
/// measurement log, and the tables derived from it.
MachineProfile run_tuning(const TuneOptions& opts);

/// Deterministically derive the dispatch tables from a raw measurement log
/// (see the header comment). Rows of other domains — the gemm.* / factor.*
/// rate rows of older profiles — are skipped. Unmeasured classes stay
/// -1/unset.
perf::TunedTables derive_selections(
    const std::vector<RawMeasurement>& measurements);

}  // namespace chase::tune
