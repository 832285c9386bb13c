// The micro-benchmark driver behind `chase_tune` (DESIGN.md §15).
//
// run_tuning() probes every implementation choice the runtime dispatches
// on — collective algorithms per message-size class and the pipelining
// chunk size — plus the dense-kernel rates that calibrate the selection
// MachineModel (double and float GEMM, the POTRF+TRSM factorization
// composite), all through the shared tune::measure warmup+repeat harness.
// Every probe lands in the profile's raw measurement log, and the tables
// are derived from that log.
//
// derive_selections() is a *pure function* of the measurement log (argmin
// seconds per class, first-measured wins ties, and the tuner emits probes
// in enum order; each rate is the best row at the largest probed size).
// That is what makes CHASE_TUNE_REPLAY deterministic: replaying a
// persisted profile re-derives bit-identical tables from the recorded
// numbers without re-benchmarking.
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
  bool skip_collectives = false;  // rate probes only (unit tests)

  // Problem sizes; filled by with_defaults() from `quick` when left empty.
  // The rates come from the largest GEMM / factor size, so the defaults
  // probe that one size; collectives get one representative per class.
  std::vector<long long> gemm_sizes;
  std::vector<long long> factor_sizes;
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

/// Deterministically derive the dispatch tables and rates from a raw
/// measurement log (see the header comment). Unmeasured classes stay
/// -1/unset.
perf::TunedTables derive_selections(
    const std::vector<RawMeasurement>& measurements);

}  // namespace chase::tune
