// Versioned, per-machine autotuning profile (DESIGN.md §15).
//
// A MachineProfile is what `chase_tune` persists and what CHASE_PROFILE
// loads at solve start: the machine fingerprint the measurements were taken
// on, the raw measurement log (every algorithm and chunk size probed, so
// selections can be re-derived deterministically without re-benchmarking —
// CHASE_TUNE_REPLAY), and the derived dispatch tables in the low-level
// perf::TunedTables form the policy layers consume.
//
// The JSON wire format is schema- and version-checked:
//
//   {"schema": "chase.machine_profile", "version": 1,
//    "fingerprint": {"host": "...", "cpu": "...", "threads": N},
//    "measurements": [{"name": "coll.allreduce.b16384.p2.ring",
//                      "value": 1.2e-5, "unit": "s"}, ...],
//    "tables": {"coll_algo":     [{"kind": "allreduce", "msgclass": "small",
//                                  "algo": "ring"}, ...],
//               "chunk_bytes": 65536}}
//
// decode_profile rejects unknown schemas, future versions, and malformed
// documents outright (the caller falls back to built-in defaults and bumps
// "tune.profile.rejected"); unknown *enum names* inside the tables merely
// leave that entry untuned, so a profile written by a newer build with more
// algorithms still loads on an older one. The "gemm_kernel",
// "factor_kernel" and "rates" tables of older version-1 profiles are
// ignored.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "perf/tuned.hpp"

namespace chase::tune {

inline constexpr const char* kProfileSchema = "chase.machine_profile";
inline constexpr int kProfileVersion = 1;

/// Identity of the machine a profile was measured on. Tuned tables are
/// meaningless on different hardware, so install is gated on a match.
struct Fingerprint {
  std::string host;
  std::string cpu;
  int threads = 0;

  bool matches(const Fingerprint& other) const {
    return host == other.host && cpu == other.cpu &&
           threads == other.threads;
  }
};

/// Fingerprint of the machine this process runs on (hostname, the
/// /proc/cpuinfo model name when readable, hardware_concurrency).
Fingerprint local_fingerprint();

/// One raw tuner measurement, e.g. {"coll.allreduce.b16384.p2.ring", 1.2e-5,
/// "s"}.
struct RawMeasurement {
  std::string name;
  double value = 0;
  std::string unit;
};

struct MachineProfile {
  Fingerprint fingerprint;
  std::vector<RawMeasurement> measurements;
  perf::TunedTables tables;
};

/// Serialize to the versioned JSON document above.
std::string encode_profile(const MachineProfile& p);

/// Parse and schema-check one JSON document. On failure returns nullopt and
/// (when `error` is non-null) a one-line reason.
std::optional<MachineProfile> decode_profile(std::string_view text,
                                             std::string* error = nullptr);

/// File round-trip of encode/decode.
bool save_profile(const MachineProfile& p, const std::string& path,
                  std::string* error = nullptr);
std::optional<MachineProfile> load_profile(const std::string& path,
                                           std::string* error = nullptr);

/// Install `p` process-wide: publish its dispatch tables
/// (perf::set_tuned_tables). Skips (returns false, bumps
/// "tune.profile.rejected") when `check_fingerprint` and the profile was
/// measured elsewhere.
bool install_profile(const MachineProfile& p, bool check_fingerprint = true);

/// Remove any installed tables: consumers fall back to built-in defaults.
void uninstall_profile();

}  // namespace chase::tune
