// Tuned dispatch tables: the low-level, dependency-free representation of a
// loaded machine profile (src/tune).
//
// The autotuner benchmarks the collective algorithms and pipelining chunk
// sizes and persists the winners per message-size class (DBCSR-style: tune
// once per machine, dispatch from the table at runtime). The coll layer
// cannot depend on src/tune (tune drives it), so the *data* lives here in
// perf — plain ints keyed by the class enum below, with the translation to
// coll::Algorithm done by the consumer, and the installation done by
// tune::install_profile().
//
// Precedence contract (enforced by each consumer): an explicit override
// (the CHASE_* env var or a ScopedPolicy pin) always wins; otherwise a
// loaded profile's table entry; otherwise the built-in default. A process
// that never loads a profile sees every entry unset and behaves exactly as
// before the autotuner existed.
#pragma once

#include <atomic>
#include <cstddef>

#include "perf/tracker.hpp"

namespace chase::perf {

// --- the size class the tuned tables are keyed by ---

/// Collective message-size class (bytes follow the Tracker convention:
/// per-rank payload for reduce/broadcast, total gathered for allgather).
enum class MsgClass : int { kSmallMsg = 0, kMediumMsg, kLargeMsg, kCount_ };
inline constexpr int kMsgClassCount = int(MsgClass::kCount_);

const char* msg_class_name(MsgClass c);
MsgClass msg_class(std::size_t bytes);

// --- the tables themselves ---

/// One loaded profile's dispatch tables. Entries are the *int value* of
/// coll::Algorithm; -1 means "no tuned entry, fall through to the default".
struct TunedTables {
  int coll_algo[kCollKindCount][kMsgClassCount];
  long long chunk_bytes = 0;  // 0 = unset

  TunedTables() {
    for (auto& row : coll_algo) {
      for (int& v : row) v = -1;
    }
  }

  bool operator==(const TunedTables&) const = default;
};

/// The process-global tuned tables, or null when no profile is installed.
/// One acquire load — cheap enough for the per-call collective
/// dispatchers. The returned pointer stays valid for the process lifetime
/// (installed tables are kept, never freed).
const TunedTables* tuned_tables();

/// Publish `t` as the process-global tables (release semantics). A kept
/// copy equal to `t` is republished; otherwise a new copy is kept. Copies
/// are never freed, so concurrent readers stay safe, and a process that
/// reloads the same profiles allocates once per distinct table.
void set_tuned_tables(const TunedTables& t);

/// Remove the installed tables; consumers fall back to built-in defaults.
void clear_tuned_tables();

}  // namespace chase::perf
