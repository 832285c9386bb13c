// Algorithm policy for the collective engine.
//
// Mirrors the paper's MPI -> NCCL switch: the naive publish-and-sync path
// stands in for the single-shot MPI collective, while the chunked channel
// algorithms (ring / Rabenseifner / bruck / binomial / hierarchical,
// src/coll) reproduce the algorithmic side of NCCL. The policy is
// process-global:
//
//   CHASE_COLL_ALGO = naive | ring | tree | hier | auto   (default: naive;
//       an unknown value throws env::ConfigError at first use)
//   CHASE_COLL_CHUNK_BYTES = pipelining granularity (default 64 KiB)
//
// `auto` picks per call by minimizing the extended alpha-beta-gamma cost
// model (perf::coll_algo_seconds) over the available routines — the
// in-process analogue of NCCL's protocol/algorithm autotuner. With a
// grouped topology (CHASE_TOPO, src/comm/topology.hpp) the per-link-class
// prices let `auto` choose the two-level hierarchical routines exactly when
// the slow cross-group links make them win.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "common/policy.hpp"
#include "perf/backend.hpp"
#include "perf/cost_model.hpp"
#include "perf/tracker.hpp"

namespace chase::coll {

enum class Algorithm : int { kNaive = 0, kRing, kTree, kHier, kAuto };

std::string_view algorithm_name(Algorithm a);
std::optional<Algorithm> parse_algorithm(std::string_view name);

/// CHASE_COLL_ALGO: the process-wide override (default naive). Overrides
/// beat any loaded machine profile (the autotuner contract, DESIGN.md §15).
/// Size-oblivious; the dispatcher uses algorithm_for().
extern Policy<Algorithm> algorithm_policy;

/// Size-aware policy for one collective call: override > per-(kind,
/// message-size-class) machine-profile entry (perf::tuned_tables()) >
/// built-in default. `bytes` follows the Tracker convention.
Algorithm algorithm_for(perf::CollKind kind, std::size_t bytes);

/// CHASE_COLL_CHUNK_BYTES: the process-wide pipelining-granularity override
/// (default 64 KiB).
extern Policy<std::size_t> chunk_bytes_policy;

/// Pipelining granularity in bytes (>= 1): override > machine-profile
/// chunk_bytes > built-in 64 KiB default.
std::size_t chunk_bytes();

/// Pick the concrete algorithm for one collective call; together with the
/// collective kind the caller already knows, it names the routine the
/// dispatcher runs (coll/dispatch.hpp). `bytes` follows the Tracker
/// convention (per-rank payload for reduce/broadcast, total gathered buffer
/// for allgather). The hierarchical routines are candidates exactly when
/// `topo` is grouped, and every candidate is priced with the per-link-class
/// cost model. All inputs are rank-identical across a communicator, so every
/// rank of an SPMD region picks the same routine.
perf::CollAlgo select(perf::CollKind kind, std::size_t bytes, int nranks,
                      perf::Backend backend, const perf::TopoInfo& topo);

/// One phase of a multi-phase (hierarchical) routine, in Tracker event
/// terms: what ran, how many bytes it carried, over how many ranks.
struct CollPhase {
  perf::CollKind kind;
  std::size_t bytes;
  int nranks;
};

/// The per-phase event decomposition of a hierarchical routine on a
/// `nranks`-rank communicator spanning `topo.nodes` groups of at most
/// `topo.max_per_node` ranks. Both the real dispatcher and the analytic
/// model (chase_model) emit events from this one function, so the
/// byte/step accounting of the projections matches the runtime exactly.
/// `bytes` follows the Tracker convention for `kind`.
std::vector<CollPhase> hier_phases(perf::CollKind kind, std::size_t bytes,
                                   int nranks, const perf::TopoInfo& topo);

/// The Tracker events of one collective run with `algo`: the per-phase
/// decomposition (hier_phases) for the hierarchical algorithm, the single
/// flat phase otherwise.
std::vector<CollPhase> routine_phases(perf::CollKind kind, perf::CollAlgo algo,
                                      std::size_t bytes, int nranks,
                                      const perf::TopoInfo& topo);

/// Record `phases` on `t` (no-op when null). The first phase closes the
/// begin_collective() bracket the caller opened (end_collective); the
/// remaining phases are plain record_collective() events. On the STD
/// backend each phase additionally stages its payload over PCIe (D2H
/// before, H2D after), mirroring what a host-staged multi-phase collective
/// really moves.
void account_phases(perf::Tracker* t, perf::Backend backend,
                    const std::vector<CollPhase>& phases);

}  // namespace chase::coll
