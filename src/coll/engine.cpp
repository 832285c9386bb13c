#include "coll/engine.hpp"

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <string>

#include "common/env.hpp"
#include "perf/cost_model.hpp"
#include "perf/machine.hpp"
#include "perf/tuned.hpp"

namespace chase::coll {

constinit Policy<Algorithm> algorithm_policy{
    "CHASE_COLL_ALGO", Algorithm::kNaive, [](const char* var) {
      return env::choice_env(var, parse_algorithm,
                             "naive | ring | tree | hier | auto");
    }};

constinit Policy<std::size_t> chunk_bytes_policy{
    "CHASE_COLL_CHUNK_BYTES", std::size_t(64) << 10,
    [](const char* var) -> std::optional<std::size_t> {
      if (const auto v = env::positive_env(var)) return std::size_t(*v);
      return std::nullopt;
    }};

namespace {

using perf::CollAlgo;

CollAlgo cheapest(perf::CollKind kind, std::size_t bytes, int nranks,
                  perf::Backend backend, const perf::TopoInfo& topo,
                  std::initializer_list<CollAlgo> candidates) {
  const perf::MachineModel model{};  // the built-in rates
  const std::size_t chunk = chunk_bytes();
  CollAlgo best = CollAlgo::kNaiveAlgo;
  double best_cost = std::numeric_limits<double>::infinity();
  for (CollAlgo a : candidates) {
    const double cost = perf::coll_algo_seconds(model, backend, kind, a, bytes,
                                                nranks, chunk, topo);
    if (cost < best_cost) {
      best_cost = cost;
      best = a;
    }
  }
  return best;
}

/// The flat chunk-channel algorithm of the ring family for `kind`.
CollAlgo ring_family(perf::CollKind kind) {
  return kind == perf::CollKind::kBroadcast ? CollAlgo::kBinomial
                                            : CollAlgo::kRingAlgo;
}

}  // namespace

std::string_view algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kRing:
      return "ring";
    case Algorithm::kTree:
      return "tree";
    case Algorithm::kHier:
      return "hier";
    case Algorithm::kAuto:
      return "auto";
    case Algorithm::kNaive:
    default:
      return "naive";
  }
}

std::optional<Algorithm> parse_algorithm(std::string_view name) {
  if (name == "naive") return Algorithm::kNaive;
  if (name == "ring") return Algorithm::kRing;
  if (name == "tree") return Algorithm::kTree;
  if (name == "hier") return Algorithm::kHier;
  if (name == "auto") return Algorithm::kAuto;
  return std::nullopt;
}

Algorithm algorithm_for(perf::CollKind kind, std::size_t bytes) {
  if (const auto pinned = algorithm_policy.pinned()) return *pinned;
  if (const perf::TunedTables* t = perf::tuned_tables()) {
    const int tuned = t->coll_algo[int(kind)][int(perf::msg_class(bytes))];
    if (tuned >= 0) return Algorithm(tuned);
  }
  return algorithm_policy.fallback();
}

std::size_t chunk_bytes() {
  if (const auto pinned = chunk_bytes_policy.pinned()) {
    return std::max<std::size_t>(*pinned, 1);
  }
  if (const perf::TunedTables* t = perf::tuned_tables()) {
    if (t->chunk_bytes > 0) return std::size_t(t->chunk_bytes);
  }
  return chunk_bytes_policy.fallback();
}

CollAlgo select(perf::CollKind kind, std::size_t bytes, int nranks,
                perf::Backend backend) {
  return select(kind, bytes, nranks, backend, perf::TopoInfo{});
}

CollAlgo select(perf::CollKind kind, std::size_t bytes, int nranks,
                perf::Backend backend, const perf::TopoInfo& topo) {
  if (nranks <= 1) return CollAlgo::kNaiveAlgo;
  const bool grouped = topo.grouped();
  switch (algorithm_for(kind, bytes)) {
    case Algorithm::kNaive:
      return CollAlgo::kNaiveAlgo;
    case Algorithm::kRing:
      return ring_family(kind);
    case Algorithm::kTree:
      switch (kind) {
        case perf::CollKind::kAllReduce:
          return CollAlgo::kRabenseifner;
        case perf::CollKind::kAllGather:
          return CollAlgo::kBruck;
        case perf::CollKind::kBroadcast:
        default:
          return CollAlgo::kBinomial;
      }
    case Algorithm::kHier:
      // Explicit two-level policy; degrades to the flat ring family when the
      // communicator spans a single group (or a non-contiguous one).
      return grouped ? CollAlgo::kHierAlgo : ring_family(kind);
    case Algorithm::kAuto:
    default:
      switch (kind) {
        case perf::CollKind::kAllReduce:
          return grouped
                     ? cheapest(kind, bytes, nranks, backend, topo,
                                {CollAlgo::kNaiveAlgo, CollAlgo::kRingAlgo,
                                 CollAlgo::kRabenseifner, CollAlgo::kHierAlgo})
                     : cheapest(kind, bytes, nranks, backend, topo,
                                {CollAlgo::kNaiveAlgo, CollAlgo::kRingAlgo,
                                 CollAlgo::kRabenseifner});
        case perf::CollKind::kAllGather:
          return grouped
                     ? cheapest(kind, bytes, nranks, backend, topo,
                                {CollAlgo::kNaiveAlgo, CollAlgo::kRingAlgo,
                                 CollAlgo::kBruck, CollAlgo::kHierAlgo})
                     : cheapest(kind, bytes, nranks, backend, topo,
                                {CollAlgo::kNaiveAlgo, CollAlgo::kRingAlgo,
                                 CollAlgo::kBruck});
        case perf::CollKind::kBroadcast:
        default:
          return grouped
                     ? cheapest(kind, bytes, nranks, backend, topo,
                                {CollAlgo::kNaiveAlgo, CollAlgo::kBinomial,
                                 CollAlgo::kHierAlgo})
                     : cheapest(kind, bytes, nranks, backend, topo,
                                {CollAlgo::kNaiveAlgo, CollAlgo::kBinomial});
      }
  }
}

std::vector<CollPhase> hier_phases(perf::CollKind kind, std::size_t bytes,
                                   int nranks, const perf::TopoInfo& topo) {
  std::vector<CollPhase> out;
  const int M = topo.nodes;
  const int per = topo.max_per_node;
  switch (kind) {
    case perf::CollKind::kAllReduce:
      // Two-level decomposition: fold within the fast group, exchange the
      // folded block among leaders, fan the result back out.
      if (per > 1) out.push_back({perf::CollKind::kAllReduce, bytes, per});
      if (M > 1) out.push_back({perf::CollKind::kAllReduce, bytes, M});
      if (per > 1) out.push_back({perf::CollKind::kBroadcast, bytes, per});
      break;
    case perf::CollKind::kAllGather: {
      // `bytes` is the total gathered payload; one node's block is the
      // per-group share the intra phase assembles.
      const std::size_t node_bytes =
          nranks > 0 ? bytes / std::size_t(nranks) * std::size_t(per) : bytes;
      if (per > 1) out.push_back({perf::CollKind::kAllGather, node_bytes, per});
      if (M > 1) out.push_back({perf::CollKind::kAllGather, bytes, M});
      if (per > 1 && M > 1 && bytes > node_bytes) {
        out.push_back(
            {perf::CollKind::kBroadcast, bytes - node_bytes, per});
      }
      break;
    }
    case perf::CollKind::kBroadcast:
    default:
      if (M > 1) out.push_back({perf::CollKind::kBroadcast, bytes, M});
      if (per > 1) out.push_back({perf::CollKind::kBroadcast, bytes, per});
      break;
  }
  return out;
}

std::vector<CollPhase> routine_phases(perf::CollKind kind, CollAlgo algo,
                                      std::size_t bytes, int nranks,
                                      const perf::TopoInfo& topo) {
  if (algo == CollAlgo::kHierAlgo) {
    return hier_phases(kind, bytes, nranks, topo);
  }
  return {{kind, bytes, nranks}};
}

void account_phases(perf::Tracker* t, perf::Backend backend,
                    const std::vector<CollPhase>& phases) {
  if (t == nullptr) return;
  bool close_bracket = true;
  for (const auto& p : phases) {
    if (p.nranks <= 1) continue;
    const std::size_t local = p.kind == perf::CollKind::kAllGather
                                  ? p.bytes / std::size_t(p.nranks)
                                  : p.bytes;
    if (backend == perf::Backend::kStdGpu) t->record_memcpy(local, false);
    if (close_bracket) {
      t->end_collective(p.kind, p.bytes, p.nranks);
      close_bracket = false;
    } else {
      t->record_collective(p.kind, p.bytes, p.nranks);
    }
    if (backend == perf::Backend::kStdGpu) t->record_memcpy(p.bytes, true);
  }
}

}  // namespace chase::coll
