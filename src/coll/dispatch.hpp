// Dispatch glue: defines Communicator's collective member templates on top
// of the src/coll engine. Included at the end of comm/communicator.hpp
// (which owns the class definition and the naive publish-and-sync bodies);
// everything here routes one call to either the naive reference or a chunk
// channel algorithm, wrapped in the same perf accounting and fault-injection
// hooks either way. Every call selects its algorithm afresh (coll::select)
// and runs it to completion before returning; the perf::CollAlgo -> routine
// mapping of each collective kind is written once, in the entry point of
// that kind below.
#pragma once

#ifndef CHASE_COMM_COMMUNICATOR_INCLUDED
#error "coll/dispatch.hpp is glue for comm/communicator.hpp; include that"
#endif

#include <vector>

#include "coll/algorithms.hpp"
#include "coll/engine.hpp"
#include "coll/hierarchy.hpp"

namespace chase::comm {

namespace detail {

inline Index coll_chunk_elems(std::size_t elem_size) {
  return std::max<Index>(1, Index(coll::chunk_bytes() / elem_size));
}

/// Receive offsets of an equal-count allgather: block r at r * count.
inline std::vector<Index> uniform_displs(int nranks, Index count) {
  std::vector<Index> displs((std::size_t(nranks)));
  for (int i = 0; i < nranks; ++i) displs[std::size_t(i)] = Index(i) * count;
  return displs;
}

/// Tracker events of one channel routine: one event per phase of a
/// hierarchical routine, attributed to the communicator each phase ran over,
/// and a single event otherwise. The first event closes the
/// begin_collective() bracket the caller opened.
inline void account_routine(const Communicator& comm, perf::CollKind kind,
                            perf::CollAlgo algo, std::size_t bytes) {
  perf::Tracker* t = perf::thread_tracker();
  if (t == nullptr) return;
  coll::account_phases(t, comm.backend(),
                       coll::routine_phases(kind, algo, bytes, comm.size(),
                                            comm.topo_info()));
}

}  // namespace detail

template <typename T>
void Communicator::all_reduce(T* data, Index count, Reduction op) const {
  if (size() == 1) {
    detail::corrupt_reduced(data, count);
    return;
  }
  const std::size_t bytes = std::size_t(std::max<Index>(count, 0)) * sizeof(T);
  const perf::CollAlgo algo = coll::select(perf::CollKind::kAllReduce, bytes,
                                           size(), backend_, topo_info());
  if (algo == perf::CollAlgo::kNaiveAlgo) {
    naive_all_reduce(data, count, op);
    return;
  }
  fault::check("rank.die");
  account_begin();
  const std::uint64_t seq = next_collective_seq();
  if (count > 0) {
    const Index ce = detail::coll_chunk_elems(sizeof(T));
    switch (algo) {
      case perf::CollAlgo::kHierAlgo:
        coll::hier_all_reduce(*this, data, count, op, ce, seq);
        break;
      case perf::CollAlgo::kRingAlgo:
        coll::ordered_ring_all_reduce(*this, data, count, op, ce, seq);
        break;
      default:  // kRabenseifner
        coll::rabenseifner_all_reduce(*this, data, count, op, ce, seq);
        break;
    }
  }
  detail::corrupt_reduced(data, count);
  detail::account_routine(*this, perf::CollKind::kAllReduce, algo, bytes);
}

template <typename T>
void Communicator::broadcast(T* data, Index count, int root) const {
  if (size() == 1) return;
  CHASE_CHECK_MSG(root >= 0 && root < size(), "broadcast root out of range");
  const std::size_t bytes = std::size_t(std::max<Index>(count, 0)) * sizeof(T);
  const perf::CollAlgo algo = coll::select(perf::CollKind::kBroadcast, bytes,
                                           size(), backend_, topo_info());
  if (algo == perf::CollAlgo::kNaiveAlgo) {
    naive_broadcast(data, count, root);
    return;
  }
  fault::check("rank.die");
  account_begin();
  const std::uint64_t seq = next_collective_seq();
  if (count > 0) {
    const Index ce = detail::coll_chunk_elems(sizeof(T));
    if (algo == perf::CollAlgo::kHierAlgo) {
      coll::hier_broadcast(*this, data, count, root, ce, seq);
    } else {  // kBinomial
      coll::binomial_broadcast(*this, data, count, root, ce, seq);
    }
  }
  detail::account_routine(*this, perf::CollKind::kBroadcast, algo, bytes);
}

template <typename T>
void Communicator::all_gather(const T* send, Index count, T* recv) const {
  const std::size_t local_bytes = std::size_t(std::max<Index>(count, 0)) *
                                  sizeof(T);
  const std::size_t total_bytes = std::size_t(size()) * local_bytes;
  const perf::CollAlgo algo = coll::select(
      perf::CollKind::kAllGather, total_bytes, size(), backend_, topo_info());
  if (size() == 1 || algo == perf::CollAlgo::kNaiveAlgo) {
    naive_all_gather(send, count, recv);
    return;
  }
  fault::check("rank.die");
  const Index ce = detail::coll_chunk_elems(sizeof(T));
  if (algo == perf::CollAlgo::kHierAlgo) {
    // Collective group construction (two split() calls) stays outside the
    // perf bracket; it happens once per communicator.
    const auto& group = hier_group();
    account_begin();
    if (count > 0) {
      coll::hier_all_gather_v(
          *this, group, send, recv,
          std::vector<Index>(std::size_t(size()), count),
          detail::uniform_displs(size(), count), ce);
    }
  } else {
    account_begin();
    const std::uint64_t seq = next_collective_seq();
    if (count > 0) {
      if (algo == perf::CollAlgo::kBruck) {
        coll::bruck_all_gather(*this, send, recv, count, ce, seq);
      } else {  // kRingAlgo
        coll::ring_all_gather(*this, send, recv,
                              std::vector<Index>(std::size_t(size()), count),
                              detail::uniform_displs(size(), count), ce, seq);
      }
    }
  }
  detail::account_routine(*this, perf::CollKind::kAllGather, algo,
                          total_bytes);
}

template <typename T>
void Communicator::all_gather_v(const T* send, Index count, T* recv,
                                const std::vector<Index>& counts,
                                const std::vector<Index>& displs) const {
  CHASE_CHECK_MSG(int(counts.size()) == size() && int(displs.size()) == size(),
                  "all_gather_v: counts/displs size mismatch");
  CHASE_CHECK_MSG(counts[std::size_t(rank_)] == count,
                  "all_gather_v: local count disagrees with counts[rank]");
  validate_gather_layout(counts, displs);
  const std::size_t local_bytes = std::size_t(std::max<Index>(count, 0)) *
                                  sizeof(T);
  std::size_t total_bytes = 0;
  for (const Index c : counts) total_bytes += std::size_t(c) * sizeof(T);
  const perf::CollAlgo algo = coll::select(
      perf::CollKind::kAllGather, total_bytes, size(), backend_, topo_info());
  if (size() == 1 || algo == perf::CollAlgo::kNaiveAlgo) {
    naive_all_gather_v(send, count, recv, counts, displs);
    return;
  }
  fault::check("rank.die");
  const Index ce = detail::coll_chunk_elems(sizeof(T));
  // The composite hierarchical allgather requires the canonical contiguous
  // layout; scattered receive ranges ride the flat ring instead. The layout
  // is rank-identical, so every rank takes the same branch.
  if (algo == perf::CollAlgo::kHierAlgo &&
      coll::canonical_gather_layout(counts, displs)) {
    const auto& group = hier_group();
    account_begin();
    coll::hier_all_gather_v(*this, group, send, recv, counts, displs, ce);
    detail::account_routine(*this, perf::CollKind::kAllGather, algo,
                            total_bytes);
    return;
  }
  account_begin();
  // Bruck needs uniform blocks; the variable-count case rides the ring.
  coll::ring_all_gather(*this, send, recv, counts, displs, ce,
                        next_collective_seq());
  account_end(perf::CollKind::kAllGather, total_bytes, local_bytes);
}

}  // namespace chase::comm
