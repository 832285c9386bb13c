// Dispatch glue: defines Communicator's collective member templates on top
// of the src/coll engine. Included at the end of comm/communicator.hpp
// (which owns the class definition and the naive publish-and-sync bodies);
// everything here routes one call to either the naive reference or a chunk
// channel algorithm, wrapped in the same perf accounting and fault-injection
// hooks either way. Every call selects its routine afresh (coll::select);
// the Routine -> algorithm mapping of each collective kind is written once
// below and shared by the blocking and nonblocking entry points.
#pragma once

#ifndef CHASE_COMM_COMMUNICATOR_INCLUDED
#error "coll/dispatch.hpp is glue for comm/communicator.hpp; include that"
#endif

#include <memory>
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
/// and a single event otherwise. `bracketed` closes the begin_collective()
/// bracket a blocking caller opened.
inline void account_routine(const Communicator& comm, perf::CollKind kind,
                            coll::Routine r, std::size_t bytes,
                            bool bracketed) {
  perf::Tracker* t = perf::thread_tracker();
  if (t == nullptr) return;
  coll::account_phases(
      t, comm.backend(),
      coll::is_hierarchical(r)
          ? coll::hier_phases(kind, bytes, comm.size(), comm.topo_info())
          : std::vector<coll::CollPhase>{{kind, bytes, comm.size()}},
      bracketed);
}

// ---- Routine -> channel algorithm, one mapping per collective kind ----

template <typename T>
std::unique_ptr<coll::CollOp> all_reduce_op(const Communicator& comm,
                                            coll::Routine r, T* data,
                                            Index count, Reduction op,
                                            std::uint64_t seq) {
  const Index ce = coll_chunk_elems(sizeof(T));
  switch (r) {
    case coll::Routine::kHierAllReduce:
      return std::make_unique<coll::HierAllReduce<Communicator, T>>(
          comm, data, count, op, ce, seq);
    case coll::Routine::kRingAllReduce:
      return std::make_unique<coll::OrderedRingAllReduce<Communicator, T>>(
          comm, data, count, op, ce, seq);
    default:  // kRabenseifnerAllReduce
      return std::make_unique<coll::RabenseifnerAllReduce<Communicator, T>>(
          comm, data, count, op, ce, seq);
  }
}

template <typename T>
std::unique_ptr<coll::CollOp> broadcast_op(const Communicator& comm,
                                           coll::Routine r, T* data,
                                           Index count, int root,
                                           std::uint64_t seq) {
  const Index ce = coll_chunk_elems(sizeof(T));
  if (r == coll::Routine::kHierBroadcast) {
    return std::make_unique<coll::HierBroadcast<Communicator, T>>(
        comm, data, count, root, ce, seq);
  }
  return std::make_unique<coll::BinomialBroadcast<Communicator, T>>(
      comm, data, count, root, ce, seq);
}

/// Flat equal-count allgather routines (the hierarchical one is a blocking
/// composite over sub-communicators, not a single CollOp).
template <typename T>
std::unique_ptr<coll::CollOp> all_gather_op(const Communicator& comm,
                                            coll::Routine r, const T* send,
                                            Index count, T* recv,
                                            std::uint64_t seq) {
  const Index ce = coll_chunk_elems(sizeof(T));
  if (r == coll::Routine::kBruckAllGather) {
    return std::make_unique<coll::BruckAllGather<Communicator, T>>(
        comm, send, recv, count, ce, seq);
  }
  return std::make_unique<coll::RingAllGather<Communicator, T>>(
      comm, send, recv, std::vector<Index>(std::size_t(comm.size()), count),
      uniform_displs(comm.size(), count), ce, seq);
}

}  // namespace detail

template <typename T>
void Communicator::all_reduce(T* data, Index count, Reduction op) const {
  if (size() == 1) {
    detail::corrupt_reduced(data, count);
    return;
  }
  const std::size_t bytes = std::size_t(std::max<Index>(count, 0)) * sizeof(T);
  const coll::Routine r = coll::select(perf::CollKind::kAllReduce, bytes,
                                       size(), backend_, topo_info());
  if (r == coll::Routine::kNaive) {
    naive_all_reduce(data, count, op);
    return;
  }
  fault::check("rank.die");
  account_begin();
  const std::uint64_t seq = next_collective_seq();
  if (count > 0) detail::all_reduce_op(*this, r, data, count, op, seq)->wait();
  detail::corrupt_reduced(data, count);
  detail::account_routine(*this, perf::CollKind::kAllReduce, r, bytes,
                          /*bracketed=*/true);
}

template <typename T>
void Communicator::broadcast(T* data, Index count, int root) const {
  if (size() == 1) return;
  CHASE_CHECK_MSG(root >= 0 && root < size(), "broadcast root out of range");
  const std::size_t bytes = std::size_t(std::max<Index>(count, 0)) * sizeof(T);
  const coll::Routine r = coll::select(perf::CollKind::kBroadcast, bytes,
                                       size(), backend_, topo_info());
  if (r == coll::Routine::kNaive) {
    naive_broadcast(data, count, root);
    return;
  }
  fault::check("rank.die");
  account_begin();
  const std::uint64_t seq = next_collective_seq();
  if (count > 0) detail::broadcast_op(*this, r, data, count, root, seq)->wait();
  detail::account_routine(*this, perf::CollKind::kBroadcast, r, bytes,
                          /*bracketed=*/true);
}

template <typename T>
void Communicator::all_gather(const T* send, Index count, T* recv) const {
  const std::size_t local_bytes = std::size_t(std::max<Index>(count, 0)) *
                                  sizeof(T);
  const std::size_t total_bytes = std::size_t(size()) * local_bytes;
  const coll::Routine r = coll::select(perf::CollKind::kAllGather, total_bytes,
                                       size(), backend_, topo_info());
  if (size() == 1 || r == coll::Routine::kNaive) {
    naive_all_gather(send, count, recv);
    return;
  }
  fault::check("rank.die");
  if (r == coll::Routine::kHierAllGather) {
    // Collective group construction (two split() calls) stays outside the
    // perf bracket; it happens once per communicator.
    const auto& group = hier_group();
    account_begin();
    if (count > 0) {
      coll::hier_all_gather_v(
          *this, group, send, recv,
          std::vector<Index>(std::size_t(size()), count),
          detail::uniform_displs(size(), count),
          detail::coll_chunk_elems(sizeof(T)));
    }
  } else {
    account_begin();
    const std::uint64_t seq = next_collective_seq();
    if (count > 0) {
      detail::all_gather_op(*this, r, send, count, recv, seq)->wait();
    }
  }
  detail::account_routine(*this, perf::CollKind::kAllGather, r, total_bytes,
                          /*bracketed=*/true);
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
  const coll::Routine r = coll::select(perf::CollKind::kAllGather, total_bytes,
                                       size(), backend_, topo_info());
  if (size() == 1 || r == coll::Routine::kNaive) {
    naive_all_gather_v(send, count, recv, counts, displs);
    return;
  }
  fault::check("rank.die");
  // The composite hierarchical allgather requires the canonical contiguous
  // layout; scattered receive ranges ride the flat ring instead. The layout
  // is rank-identical, so every rank takes the same branch.
  if (r == coll::Routine::kHierAllGather &&
      coll::canonical_gather_layout(counts, displs)) {
    const auto& group = hier_group();
    account_begin();
    coll::hier_all_gather_v(*this, group, send, recv, counts, displs,
                            detail::coll_chunk_elems(sizeof(T)));
    detail::account_routine(*this, perf::CollKind::kAllGather, r, total_bytes,
                            /*bracketed=*/true);
    return;
  }
  account_begin();
  const std::uint64_t seq = next_collective_seq();
  // Bruck needs uniform blocks; the variable-count case rides the ring.
  coll::RingAllGather<Communicator, T> alg(*this, send, recv, counts, displs,
                                           detail::coll_chunk_elems(sizeof(T)),
                                           seq);
  alg.wait();
  account_end(perf::CollKind::kAllGather, total_bytes, local_bytes);
}

template <typename T>
coll::CollRequest Communicator::i_all_reduce(T* data, Index count,
                                             Reduction op) const {
  const std::size_t bytes = std::size_t(std::max<Index>(count, 0)) * sizeof(T);
  const coll::Routine r =
      size() == 1 || count <= 0
          ? coll::Routine::kNaive
          : coll::select(perf::CollKind::kAllReduce, bytes, size(), backend_,
                         topo_info());
  if (r == coll::Routine::kNaive) {
    // No channel algorithm to run asynchronously — complete eagerly (the
    // naive path is one blocking publish-and-sync anyway).
    all_reduce(data, count, op);
    return {};
  }
  fault::check("rank.die");
  auto alg =
      detail::all_reduce_op(*this, r, data, count, op, next_collective_seq());
  auto on_done = [this, data, count, r, bytes] {
    detail::corrupt_reduced(data, count);
    detail::account_routine(*this, perf::CollKind::kAllReduce, r, bytes,
                            /*bracketed=*/false);
  };
  return coll::CollRequest(
      std::make_unique<coll::WithCompletion<decltype(on_done)>>(
          std::move(alg), std::move(on_done)));
}

}  // namespace chase::comm
