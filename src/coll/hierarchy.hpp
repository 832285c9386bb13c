// Two-level hierarchical collectives over a topology-grouped communicator.
//
// When CHASE_TOPO groups a team into nodes (contiguous runs of equal node
// ids, comm/topology.hpp), the flat chunk algorithms waste the slow inter
// links: a flat ordered ring pushes the whole payload across *every* link of
// the chain, so the rank at a node boundary serializes 2N bytes through one
// emulated cable. The routines here follow the classic NCCL/MPI two-level
// shape instead — do the bulk of the work over the fast intra links and
// cross the node boundary exactly once per payload block:
//
//  - hier_all_reduce(): ordered chain reduce 0 -> 1 -> ... -> P-1 (the
//    exact naive summation order, so the result stays bitwise identical),
//    then the finished chunks hop *down the leader chain* (node M-1's leader
//    -> ... -> node 0's leader, one payload per inter link) while each
//    leader streams them into its node over a chunk-pipelined binomial tree.
//    The busiest inter sender carries N bytes instead of the flat ring's 2N.
//    Every rank runs its whole reduce pass first; only the top leader, which
//    finishes the chunks, fans each one out inside that pass.
//  - hier_broadcast(): one "entry" rank per node (the root for the root's node,
//    the node leader otherwise) receives the payload over a binomial tree
//    spanning the entries (inter links, log2 M depth), and each entry
//    re-broadcasts over an intra binomial tree.
//  - hier_all_gather_v(): a composite over the grouped sub-communicators
//    (HierGroup): ring allgather inside each node (fast links, writing
//    directly into the global receive buffer), ring allgather of whole node
//    blocks among the leaders (one block crossing per inter link), then two
//    intra broadcasts that fan the foreign prefix/suffix spans out to the
//    non-leaders. Pure data movement — trivially bitwise-identical. Requires
//    the canonical contiguous layout (displ[r+1] == displ[r] + count[r]);
//    the dispatcher falls back to a flat routine otherwise.
//
// Like the flat routines of coll/algorithms.hpp, each is one blocking
// function over send_chunk/recv_chunk whose deadlock freedom rests on sends
// never blocking. The composite allgather draws fresh sequence numbers from the
// sub-communicators per run; every intra member draws the same number of
// intra seqs and only leaders draw leader seqs, so the per-comm lockstep
// contract holds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "coll/algorithms.hpp"
#include "coll/engine.hpp"
#include "comm/reduction.hpp"
#include "common/check.hpp"
#include "la/matrix.hpp"

namespace chase::coll {

namespace detail {

/// Node structure of a grouped communicator, recovered from the
/// rank-identical node_of assignment: contiguous member runs, one leader
/// (last member) per node.
struct NodeLayout {
  std::vector<int> first;    // parent rank of each node's first member
  std::vector<int> last;     // parent rank of each node's leader
  int my_node = 0;

  NodeLayout(const std::vector<int>& node_of, int rank) {
    CHASE_CHECK_MSG(!node_of.empty(), "hierarchical op on a flat communicator");
    first.push_back(0);
    for (int r = 1; r < int(node_of.size()); ++r) {
      if (node_of[std::size_t(r)] != node_of[std::size_t(r - 1)]) {
        last.push_back(r - 1);
        first.push_back(r);
      }
    }
    last.push_back(int(node_of.size()) - 1);
    my_node = node_index(rank);
  }

  /// Index of the node holding parent rank `r`.
  int node_index(int r) const {
    return int(std::upper_bound(first.begin(), first.end(), r) -
               first.begin()) - 1;
  }

  int nodes() const { return int(first.size()); }
  int node_first() const { return first[std::size_t(my_node)]; }
  int node_last() const { return last[std::size_t(my_node)]; }
  int node_size() const { return node_last() - node_first() + 1; }
};

}  // namespace detail

/// Deterministic two-level allreduce (see file comment). Tag phases:
/// 0 = ordered reduce chain, 1 = leader chain, 2 = intra broadcast.
template <typename Comm, typename T>
void hier_all_reduce(const Comm& comm, T* data, Index count,
                     comm::Reduction op, Index chunk_elems, std::uint64_t seq) {
  const Index chunk = std::max<Index>(1, chunk_elems);
  CHASE_CHECK_MSG(detail::div_up(count, chunk) <= 0xFFFF,
                  "allreduce payload needs too many chunks");
  const int rank = comm.rank();
  const int last = comm.size() - 1;
  const detail::NodeLayout layout(comm.node_ids(), rank);
  const int first = layout.node_first();
  const detail::BinomialShape intra(rank - first, layout.node_size(),
                                    layout.node_size() - 1);
  const bool leader = rank == layout.node_last();
  // Leader chain: finished chunks originate at the top node's leader (rank
  // P-1) and hop down one node at a time.
  const int up = leader && rank < last
                     ? layout.last[std::size_t(layout.my_node + 1)]
                     : -1;
  const int down = leader && layout.my_node > 0
                       ? layout.last[std::size_t(layout.my_node - 1)]
                       : -1;
  const auto tag = [seq](unsigned phase, Index c) {
    return detail::make_tag(seq, phase, 0, unsigned(c));
  };
  detail::Channel ch(comm, "coll.hier_allreduce");
  // A finished chunk goes down the leader chain and into my node's tree.
  const auto fan_out = [&](Index c, Index b, Index len) {
    if (down >= 0) ch.send(down, tag(1, c), data + b, len);
    for (const int child : intra.children) {
      ch.send(first + child, tag(2, c), data + b, len);
    }
  };
  // Phase 0: the ordered reduce chain; the top leader fans each chunk out
  // as soon as it is final.
  detail::reduce_chain(ch, data, count, chunk, op, seq, fan_out);
  // Phases 1 and 2 below the top leader: a leader takes each finished chunk
  // from the leader above it, everyone else from its intra-tree parent.
  if (rank < last) {
    detail::for_each_chunk(count, chunk, [&](Index c, Index b, Index len) {
      if (leader) {
        ch.recv(up, tag(1, c), data + b, len);
      } else {
        ch.recv(first + intra.parent, tag(2, c), data + b, len);
      }
      fan_out(c, b, len);
    });
  }
  ch.finish();
}

/// Two-level broadcast: binomial over per-node entry ranks (inter links),
/// then binomial within each node (intra links). Tag phases: 0 = entry tree,
/// 1 = intra tree.
template <typename Comm, typename T>
void hier_broadcast(const Comm& comm, T* data, Index count, int root,
                    Index chunk_elems, std::uint64_t seq) {
  const Index chunk = std::max<Index>(1, chunk_elems);
  CHASE_CHECK_MSG(detail::div_up(count, chunk) <= 0xFFFF,
                  "broadcast payload needs too many chunks");
  const int rank = comm.rank();
  const detail::NodeLayout layout(comm.node_ids(), rank);
  const int first = layout.node_first();
  // Entry rank of node i: the root inside the root's node (it already has
  // the payload), the leader elsewhere.
  const int root_node = layout.node_index(root);
  const auto entry = [&](int node) {
    return node == root_node ? root : layout.last[std::size_t(node)];
  };
  const bool is_entry = rank == entry(layout.my_node);
  const detail::BinomialShape inter(layout.my_node, layout.nodes(), root_node);
  const detail::BinomialShape intra(rank - first, layout.node_size(),
                                    entry(layout.my_node) - first);
  const auto tag = [seq](unsigned phase, Index c) {
    return detail::make_tag(seq, phase, 0, unsigned(c));
  };
  detail::Channel ch(comm, "coll.hier_broadcast");
  detail::for_each_chunk(count, chunk, [&](Index c, Index b, Index len) {
    if (rank != root) {
      if (is_entry) {
        ch.recv(entry(inter.parent), tag(0, c), data + b, len);
      } else {
        ch.recv(first + intra.parent, tag(1, c), data + b, len);
      }
    }
    if (is_entry) {
      for (const int child : inter.children) {
        ch.send(entry(child), tag(0, c), data + b, len);
      }
    }
    for (const int child : intra.children) {
      ch.send(first + child, tag(1, c), data + b, len);
    }
  });
  ch.finish();
}

/// True when (counts, displs) is the canonical contiguous layout the
/// composite hierarchical allgather requires: block r starts exactly where
/// block r-1 ended, starting at offset 0.
inline bool canonical_gather_layout(const std::vector<Index>& counts,
                                    const std::vector<Index>& displs) {
  Index off = 0;
  for (std::size_t r = 0; r < counts.size(); ++r) {
    if (displs[r] != off) return false;
    off += counts[r];
  }
  return true;
}

/// Composite two-level allgather over the grouped sub-communicators (see
/// file comment). Blocking; draws its own sequence numbers from the
/// sub-communicators. `Group` is comm::detail::HierGroup (templated to keep
/// this header free of comm/communicator.hpp).
template <typename Comm, typename Group, typename T>
void hier_all_gather_v(const Comm& parent, const Group& group, const T* send,
                       T* recv, const std::vector<Index>& counts,
                       const std::vector<Index>& displs, Index chunk_elems) {
  const auto& node_of = parent.node_ids();
  const detail::NodeLayout layout(node_of, parent.rank());
  const int first = layout.node_first();
  const int nsize = layout.node_size();

  // Phase 1: assemble my node's block over the fast links, writing straight
  // into the global receive buffer (displs are global offsets).
  if (nsize > 1) {
    const std::vector<Index> c(counts.begin() + first,
                               counts.begin() + first + nsize);
    const std::vector<Index> d(displs.begin() + first,
                               displs.begin() + first + nsize);
    ring_all_gather(group.intra, send, recv, c, d, chunk_elems,
                    group.intra.next_collective_seq());
  } else if (counts[std::size_t(parent.rank())] > 0) {
    std::copy_n(send, counts[std::size_t(parent.rank())],
                recv + displs[std::size_t(parent.rank())]);
  }

  // Phase 2: leaders exchange whole node blocks — each block crosses each
  // inter link once.
  const Index my_start = displs[std::size_t(first)];
  Index my_elems = 0;
  for (int r = first; r <= layout.node_last(); ++r) {
    my_elems += counts[std::size_t(r)];
  }
  if (group.is_leader && layout.nodes() > 1) {
    std::vector<Index> c(std::size_t(layout.nodes()));
    std::vector<Index> d(std::size_t(layout.nodes()));
    for (int i = 0; i < layout.nodes(); ++i) {
      Index elems = 0;
      for (int r = layout.first[std::size_t(i)];
           r <= layout.last[std::size_t(i)]; ++r) {
        elems += counts[std::size_t(r)];
      }
      c[std::size_t(i)] = elems;
      d[std::size_t(i)] = displs[std::size_t(layout.first[std::size_t(i)])];
    }
    // The leader's contribution is its already-assembled node block inside
    // `recv`, already where the ring expects it.
    ring_all_gather(group.leaders, recv + my_start, recv, c, d, chunk_elems,
                    group.leaders.next_collective_seq());
  }

  // Phase 3: the leader fans the foreign spans (everything before and after
  // my node's block) out over the fast links. Two contiguous broadcasts;
  // span extents are rank-identical within the node, so every member draws
  // the same intra seqs.
  if (nsize > 1 && layout.nodes() > 1) {
    Index total = 0;
    for (const Index cnt : counts) total += cnt;
    const int root_local = nsize - 1;
    if (my_start > 0) {
      binomial_broadcast(group.intra, recv, my_start, root_local, chunk_elems,
                         group.intra.next_collective_seq());
    }
    const Index end = my_start + my_elems;
    if (total > end) {
      binomial_broadcast(group.intra, recv + end, total - end, root_local,
                         chunk_elems, group.intra.next_collective_seq());
    }
  }
}

}  // namespace chase::coll
