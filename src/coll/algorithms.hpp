// Chunk-pipelined collective algorithms over the point-to-point channels.
//
// Every algorithm is one blocking function: a straight loop over chunks that
// sends with send_chunk and waits with the blocking recv_chunk, the way NCCL
// writes its ring and tree as step loops. The functions are templated on the
// communicator type (so this header never needs comm/communicator.hpp — the
// dispatch glue in coll/dispatch.hpp instantiates them with
// comm::Communicator). The required Comm surface: rank(), size(),
// send_chunk(), recv_chunk() (plus node_ids() for coll/hierarchy.hpp).
//
// Deadlock freedom rests on one property of the channels: a send never
// blocks (the per-source queues are unbounded, comm/chunk_channel.hpp). Each
// rank therefore issues its sends as soon as the data exists and only ever
// waits for chunks that an upstream rank sends without waiting on it, so no
// receive order can form a cycle. Each routine receives from a peer in the
// order that peer sends, so the pipeline keeps flowing: e.g. the ordered
// ring runs its whole reduce pass before the distribute pass, and a chunk of
// the distribute pass that lands early simply waits in the mailbox.
//
// Determinism contract: the naive reference folds contributions in rank
// order 0..P-1, and the filter/QR stacks rely on every rank seeing the
// *bitwise identical* reduced value. Both allreduce algorithms here keep
// that exact summation order:
//
//  - ordered_ring_all_reduce: a chunk is accumulated along the chain
//    0 -> 1 -> ... -> P-1 (rank order by construction) and the finished
//    values flow on around the ring P-1 -> 0 -> ... -> P-2. Classic NCCL
//    rings rotate the starting segment per rank, which reorders the sums;
//    the ordered chain pays one extra latency factor for determinism while
//    keeping the chunk-pipelined structure (2(P-1)+k-1 hop times for k
//    chunks in flight).
//  - rabenseifner_all_reduce: reduce-scatter + allgather with the classic
//    2N(P-1)/P per-rank bandwidth, but the reduce-scatter is a direct
//    pairwise exchange whose segment owners fold contributions in rank
//    order, instead of recursive halving (which would build a different
//    summation tree). The latency term grows from 2 log2 P to ~2(P-1);
//    the cost model knows.
//
// Data movement collectives (allgather, broadcast) are pure copies, so ring,
// bruck and binomial shapes are trivially bitwise-safe.
//
// Tag layout (see comm/chunk_channel.hpp): seq(32) | phase(4) | step(12) |
// chunk(16).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "comm/reduction.hpp"
#include "common/check.hpp"
#include "la/matrix.hpp"
#include "perf/tracker.hpp"

namespace chase::coll {

using la::Index;

namespace detail {

inline Index div_up(Index a, Index b) { return (a + b - 1) / b; }

inline std::uint64_t make_tag(std::uint64_t seq, unsigned phase, unsigned step,
                              unsigned chunk) {
  return (seq << 32) | (std::uint64_t(phase & 0xFu) << 28) |
         (std::uint64_t(step & 0xFFFu) << 16) | std::uint64_t(chunk & 0xFFFFu);
}

/// Calls f(c, begin, len) for chunk c = 0, 1, ... of the element range
/// [0, n) cut into `chunk`-element pieces (the last one may be short).
template <typename F>
void for_each_chunk(Index n, Index chunk, F&& f) {
  for (Index c = 0, b = 0; b < n; ++c, b += chunk) {
    f(c, b, std::min(chunk, n - b));
  }
}

/// acc[i] = acc[i] (op) x[i] for i < len. The sum, which every solver
/// reduction uses, gets its own branch-free loop: with the op switch inside,
/// the compiler does not vectorize the loop once it is inlined here.
template <typename T>
void fold(comm::Reduction op, T* acc, const T* x, Index len) {
  if (op == comm::Reduction::kSum) {
    for (Index i = 0; i < len; ++i) acc[i] += x[i];
    return;
  }
  for (Index i = 0; i < len; ++i) comm::detail::reduce_assign(op, acc[i], x[i]);
}

/// Parent/children of `local` in a binomial tree over the indices 0..n-1
/// rooted at `root`, in the same index space. The virtual index
/// v = (local - root) mod n reaches its parent by clearing its lowest set
/// bit; the children add the bits below it.
struct BinomialShape {
  int parent = -1;  // -1 at the root
  std::vector<int> children;

  BinomialShape(int local, int n, int root) {
    const int v = (local - root + n) % n;
    unsigned mask = 1;
    while (int(mask) < n && (v & int(mask)) == 0) mask <<= 1;
    if (v != 0) parent = ((v - int(mask)) + root) % n;
    for (unsigned m = mask >> 1; m > 0; m >>= 1) {
      if (v + int(m) < n) children.push_back(((v + int(m)) + root) % n);
    }
  }
};

/// One rank's chunk traffic inside one routine: each send and receive is one
/// step and adds its payload to the byte count. finish() flushes
/// `<prefix>.calls/.steps/.bytes` to the thread tracker; a routine calls it
/// once it has completed, so an aborted routine records nothing.
template <typename Comm>
class Channel {
 public:
  Channel(const Comm& comm, const char* prefix)
      : comm_(comm), prefix_(prefix) {}

  template <typename T>
  void send(int dst, std::uint64_t tag, const T* data, Index len) {
    const std::size_t bytes = std::size_t(len) * sizeof(T);
    comm_.send_chunk(dst, tag, data, bytes);
    ++steps_;
    bytes_ += bytes;
  }

  template <typename T>
  void recv(int src, std::uint64_t tag, T* data, Index len) {
    const std::size_t bytes = std::size_t(len) * sizeof(T);
    comm_.recv_chunk(src, tag, data, bytes);
    ++steps_;
    bytes_ += bytes;
  }

  const Comm& comm() const { return comm_; }

  void finish() const {
    if (perf::thread_tracker() == nullptr) return;
    const std::string p(prefix_);
    perf::bump_counter(p + ".calls", 1.0);
    perf::bump_counter(p + ".steps", double(steps_));
    perf::bump_counter(p + ".bytes", double(bytes_));
  }

 private:
  const Comm& comm_;
  const char* prefix_;
  std::size_t steps_ = 0;
  std::size_t bytes_ = 0;
};

/// The ordered reduce chain of the ring and hierarchical allreduces (tag
/// phase 0): chunk c accumulates contributions in rank order while hopping
/// 0 -> 1 -> ... -> P-1, the naive reference's fold order. The last rank
/// stores each finished chunk in `data` and hands it to finished(c, b, len)
/// at once.
template <typename Comm, typename T, typename F>
void reduce_chain(Channel<Comm>& ch, T* data, Index count, Index chunk,
                  comm::Reduction op, std::uint64_t seq, F&& finished) {
  const int rank = ch.comm().rank();
  const int last = ch.comm().size() - 1;
  std::vector<T> partial(std::size_t(std::min(count, chunk)));
  for_each_chunk(count, chunk, [&](Index c, Index b, Index len) {
    const std::uint64_t tag = make_tag(seq, 0, 0, unsigned(c));
    if (rank == 0) {
      ch.send(1, tag, data + b, len);
      return;
    }
    ch.recv(rank - 1, tag, partial.data(), len);
    fold(op, partial.data(), data + b, len);
    if (rank < last) {
      ch.send(rank + 1, tag, partial.data(), len);
      return;
    }
    std::copy_n(partial.data(), len, data + b);
    finished(c, b, len);
  });
}

}  // namespace detail

/// Deterministic chunk-pipelined ring allreduce (see file comment). Tag
/// phases: 0 = reduce chain, 1 = distribute ring.
template <typename Comm, typename T>
void ordered_ring_all_reduce(const Comm& comm, T* data, Index count,
                             comm::Reduction op, Index chunk_elems,
                             std::uint64_t seq) {
  const Index chunk = std::max<Index>(1, chunk_elems);
  CHASE_CHECK_MSG(detail::div_up(count, chunk) <= 0xFFFF,
                  "allreduce payload needs too many chunks");
  const int rank = comm.rank();
  const int last = comm.size() - 1;
  const auto tag = [seq](Index c) {
    return detail::make_tag(seq, 1, 0, unsigned(c));
  };
  detail::Channel ch(comm, "coll.ring_allreduce");
  // Reduce pass; the last rank starts each finished chunk around the
  // distribute ring at once.
  detail::reduce_chain(ch, data, count, chunk, op, seq,
                       [&](Index c, Index b, Index len) {
                         ch.send(0, tag(c), data + b, len);
                       });
  // Distribute pass: finished chunks flow P-1 -> 0 -> 1 -> ... -> P-2.
  if (rank < last) {
    const int prev = rank == 0 ? last : rank - 1;
    detail::for_each_chunk(count, chunk, [&](Index c, Index b, Index len) {
      ch.recv(prev, tag(c), data + b, len);
      if (rank + 1 < last) ch.send(rank + 1, tag(c), data + b, len);
    });
  }
  ch.finish();
}

/// Rabenseifner-flavored allreduce: order-preserving reduce-scatter + direct
/// allgather of the owned segments (see file comment). Tag phases: 0 =
/// reduce-scatter, 1 = allgather; the step field carries the sending rank
/// (the contributor in phase 0, the segment owner in phase 1), which the
/// mailbox already separates, but keeping it in the tag makes tags globally
/// unique and mismatches loud.
template <typename Comm, typename T>
void rabenseifner_all_reduce(const Comm& comm, T* data, Index count,
                             comm::Reduction op, Index chunk_elems,
                             std::uint64_t seq) {
  const Index chunk = std::max<Index>(1, chunk_elems);
  const int rank = comm.rank();
  const int size = comm.size();
  // Segment s (owned by rank s) is the near-equal slice [off[s], off[s] +
  // len[s]) of the payload; segment 0 is the longest.
  std::vector<Index> off(std::size_t(size) + 1, 0);
  for (int s = 0; s < size; ++s) {
    off[std::size_t(s) + 1] =
        off[std::size_t(s)] + count / size + (Index(s) < count % size ? 1 : 0);
  }
  const auto seg_len = [&](int s) {
    return off[std::size_t(s) + 1] - off[std::size_t(s)];
  };
  CHASE_CHECK_MSG(detail::div_up(seg_len(0), chunk) <= 0xFFFF,
                  "allreduce segment needs too many chunks");
  const auto tag = [seq](unsigned phase, int sender, Index c) {
    return detail::make_tag(seq, phase, unsigned(sender), unsigned(c));
  };
  detail::Channel ch(comm, "coll.rabenseifner_allreduce");
  const auto send_segment = [&](int dst, unsigned phase, int s) {
    detail::for_each_chunk(seg_len(s), chunk, [&](Index c, Index b, Index len) {
      ch.send(dst, tag(phase, rank, c), data + off[std::size_t(s)] + b, len);
    });
  };

  // Reduce-scatter: my contribution to every foreign segment, then my own
  // segment finalized sub-chunk by sub-chunk, folding the P contributions in
  // rank order.
  for (int s = 0; s < size; ++s) {
    if (s != rank) send_segment(s, 0, s);
  }
  T* own = data + off[std::size_t(rank)];
  std::vector<T> acc(std::size_t(std::min(chunk, seg_len(rank))));
  std::vector<T> peer(acc.size());
  const auto fold_own = [&](Index c, Index b, Index len) {
    for (int src = 0; src < size; ++src) {
      const T* x = own + b;
      if (src != rank) {
        ch.recv(src, tag(0, src, c), peer.data(), len);
        x = peer.data();
      }
      if (src == 0) {
        std::copy_n(x, len, acc.data());
      } else {
        detail::fold(op, acc.data(), x, len);
      }
    }
    std::copy_n(acc.data(), len, own + b);
  };
  detail::for_each_chunk(seg_len(rank), chunk, fold_own);

  // Allgather: my final segment to every peer, every foreign one from its
  // owner.
  for (int s = 0; s < size; ++s) {
    if (s != rank) send_segment(s, 1, rank);
  }
  for (int s = 0; s < size; ++s) {
    if (s == rank) continue;
    detail::for_each_chunk(seg_len(s), chunk, [&](Index c, Index b, Index len) {
      ch.recv(s, tag(1, s, c), data + off[std::size_t(s)] + b, len);
    });
  }
  ch.finish();
}

/// Ring allgather over per-rank (count, displ) blocks. Step t moves block
/// (rank - t) mod P from my predecessor to me; the block I receive at step t
/// is the one I forward at step t+1, chunk by chunk as it arrives, so a chunk
/// crosses the ring without waiting for the rest of its block. Handles the
/// variable-count case directly; the equal-count allgather passes uniform
/// counts.
template <typename Comm, typename T>
void ring_all_gather(const Comm& comm, const T* send, T* recv,
                     const std::vector<Index>& counts,
                     const std::vector<Index>& displs, Index chunk_elems,
                     std::uint64_t seq) {
  const Index chunk = std::max<Index>(1, chunk_elems);
  const int rank = comm.rank();
  const int size = comm.size();
  CHASE_CHECK_MSG(size <= 0xFFF, "team too large for the ring tag space");
  for (const Index c : counts) {
    CHASE_CHECK_MSG(detail::div_up(c, chunk) <= 0xFFFF,
                    "allgather block needs too many chunks");
  }
  const auto block = [&](int r) {
    return recv + displs[std::size_t((r + size) % size)];
  };
  const auto block_count = [&](int r) {
    return counts[std::size_t((r + size) % size)];
  };
  T* mine = block(rank);
  // The hierarchical allgather passes its node block already in place.
  if (block_count(rank) > 0 && send != mine) {
    std::copy_n(send, block_count(rank), mine);
  }
  const int next = (rank + 1) % size;
  const int prev = (rank + size - 1) % size;
  const auto tag = [seq](int step, Index c) {
    return detail::make_tag(seq, 0, unsigned(step), unsigned(c));
  };
  detail::Channel ch(comm, "coll.ring_allgather");
  detail::for_each_chunk(block_count(rank), chunk,
                         [&](Index c, Index b, Index len) {
                           ch.send(next, tag(1, c), mine + b, len);
                         });
  for (int t = 1; t < size; ++t) {
    T* dst = block(rank - t);
    const auto relay = [&](Index c, Index b, Index len) {
      ch.recv(prev, tag(t, c), dst + b, len);
      if (t + 1 < size) ch.send(next, tag(t + 1, c), dst + b, len);
    };
    detail::for_each_chunk(block_count(rank - t), chunk, relay);
  }
  ch.finish();
}

/// Bruck allgather (equal counts): ceil(log2 P) doubling rounds over a
/// rotated work buffer, un-rotated into the receive buffer at the end.
template <typename Comm, typename T>
void bruck_all_gather(const Comm& comm, const T* send, T* recv, Index count,
                      Index chunk_elems, std::uint64_t seq) {
  const Index chunk = std::max<Index>(1, chunk_elems);
  const int rank = comm.rank();
  const int size = comm.size();
  CHASE_CHECK_MSG(detail::div_up(count * Index(size), chunk) <= 0xFFFF,
                  "allgather payload needs too many chunks");
  std::vector<T> work(std::size_t(count) * std::size_t(size));
  std::copy_n(send, count, work.data());
  detail::Channel ch(comm, "coll.bruck_allgather");
  // Round r at distance d = 2^r: send my first min(d, P-d) blocks d ranks
  // back, receive the same from d ranks ahead, appending at block d.
  for (int d = 1, round = 0; d < size; d *= 2, ++round) {
    const Index elems = Index(std::min(d, size - d)) * count;
    const auto tag = [&](Index c) {
      return detail::make_tag(seq, 0, unsigned(round), unsigned(c));
    };
    detail::for_each_chunk(elems, chunk, [&](Index c, Index b, Index len) {
      ch.send((rank - d + size) % size, tag(c), work.data() + b, len);
    });
    T* tail = work.data() + Index(d) * count;
    detail::for_each_chunk(elems, chunk, [&](Index c, Index b, Index len) {
      ch.recv((rank + d) % size, tag(c), tail + b, len);
    });
  }
  // Un-rotate: work block i holds global block (rank + i) mod P.
  for (int i = 0; i < size; ++i) {
    std::copy_n(work.data() + Index(i) * count, count,
                recv + Index((rank + i) % size) * count);
  }
  ch.finish();
}

/// Chunk-pipelined binomial-tree broadcast: each chunk goes on to the
/// children as soon as it arrives from the parent, so the depth costs add
/// once, not per chunk.
template <typename Comm, typename T>
void binomial_broadcast(const Comm& comm, T* data, Index count, int root,
                        Index chunk_elems, std::uint64_t seq) {
  const Index chunk = std::max<Index>(1, chunk_elems);
  CHASE_CHECK_MSG(detail::div_up(count, chunk) <= 0xFFFF,
                  "broadcast payload needs too many chunks");
  const detail::BinomialShape tree(comm.rank(), comm.size(), root);
  detail::Channel ch(comm, "coll.binomial_broadcast");
  detail::for_each_chunk(count, chunk, [&](Index c, Index b, Index len) {
    const std::uint64_t tag = detail::make_tag(seq, 0, 0, unsigned(c));
    if (tree.parent >= 0) ch.recv(tree.parent, tag, data + b, len);
    for (const int child : tree.children) ch.send(child, tag, data + b, len);
  });
  ch.finish();
}

}  // namespace chase::coll
