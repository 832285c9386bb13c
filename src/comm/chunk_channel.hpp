// Point-to-point chunk channels: the transport primitive under src/coll.
//
// Every rank owns one Mailbox holding a FIFO of in-flight chunks per source
// rank (a per-rank-pair SPSC queue: only the source pushes, only the owner
// pops). Sends never block — the queues are unbounded — and the collective
// algorithms of src/coll rely on that: a rank may send everything it can
// before it waits, so no receive order can deadlock. A receive blocks until
// the chunk with its tag is in the per-source FIFO and takes it from
// *anywhere* in that FIFO, so chunks of different collective phases or steps
// need not arrive in the order they are received.
//
// Tags are built by the coll algorithms as
//   seq(32) | phase(4) | step(12) | chunk(16)
// where `seq` is the per-rank collective sequence number handed out by
// Communicator::next_collective_seq(); consecutive collectives on the same
// communicator therefore never alias tags even though channels are not
// drained between them.
//
// Receives carry the same poisoned-error/watchdog semantics as the
// barriers: the mailbox cv is registered with the team's ErrorState, a
// waiting receive polls the poison flag, and a wait during which no chunk
// reaches the inbox for comm::watchdog_policy.get() is diagnosed as
// "p2p.watchdog", naming the sender it waited for.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

namespace chase::comm::detail {

struct Chunk {
  std::uint64_t tag = 0;
  std::vector<unsigned char> bytes;
};

struct Mailbox {
  explicit Mailbox(int nranks) : from(std::size_t(nranks)) {}

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::deque<Chunk>> from;  // indexed by source rank
  // Bumped on every push. Communicator::recv_chunk restarts its watchdog
  // whenever it moves, so only an inbox that stays silent trips it.
  std::uint64_t arrivals = 0;
};

}  // namespace chase::comm::detail
