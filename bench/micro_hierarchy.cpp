// Hierarchical-collective acceptance bench.
//
// Runs on the emulated 2-node x 4-rank topology (CHASE_TOPO-style override):
// the slow inter-node link is a calibrated delay charged per cross-node
// chunk transfer, so the flat ring pays for dragging the full payload across
// the boundary twice while the two-level routine crosses once per direction.
// Measures and gates, via results/bench_hierarchy.json:
//
//   hierarchy_speedup     — flat ring vs hierarchical allreduce wall time on
//                           the slow-inter topology (gate: >= 1.3x)
//   bitwise_identical     — hierarchical allreduce/broadcast/allgather
//                           against the naive reference, byte for byte
//   auto_matches_model    — CHASE_COLL_ALGO=auto picks a hierarchical
//                           routine exactly when the per-link cost model
//                           prices it cheapest
#include <chrono>
#include <complex>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <vector>

#include "coll/engine.hpp"
#include "comm/communicator.hpp"
#include "comm/topology.hpp"
#include "perf/cost_model.hpp"
#include "perf/machine.hpp"
#include "tune/measure.hpp"

namespace {

using chase::comm::Communicator;
using chase::comm::Reduction;
using chase::comm::ScopedTopology;
using chase::comm::Team;
using chase::la::Index;

constexpr int kNodes = 2;
constexpr int kPerNode = 4;
constexpr int kRanks = kNodes * kPerNode;

double seeded(int rank, Index i) {
  // Deterministic, rank- and index-dependent values with non-trivial
  // mantissas so summation order shows up bitwise.
  return 1.0 + double((rank * 131 + int(i % 977)) % 1009) / 1009.0;
}

/// Seconds per allreduce under the current policy/topology: best of several
/// passes (scheduler noise on an oversubscribed host can double a single
/// pass, and the emulated link delay we are measuring is deterministic).
double time_allreduce(std::size_t bytes, int iters) {
  constexpr int kPasses = 3;
  const Index count = Index(bytes / sizeof(double));
  double per_op = 0;
  Team team(kRanks);
  team.run([&](Communicator& comm) {
    std::vector<double> x(static_cast<std::size_t>(count));
    for (Index i = 0; i < count; ++i) x[std::size_t(i)] = seeded(comm.rank(), i);
    // One barrier-bracketed pass of `iters` ops is the measured unit; the
    // shared tune::measure harness keeps the best of kPasses (one warmup op
    // folded into the warmup run).
    const chase::tune::Measurement m =
        chase::tune::measure(/*warmup=*/1, kPasses, [&] {
          comm.barrier();
          for (int it = 0; it < iters; ++it) {
            comm.all_reduce(x.data(), count, Reduction::kMin);
          }
          comm.barrier();
        });
    if (comm.rank() == 0) per_op = m.best;
  });
  return per_op / iters;
}

/// Bitwise comparison of every hierarchical routine against the naive
/// reference on the grouped topology, for T in {double, complex<double>}.
template <typename T>
bool bitwise_vs_naive(Index count) {
  bool ok = true;
  // Naive reference streams, computed first.
  std::vector<std::vector<T>> ref_reduce(kRanks), ref_bcast(kRanks),
      ref_gather(kRanks);
  for (int pass = 0; pass < 2; ++pass) {
    chase::ScopedPolicy policy(chase::coll::algorithm_policy,
                               pass == 0 ? chase::coll::Algorithm::kNaive
                                         : chase::coll::Algorithm::kHier);
    Team team(kRanks);
    team.run([&](Communicator& comm) {
      const int r = comm.rank();
      std::vector<T> x(static_cast<std::size_t>(count));
      for (Index i = 0; i < count; ++i) {
        x[std::size_t(i)] = T(seeded(r, i));
      }
      comm.all_reduce(x.data(), count);
      std::vector<T> b(static_cast<std::size_t>(count), T(seeded(r, 7)));
      comm.broadcast(b.data(), count, /*root=*/2);
      std::vector<T> g(static_cast<std::size_t>(count) * kRanks);
      std::vector<T> mine(static_cast<std::size_t>(count), T(seeded(r, 3)));
      comm.all_gather(mine.data(), count, g.data());
      if (pass == 0) {
        ref_reduce[std::size_t(r)] = x;
        ref_bcast[std::size_t(r)] = b;
        ref_gather[std::size_t(r)] = g;
      } else {
        const bool same =
            std::memcmp(x.data(), ref_reduce[std::size_t(r)].data(),
                        x.size() * sizeof(T)) == 0 &&
            std::memcmp(b.data(), ref_bcast[std::size_t(r)].data(),
                        b.size() * sizeof(T)) == 0 &&
            std::memcmp(g.data(), ref_gather[std::size_t(r)].data(),
                        g.size() * sizeof(T)) == 0;
        if (!same) ok = false;
      }
    });
  }
  return ok;
}

/// auto's pick agrees with the per-link cost model across payload decades.
bool auto_matches_model(const chase::perf::TopoInfo& topo) {
  using chase::perf::CollAlgo;
  chase::ScopedPolicy policy(chase::coll::algorithm_policy,
                             chase::coll::Algorithm::kAuto);
  const chase::perf::MachineModel m;
  const auto backend = chase::perf::Backend::kHostMpi;
  const std::size_t chunk = chase::coll::chunk_bytes();
  bool ok = true;
  for (std::size_t bytes = 1 << 10; bytes <= (std::size_t(16) << 20);
       bytes <<= 2) {
    const double hier = chase::perf::coll_algo_seconds(
        m, backend, chase::perf::CollKind::kAllReduce, CollAlgo::kHierAlgo,
        bytes, kRanks, chunk, topo);
    double flat = std::numeric_limits<double>::infinity();
    for (const CollAlgo a : {CollAlgo::kNaiveAlgo, CollAlgo::kRingAlgo,
                             CollAlgo::kRabenseifner}) {
      flat = std::min(flat, chase::perf::coll_algo_seconds(
                                m, backend, chase::perf::CollKind::kAllReduce,
                                a, bytes, kRanks, chunk, topo));
    }
    const bool auto_picks_hier =
        chase::coll::select(chase::perf::CollKind::kAllReduce, bytes, kRanks,
                            backend, topo) == CollAlgo::kHierAlgo;
    const bool model_says_hier = hier < flat;
    if (auto_picks_hier != model_says_hier) {
      std::printf("  auto mismatch at %zu bytes: model says %s, auto picked "
                  "%s\n",
                  bytes, model_says_hier ? "hier" : "flat",
                  auto_picks_hier ? "hier" : "flat");
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main() {
  const char* emulated_spec = "2x4@inter_mbps=150@inter_us=120";
  const chase::comm::Topology emulated =
      chase::comm::parse_topology("CHASE_TOPO", emulated_spec);
  const chase::comm::Topology grouped =
      chase::comm::parse_topology("CHASE_TOPO", "2x4");

  std::printf("Hierarchical collectives on the emulated %d-node x %d-rank "
              "topology (%s)\n\n",
              kNodes, kPerNode, emulated_spec);

  // ---- bitwise agreement (grouping without link delays: fast) ----
  bool bitwise;
  {
    ScopedTopology topo(grouped);
    bitwise = bitwise_vs_naive<double>(1024) &&
              bitwise_vs_naive<std::complex<double>>(512);
  }
  std::printf("bitwise hier vs naive (allreduce/broadcast/allgather, "
              "double + complex): %s\n",
              bitwise ? "identical" : "MISMATCH");

  // ---- hierarchy vs flat ring under the slow inter link ----
  const std::size_t hier_bytes = std::size_t(512) << 10;
  double ring_sec, hier_sec;
  {
    ScopedTopology topo(emulated);
    {
      chase::ScopedPolicy policy(chase::coll::algorithm_policy,
                                 chase::coll::Algorithm::kRing);
      ring_sec = time_allreduce(hier_bytes, 6);
    }
    {
      chase::ScopedPolicy policy(chase::coll::algorithm_policy,
                                 chase::coll::Algorithm::kHier);
      hier_sec = time_allreduce(hier_bytes, 6);
    }
  }
  const double hierarchy_speedup = ring_sec / hier_sec;
  std::printf("allreduce %zu KiB x %d ranks: flat ring %.3f ms, hier %.3f "
              "ms -> %.2fx\n",
              hier_bytes >> 10, kRanks, ring_sec * 1e3, hier_sec * 1e3,
              hierarchy_speedup);

  // ---- auto vs the per-link cost model ----
  const auto topo_info = chase::comm::topo_info_of(
      chase::comm::node_assignment(emulated, kRanks), emulated.inter_bw,
      emulated.inter_latency);
  const bool auto_ok = auto_matches_model(topo_info);
  std::printf("auto selection matches per-link cost model: %s\n",
              auto_ok ? "yes" : "NO");

  std::filesystem::create_directories("results");
  std::FILE* f = std::fopen("results/bench_hierarchy.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open results/bench_hierarchy.json\n");
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"topology\": \"%s\",\n"
      "  \"ranks\": %d,\n"
      "  \"allreduce_bytes\": %zu,\n"
      "  \"ring_seconds_per_op\": %.9f,\n"
      "  \"hier_seconds_per_op\": %.9f,\n"
      "  \"hierarchy_speedup\": %.3f,\n"
      "  \"bitwise_identical\": %s,\n"
      "  \"auto_matches_model\": %s\n"
      "}\n",
      emulated_spec, kRanks, hier_bytes, ring_sec, hier_sec,
      hierarchy_speedup, bitwise ? "true" : "false",
      auto_ok ? "true" : "false");
  std::fclose(f);
  std::printf("\nwrote results/bench_hierarchy.json\n");
  return (bitwise && auto_ok) ? 0 : 1;
}
