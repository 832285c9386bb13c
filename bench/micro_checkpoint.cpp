// Checkpoint overhead and ABFT sentinel cost (the fault-tolerance budget).
//
// The checkpoint engine captures a full solver snapshot (basis + Ritz
// bookkeeping + bounds, CRC-guarded) at every iteration boundary; the cost
// of that capture must stay a footnote next to the Chebyshev filter the
// iteration exists to run. This bench measures both from the perf counters
// of one instrumented solve ("ckpt.capture.seconds" vs
// "engine.stage.filter.seconds") and gates their ratio at 5% in
// scripts/compare_bench.py. Also recorded: snapshot size, decode (resume)
// latency, and the wall-clock cost of arming the ABFT checksummed
// collectives on a distributed solve — informational, since the paper's
// hot path runs with the sentinels off.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench/bench_common.hpp"
#include "ckpt/engine.hpp"
#include "ckpt/sink.hpp"
#include "coll/abft.hpp"
#include "core/sequential.hpp"

namespace {

using namespace chase;
using core::ChaseConfig;
using la::Index;

double wall_solve_distributed(la::ConstMatrixView<double> h, int p,
                              const ChaseConfig& cfg) {
  const Index n = h.rows();
  double seconds = 0;
  comm::Team team(p * p);
  team.run([&](comm::Communicator& world) {
    comm::Grid2d grid(world, p, p);
    auto map = dist::IndexMap::block(n, p);
    dist::DistHermitianMatrix<double> hd(grid, map, map);
    hd.fill_from_global(h);
    world.barrier();
    const auto t0 = std::chrono::steady_clock::now();
    auto r = core::solve(hd, cfg);
    world.barrier();
    if (world.rank() == 0) {
      seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (!r.converged) std::fprintf(stderr, "warning: abft case not converged\n");
    }
  });
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode();
  const std::string out_path =
      argc > 1 ? argv[1] : "results/bench_checkpoint.json";

  const Index n = quick ? 256 : 1024;
  ChaseConfig cfg;
  cfg.nev = quick ? 16 : 40;
  cfg.nex = quick ? 8 : 24;
  cfg.tol = 1e-10;

  auto h = gen::hermitian_with_spectrum<double>(
      gen::dft_like_spectrum<double>(n, 11), 11);

  // Instrumented solve with per-iteration checkpointing into a memory sink.
  ckpt::MemorySink sink;
  perf::Tracker tracker;
  perf::set_thread_tracker(&tracker);
  ckpt::CheckpointEngine<double> engine(&sink, /*interval=*/1);
  ckpt::SolveCkpt<double> ck;
  ck.engine = &engine;
  auto r = core::solve_sequential<double>(h.cview(), cfg, nullptr, {}, ck);
  perf::set_thread_tracker(nullptr);
  if (!r.converged) {
    std::fprintf(stderr, "checkpointed solve did not converge\n");
    return 1;
  }

  const double captures = tracker.counter("ckpt.capture.calls");
  const double snapshot_seconds = tracker.counter("ckpt.capture.seconds");
  const double filter_seconds =
      tracker.counter("engine.stage.filter.seconds");
  const double snapshot_bytes =
      captures > 0 ? tracker.counter("ckpt.snapshot.bytes") / captures : 0;
  const double overhead_ratio =
      filter_seconds > 0 ? snapshot_seconds / filter_seconds : 0;

  // Resume latency: decode the newest snapshot back into a Snapshot.
  WallTimer decode_timer;
  ckpt::Snapshot<double> snap;
  const bool decoded = ckpt::load_last_good(sink, snap);
  const double resume_decode_seconds = decode_timer.seconds();
  if (!decoded) {
    std::fprintf(stderr, "no decodable snapshot after the solve\n");
    return 1;
  }

  std::printf("Checkpoint overhead (n=%ld, ne=%ld, %d iterations)\n", long(n),
              long(cfg.subspace()), r.iterations);
  std::printf("  captures            %8.0f\n", captures);
  std::printf("  snapshot bytes      %8.0f\n", snapshot_bytes);
  std::printf("  capture seconds     %8.4f\n", snapshot_seconds);
  std::printf("  filter seconds      %8.4f\n", filter_seconds);
  std::printf("  overhead ratio      %8.4f  (budget 0.05)\n", overhead_ratio);
  std::printf("  resume decode (s)   %8.4f\n", resume_decode_seconds);

  // ABFT sentinels on a distributed solve: wall-clock with the checksummed
  // collectives off vs on (informational — the sentinels are opt-in).
  const Index n_abft = quick ? 96 : 256;
  ChaseConfig abft_cfg;
  abft_cfg.nev = quick ? 8 : 24;
  abft_cfg.nex = quick ? 6 : 12;
  abft_cfg.tol = 1e-10;
  auto h_abft = gen::hermitian_with_spectrum<double>(
      gen::dft_like_spectrum<double>(n_abft, 12), 12);
  double abft_off = 0, abft_on = 0;
  {
    ScopedPolicy off(coll::abft_policy, false);
    abft_off = wall_solve_distributed(h_abft.cview(), 2, abft_cfg);
  }
  {
    ScopedPolicy on(coll::abft_policy, true);
    abft_on = wall_solve_distributed(h_abft.cview(), 2, abft_cfg);
  }
  const double abft_ratio = abft_off > 0 ? abft_on / abft_off : 0;
  std::printf("\nABFT sentinels (2x2, n=%ld): off %.4fs  on %.4fs  "
              "ratio %.3f\n",
              long(n_abft), abft_off, abft_on, abft_ratio);

  std::filesystem::create_directories(
      std::filesystem::path(out_path).parent_path());
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n \"checkpoint\": {\n"
               "  \"n\": %ld, \"ne\": %ld, \"iterations\": %d,\n"
               "  \"captures\": %.0f, \"snapshot_bytes\": %.0f,\n"
               "  \"snapshot_seconds\": %.6f, \"filter_seconds\": %.6f,\n"
               "  \"overhead_ratio\": %.6f,\n"
               "  \"resume_decode_seconds\": %.6f,\n"
               "  \"abft\": {\"n\": %ld, \"off_seconds\": %.6f, "
               "\"on_seconds\": %.6f, \"ratio\": %.4f}\n"
               " }\n}\n",
               long(n), long(cfg.subspace()), r.iterations, captures,
               snapshot_bytes, snapshot_seconds, filter_seconds,
               overhead_ratio, resume_decode_seconds, long(n_abft), abft_off,
               abft_on, abft_ratio);
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
