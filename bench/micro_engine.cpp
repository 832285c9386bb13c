// Wall-clock parity of the layered solver engine against the frozen seed
// drivers (bench/seed_driver.hpp), plus the zero-allocation evidence.
//
// The layered refactor (DLA backend + staged pipeline + workspace arena)
// must not tax the hot path: the staged solve has to stay within a few
// percent of the monolith it replaced, for both the v1.4 scheme and the
// legacy LMS scheme. Each case runs best-of-N on the same matrix and team,
// and records the steady-state allocation counters the workspace maintains
// ("workspace.steady_growth" must be zero, and every iteration's
// workspace_allocs must be zero). Results land in
// results/bench_engine.json for scripts/compare_bench.py to gate.
//
// Also prints the per-stage timing table (perf/stage_report.hpp) of one
// instrumented staged run — the paper's time-per-stage view.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/seed_driver.hpp"
#include "perf/stage_report.hpp"

namespace {

using namespace chase;
using core::ChaseConfig;
using la::Index;

struct Case {
  std::string scheme;  // "v1.4" | "lms"
  std::string grid;    // "1x1", "2x2", ...
  Index n = 0;
  int iterations = 0;
  double staged_seconds = 0;
  double seed_seconds = 0;
  double ratio = 0;  // staged / seed, best-of-N over best-of-N
  double steady_growth = 0;
  long workspace_allocs = 0;  // summed over all recorded iterations
};

/// Best-of-N wall time of one full solve, barrier to barrier (the filter
/// restores its diagonal shifts, so repeats reuse the operator). Returns
/// this rank's time; the ranks run in lock step.
template <typename Solver>
double best_of(int reps, comm::Communicator& world, Solver&& run_once) {
  return bench::measure(0, reps, [&] {
           world.barrier();
           run_once();
           world.barrier();
         }).best;
}

template <typename T>
Case run_case(const std::string& scheme, int nprow, int npcol, Index n,
              const ChaseConfig& cfg, int reps) {
  auto h = gen::hermitian_with_spectrum<T>(
      gen::dft_like_spectrum<double>(n, 7), 7);

  Case out;
  out.scheme = scheme;
  out.grid = std::to_string(nprow) + "x" + std::to_string(npcol);
  out.n = n;
  const bool lms = scheme == "lms";

  std::vector<perf::Tracker> trackers(std::size_t(nprow) * std::size_t(npcol));
  comm::Team team(nprow * npcol);
  team.run(
      [&](comm::Communicator& world) {
        comm::Grid2d grid(world, nprow, npcol);
        auto rmap = dist::IndexMap::block(n, nprow);
        auto cmap = dist::IndexMap::block(n, npcol);
        dist::DistHermitianMatrix<T> hd(grid, rmap, cmap);
        hd.fill_from_global(h.cview());

        // One instrumented staged run for the allocation evidence.
        auto probe = lms ? core::solve_lms(hd, cfg) : core::solve(hd, cfg);
        long allocs = 0;
        for (const auto& s : probe.stats) allocs += s.workspace_allocs;

        const double staged = best_of(reps, world, [&] {
          auto r = lms ? core::solve_lms(hd, cfg) : core::solve(hd, cfg);
          (void)r;
        });
        const double seed = best_of(reps, world, [&] {
          auto r =
              lms ? seeddrv::solve_lms(hd, cfg) : seeddrv::solve(hd, cfg);
          (void)r;
        });
        if (world.rank() == 0) {
          out.iterations = probe.iterations;
          out.workspace_allocs = allocs;
          out.staged_seconds = staged;
          out.seed_seconds = seed;
          out.ratio = staged / seed;
        }
      },
      &trackers);
  for (const auto& t : trackers) {
    out.steady_growth += t.counter("workspace.steady_growth");
  }
  return out;
}

void print_stage_table(Index n, const ChaseConfig& cfg) {
  using T = std::complex<double>;
  auto h = gen::hermitian_with_spectrum<T>(
      gen::dft_like_spectrum<double>(n, 7), 7);
  std::vector<perf::Tracker> trackers(4);
  comm::Team team(4);
  team.run(
      [&](comm::Communicator& world) {
        comm::Grid2d grid(world, 2, 2);
        auto map = dist::IndexMap::block(n, 2);
        dist::DistHermitianMatrix<T> hd(grid, map, map);
        hd.fill_from_global(h.cview());
        core::solve(hd, cfg);
      },
      &trackers);
  std::printf("\nPer-stage wall clock, v1.4 staged solve on 2x2 "
              "(complex<double>, n=%ld, rank 0):\n%s",
              long(n), perf::format_stage_table(trackers[0]).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode();
  const std::string out_path =
      argc > 1 ? argv[1] : "results/bench_engine.json";

  const Index n = quick ? 96 : 256;
  // Quick-mode solves are tiny (~tens of ms), so extra repetitions are
  // cheap — and needed: best-of-2 jitter at that scale exceeds the 5%
  // parity budget compare_bench.py enforces.
  const int reps = quick ? 8 : 5;
  ChaseConfig cfg;
  cfg.nev = quick ? 8 : 24;
  cfg.nex = quick ? 6 : 12;
  cfg.tol = 1e-10;

  std::printf("Staged engine vs seed-driver parity "
              "(best of %d, n=%ld, nev=%ld, nex=%ld)\n\n",
              reps, long(n), long(cfg.nev), long(cfg.nex));
  std::printf("%-6s %-5s %5s %6s %12s %12s %8s %8s %8s\n", "scheme", "grid",
              "n", "iters", "staged (s)", "seed (s)", "ratio", "growth",
              "allocs");

  std::vector<Case> cases;
  cases.push_back(run_case<double>("v1.4", 1, 1, n, cfg, reps));
  cases.push_back(run_case<double>("v1.4", 2, 2, n, cfg, reps));
  cases.push_back(
      run_case<std::complex<double>>("v1.4", 2, 2, n, cfg, reps));
  cases.push_back(run_case<double>("lms", 2, 2, n, cfg, reps));
  cases.push_back(run_case<std::complex<double>>("lms", 2, 2, n, cfg, reps));

  for (const auto& c : cases) {
    std::printf("%-6s %-5s %5ld %6d %12.4f %12.4f %8.3f %8.0f %8ld\n",
                c.scheme.c_str(), c.grid.c_str(), long(c.n), c.iterations,
                c.staged_seconds, c.seed_seconds, c.ratio, c.steady_growth,
                c.workspace_allocs);
  }

  print_stage_table(n, cfg);

  std::filesystem::create_directories(
      std::filesystem::path(out_path).parent_path());
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n \"cases\": [\n");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    std::fprintf(f,
                 "  {\"scheme\": \"%s\", \"grid\": \"%s\", \"n\": %ld, "
                 "\"iterations\": %d, \"staged_seconds\": %.6f, "
                 "\"seed_seconds\": %.6f, \"ratio\": %.4f, "
                 "\"steady_growth\": %.0f, \"workspace_allocs\": %ld}%s\n",
                 c.scheme.c_str(), c.grid.c_str(), long(c.n), c.iterations,
                 c.staged_seconds, c.seed_seconds, c.ratio, c.steady_growth,
                 c.workspace_allocs, i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, " ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
